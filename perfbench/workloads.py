"""One operation per workload kind: call metricat's public API with its
defaults, then check the outputs.

A runner makes every library call through `step(name, fn, *args)`, which
times that call alone (see run.Loop), and returns a summary of the outputs
for the run's digest.  The checks run outside the timed calls.  A failed
check raises `CheckFailed`.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from metricat import cli, coarse, dagger, fincat, fixedpoint, geometry, jsonio, mapping, weights

ROOT = Path(__file__).resolve().parents[1]


class CheckFailed(Exception):
    """An operation's output contradicts what its input guarantees."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


_NAMED = re.compile(r"\ba(\d+):|\((\d+(?:,\d+)*)\)|arrow (\d+)")


def named_arrows(messages: list[str]) -> set[int]:
    """Arrow ids a validation report mentions: `a7:0->1` renderings,
    `(f,g)` / `(f,g,h)` tuples and `arrow 7` phrases."""
    ids: set[int] = set()
    for msg in messages:
        for single, group, phrase in _NAMED.findall(msg):
            for part in (single, phrase):
                if part:
                    ids.add(int(part))
            if group:
                ids.update(int(p) for p in group.split(","))
    return ids


def run_kernel(op: dict, step):
    doc, e = op["doc"], op["expect"]
    space = step("space_from_json", jsonio.space_from_json, doc)
    cat_rep = step("validate_category", fincat.validate_category, space.category)
    met_rep = step("validate_metric1", weights.validate_metric1, space)
    law = step("lawvere", weights.lawvere, space)
    gens = step("bounded_generators", coarse.bounded_generators, space)
    metrized = step("metrize", coarse.metrize, gens)
    roundtrip = step("coarse_roundtrip_check", coarse.coarse_roundtrip_check, space)

    if e["defect"] is None:
        require(cat_rep.ok, "valid category failed validate_category")
        require(met_rep.ok, "valid space failed validate_metric1")
        require(roundtrip, "coarse_roundtrip_check failed on a valid space")
    elif e["defect"] == "weight":
        require(cat_rep.ok, "perturbed weight broke the category")
        require(not met_rep.ok, "perturbed weight not reported")
        require(e["arrow"] in named_arrows(met_rep.violations),
                f"report does not name perturbed arrow {e['arrow']}")
    else:
        require(not cat_rep.ok, "wrong composite not reported")
        require(set(e["pair"]) <= named_arrows(cat_rep.all_messages()),
                f"report does not name the pair {e['pair']}")
    law_json = [[w.to_json() for w in row] for row in law.d]
    require(law_json == e["lawvere"], "lawvere distances differ from the least arrow weights")
    metrized_json = [w.to_json() for w in metrized.w]
    require([i for i, w in enumerate(metrized_json) if w == "0"] == e["identities"],
            "metrization gives weight 0 to other arrows than the identities")
    return [cat_rep.all_messages(), met_rep.all_messages(), law_json,
            metrized_json, [sorted(s) for s in gens.sets], roundtrip]


def run_mapping(op: dict, step):
    doc, e = op["doc"], op["expect"]
    X = step("space_from_json", jsonio.space_from_json, doc["source"])
    Y = step("space_from_json", jsonio.space_from_json, doc["target"])
    ms = step("mapping_space", mapping.mapping_space, X, Y)
    cat_rep = step("validate_category", fincat.validate_category, ms.space.category)
    met_rep = step("validate_metric1", weights.validate_metric1, ms.space)

    require(cat_rep.ok, "[X, Y] failed validate_category")
    require(met_rep.ok, "[X, Y] failed validate_metric1")
    require(len(ms.space.category.objects) == e["objects"], "wrong number of continuous functors")
    require(len(ms.space.category.arrows) == e["arrows"], "wrong number of transformations")
    got = sorted(w.finite for w in ms.space.w)
    require(got == [Fraction(w) for w in e["weights"]], "transformation weights differ")
    return [len(ms.functors), [str(w) for w in ms.space.w],
            sorted(ms.space.category.composition.items())[:64]]


def run_dagger(op: dict, step):
    space = step("space_from_json", jsonio.space_from_json, op["doc"])
    cls = step("symmetry_hierarchy", dagger.symmetry_hierarchy, space)
    require(str(cls) == op["expect"]["class"], f"symmetry class {cls}, expected iso")
    return [str(cls)]


def run_contraction(op: dict, step):
    doc, e = op["doc"], op["expect"]
    space = step("space_from_json", jsonio.space_from_json, doc["space"])
    fun = step("functor_from_json", jsonio.functor_from_json,
               doc["functor"], space.category, space.category)
    found = step("find_natural_contractions", fixedpoint.find_natural_contractions, space, fun)
    outcome = step("banach_iterate", fixedpoint.banach_iterate, space, fun, found[0], doc["start"])
    require(len(found) == 1, "an indiscrete space has exactly one natural contraction")
    require(outcome.fixed.fixed_object == e["fixed"], "wrong fixed object")
    require(outcome.steps_to_fixed == e["steps"], "wrong number of steps to the fixed object")
    require(outcome.fixed.arrow == e["arrow"], "wrong alpha-fixed arrow")
    return [list(found[0].components), outcome.fixed.arrow, outcome.steps_to_fixed,
            outcome.cauchy.verdict, outcome.limit.verdict]


def run_geometry(op: dict, step):
    doc, e = op["doc"], op["expect"]
    x = step("metric_space_from_json", jsonio.metric_space_from_json, doc["x"])
    y = step("metric_space_from_json", jsonio.metric_space_from_json, doc["y"])
    if op["kind"] == "gh":
        value = step("gh_distance", geometry.gh_distance, x, y)
    else:
        value = step("lipschitz_distance", geometry.lipschitz_distance, x, y)
    require(Fraction(e["low"]) <= value <= Fraction(e["high"]),
            f"{op['kind']} = {value} outside [{e['low']}, {e['high']}]")
    if e["iso"]:
        require(value == (0 if op["kind"] == "gh" else 1), f"isometric copies give {value}")
    return [str(value)]


def check_cli(e: dict, code: int, out: str, err: str) -> None:
    """The README exit-code contract plus the payload each request implies."""
    require("Traceback" not in err, "traceback on stderr")
    require(code == e["exit"], f"exit code {code}, expected {e['exit']}")
    check = e["check"]
    if check == "input":
        require(err.startswith("input error:"), "exit 2 without an input-error message")
        return
    data = json.loads(out)
    if check == "ok":
        require(data["ok"] is e["ok"], f"ok is {data['ok']}")
    elif check == "error":
        require(bool(data["error"]), "invalid space reported no error")
    elif check == "lawvere":
        require(data["d"] == e["d"], "lawvere distances differ")
    elif check == "metrize":
        zero = sorted(int(k) for k, w in data["weights"].items() if w == "0")
        require(zero == e["identities"], "metrize gives weight 0 to non-identities")
    elif check == "map-space":
        require(len(data["functors"]) == e["functors"], "wrong number of functors")
        require(len(data["category"]["arrows"]) == e["arrows"], "wrong number of arrows")
    elif check == "dagger":
        require(data["class"] == e["cls"] and data["daggers"] == e["daggers"], "wrong daggers")
    elif check == "fixed-point":
        require((data["fixedObject"], data["steps"], data["arrow"])
                == (e["fixed"], e["steps"], e["arrow"]), "wrong fixed point")
    elif check == "limits":
        verdicts = [r["verdict"] for r in data["results"].values()]
        require(verdicts[0] == e["verdict"], f"verdict {verdicts[0]}")
    elif check in ("gh", "lipschitz"):
        value = Fraction(data["ghDistance" if check == "gh" else "bilipConstant"])
        require(Fraction(e["low"]) <= value <= Fraction(e["high"]), f"{check} = {value} out of bounds")
        if e["iso"]:
            require(value == (0 if check == "gh" else 1), f"isometric copies give {value}")
    else:
        raise ValueError(f"unknown check {check!r}")


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_cli(op: dict, step, env: dict):
    doc = op["doc"]
    argv = [sys.executable, "-m", "metricat.cli"] + doc["argv"]
    proc = step("subprocess", subprocess.run, argv, input=doc["stdin"], capture_output=True,
                text=True, env=env, cwd=ROOT, timeout=120)
    check_cli(op["expect"], proc.returncode, proc.stdout, proc.stderr)
    return [proc.returncode, proc.stdout]


def run_cli_in_process(op: dict, step):
    """The same request through `cli.main` in this process: what an
    invocation costs without interpreter start-up and imports."""
    doc = op["doc"]
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(doc["stdin"])
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = step("main", cli.main, list(doc["argv"]))
    finally:
        sys.stdin = saved
    check_cli(op["expect"], code, out.getvalue(), err.getvalue())
    return [code, out.getvalue()]


RUNNERS = {
    "indiscrete": run_kernel, "bimetric": run_kernel, "chain": run_kernel,
    "mapping": run_mapping, "dagger": run_dagger, "contraction": run_contraction,
    "gh": run_geometry, "lipschitz": run_geometry,
}
