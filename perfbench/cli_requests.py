"""Seeded request mix for the `cli` workload: one `metricat` invocation per
operation, covering all 11 subcommands on small inputs.

Expected exit codes follow the README contract: 0 success / property holds,
1 validation failure, 2 input error (with a message and no traceback).
"""
from __future__ import annotations

import json
import random
from fractions import Fraction

import inputs


def request(label: str, argv: list[str], payload, exit_code: int, check: str, **expect) -> dict:
    text = payload if isinstance(payload, str) else json.dumps(payload)
    return {
        "kind": "cli",
        "label": f"cli {label}",
        "doc": {"argv": ["--format", "json"] + argv, "stdin": text},
        "expect": {"exit": exit_code, "check": check, **expect},
    }


def z2_doc(w: Fraction) -> dict:
    """One object, arrows {id, g} with g after g = id, g weighing w."""
    cat = inputs.category_doc(1, [(0, 0), (0, 0)], [0],
                              {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0})
    return inputs.space_doc(cat, [Fraction(0), w])


def cli_round(rng: random.Random) -> list[dict]:
    d3 = inputs.rand_metric(rng, 3)
    valid3 = inputs.indiscrete_doc(d3)
    broken = inputs.indiscrete_doc(inputs.rand_metric(rng, 3))
    inputs.perturb_weight(rng, broken)
    d2 = inputs.rand_metric(rng, 2)
    bimetric = inputs.bimetric_doc(d2, Fraction(1), 1 + d2[0][1])
    chain = inputs.chain_doc([Fraction(rng.randint(1, 5)) for _ in range(3)])

    d2x, d2y = inputs.rand_metric(rng, 2), inputs.rand_metric(rng, 2)
    map_expect = inputs.mapping_expect(d2x, d2y, chain=False)

    pseudo = inputs.rand_pseudometric(rng, 3)
    zero_pair = next((p, q) for p in range(3) for q in range(3) if p != q and pseudo[p][q] == 0)
    glued = [rng.randrange(3) for _ in range(3)]
    glued[zero_pair[1]] = glued[zero_pair[0]]
    split = list(glued)
    split[zero_pair[1]] = (glued[zero_pair[0]] + 1) % 3

    contraction = inputs.contraction_op(rng, 4)

    c = Fraction(rng.randint(1, 6))
    line2 = inputs.indiscrete_doc([[Fraction(0), c], [c, Fraction(0)]])

    gh = inputs.gh_op(rng, "gh", 3, 3, iso=rng.random() < 1 / 3)
    lip = inputs.gh_op(rng, "lipschitz", 4, 4, iso=rng.random() < 1 / 3)

    base = rng.randint(1, 6)
    delta = rng.randint(1, 4)

    def bimetric_params(h: int) -> dict:
        return {"n": 2, "a1": {"0,1": base, "1,0": base},
                "a2": {"0,1": base + delta, "1,0": base + delta}, "h": h}

    transpose = [y * 3 + x for x in range(3) for y in range(3)]
    asymmetric = {"points": ["a", "b"], "d": [[0, 1], [rng.randint(2, 9), 0]]}
    no_cod = json.loads(json.dumps(valid3))
    del no_cod["category"]["arrows"][rng.randrange(9)]["cod"]

    return [
        request("validate valid", ["validate", "-"], valid3, 0, "ok", ok=True),
        request("validate invalid", ["validate", "-"], broken, 1, "ok", ok=False),
        request("validate category", ["validate", "-"], chain["category"], 0, "ok", ok=True),
        request("lawvere valid", ["lawvere", "-"], bimetric, 0, "lawvere",
                d=inputs.lawvere_of(bimetric)),
        request("lawvere invalid", ["lawvere", "-"], broken, 1, "error"),
        request("metrize", ["metrize", "-"],
                {"category": valid3["category"],
                 "generators": {"list": [[1], [1, 5]], "constantFrom": 1}},
                0, "metrize", identities=[0, 4, 8]),
        request("map-space 2->2", ["map-space", "-"],
                {"source": inputs.indiscrete_doc(d2x), "target": inputs.indiscrete_doc(d2y)},
                0, "map-space", functors=map_expect["objects"], arrows=map_expect["arrows"]),
        request("dagger", ["dagger", "-v", "-"], valid3, 0, "dagger",
                cls="groupoidal", daggers=[transpose]),
        request("continuity holds", ["continuity", "-"],
                {"source": inputs.indiscrete_doc(pseudo), "target": valid3,
                 "functor": inputs.indiscrete_functor_doc(glued, 3)}, 0, "ok", ok=True),
        request("continuity fails", ["continuity", "-"],
                {"source": inputs.indiscrete_doc(pseudo), "target": valid3,
                 "functor": inputs.indiscrete_functor_doc(split, 3)}, 1, "ok", ok=False),
        request("fixed-point", ["fixed-point", "-"], dict(contraction["doc"], contraction=0),
                0, "fixed-point", **contraction["expect"]),
        request("limits sequence", ["limits", "-"],
                {"space": line2, "base": 0, "sequence": {"preperiod": [], "period": [1]},
                 "cone": {"apex": 1, "startIndex": 0, "legs": {"period": [3]}}},
                0, "limits", verdict="exact-yes"),
        request("limits series", ["limits", "-"],
                {"space": z2_doc(c), "series": {"period": [1]}}, 1, "limits",
                verdict="exact-no"),
        request("gh 3x3", ["gh", "-"], gh["doc"], 0, "gh", **gh["expect"]),
        request("lipschitz 4x4", ["lipschitz", "-"], lip["doc"], 0, "lipschitz", **lip["expect"]),
        request("demo bimetric valid", ["demo", "bimetric", "-"],
                bimetric_params(delta + rng.randint(0, 2 * base)), 0, "ok", ok=True),
        request("demo bimetric invalid", ["demo", "bimetric", "-"],
                bimetric_params(delta - 1), 1, "ok", ok=False),
        request("malformed json", ["validate", "-"], json.dumps(valid3)[:-7], 2, "input"),
        request("missing weights", ["lawvere", "-"], {"category": valid3["category"]}, 2, "input"),
        request("bad weight", ["validate", "-"],
                dict(valid3, weights=dict(valid3["weights"], **{"1": "x/y"})), 2, "input"),
        request("missing cod", ["validate", "-"], no_cod, 2, "input"),
        request("gh non-metric", ["gh", "-"], {"x": asymmetric, "y": asymmetric}, 2, "input"),
        request("map-space no target", ["map-space", "-"], {"source": valid3}, 2, "input"),
    ]


def known_defects(rng: random.Random) -> list[dict]:
    """Malformed documents the CLI should reject with exit 2 but that
    currently escape as Python tracebacks (see ROADMAP, CLI contract)."""
    c = Fraction(rng.randint(1, 6))
    line2 = inputs.indiscrete_doc([[Fraction(0), c], [c, Fraction(0)]])
    incomplete = json.loads(json.dumps(line2))
    del incomplete["category"]["compose"][rng.randrange(8)]
    cone = {"apex": 1, "startIndex": 0, "legs": {"period": [3]}}
    return [
        request("limits empty period", ["limits", "-"],
                {"space": line2, "series": {"period": []}}, 2, "input"),
        request("limits arrow out of range", ["limits", "-"],
                {"space": line2, "base": 0, "sequence": {"period": [99]}, "cone": cone}, 2, "input"),
        request("limits non-integer id", ["limits", "-"],
                {"space": line2, "series": {"period": ["x"]}}, 2, "input"),
        request("lawvere incomplete table", ["lawvere", "-"], incomplete, 2, "input"),
        request("dagger incomplete table", ["dagger", "-"], incomplete, 2, "input"),
        request("validate incomplete table", ["validate", "-"], incomplete, 2, "input"),
        request("fixed-point start out of range", ["fixed-point", "-"],
                {"space": line2, "functor": inputs.indiscrete_functor_doc([0, 0], 2), "start": 5},
                2, "input"),
    ]
