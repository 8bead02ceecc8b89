"""perfbench: the metricat benchmark.

    python3 perfbench/run.py --workload kernel --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's `src/`.  Each workload is a closed loop with one client in one
process: the next operation starts when the previous one has finished and
its output has been checked.  `--workload all` runs the four workloads one
after another, each in its own process, and prints every metric as
`<workload>/<metric>`.

`--trace 0` prints the end-to-end metrics; `--trace 1` prints the per-layer
metrics of a traced run over the first round of inputs (see tracing.py).  The
last line of standard output is always one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("kernel", "enumerate", "gh", "cli")
SETUP_PROBES = 9   # fresh processes whose set-up time is measured
IMPORT_PROBES = 5  # fresh interpreters timing `import metricat.cli`
MIN_OPS = 100      # so that at least 10 samples lie beyond the 90th percentile
# The host's speed drifts by tens of percent from minute to minute (other
# tenants share its CPUs).  Every time is therefore scaled to a reference
# speed: multiplied by CALIBRATION_S over the time the `calibration` task
# takes around it (see Loop.scale_at).
CALIBRATION_S = 0.0035
CALIBRATE_AFTER_S = 0.001

# Per-size step timings quoted in the output (sizes of the ROADMAP baseline).
QUOTED = {
    "kernel": [("indiscrete n=20", "validate_category"), ("indiscrete n=30", "validate_category"),
               ("indiscrete n=20", "validate_metric1"), ("indiscrete n=30", "validate_metric1"),
               ("indiscrete n=30", "metrize")],
    "enumerate": [("map 3->3", "mapping_space"), ("map 3->3", "validate_category"),
                  ("map 3->3", "validate_metric1"), ("dagger max-monoid k=10", "symmetry_hierarchy")],
    "gh": [("gh 4x4", "gh_distance"), ("gh 4x4 isometric", "gh_distance"),
           ("lipschitz 5x5", "lipschitz_distance")],
    "cli": [],
}


def calibration() -> float:
    """Seconds for a fixed pure-Python task that does not touch metricat:
    exact rational arithmetic, tuple-keyed dict churn and a sort, the kinds
    of work metricat's operations are made of.  The cyclic garbage collector
    is paused so that the task never pays for an operation's garbage."""
    gc.disable()
    try:
        t0 = perf_counter()
        table = {}
        acc = Fraction(0)
        for i in range(1200):
            acc += Fraction(i % 7 + 1, i % 3 + 1)
            table[(i % 40, i)] = (acc, i % 5)
        sorted(table.items(), key=lambda kv: kv[1][1])
        return perf_counter() - t0
    finally:
        gc.enable()


def fail(message: str):
    """Stop without a result line."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup(workload: str, seed: int):
    """Import metricat from the checkout and generate the seeded inputs."""
    if not (ROOT / "src" / "metricat" / "__init__.py").is_file():
        fail(f"no metricat sources under {ROOT / 'src'}; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import inputs
    import workloads  # imports metricat: part of the set-up a user pays

    if ROOT / "src" not in Path(workloads.cli.__file__).resolve().parents:
        fail(f"metricat was imported from {workloads.cli.__file__}, not from this checkout")
    rounds = inputs.build(workload, seed)
    return rounds, inputs.digest(rounds)


def probe_setup(workload: str, seed: int) -> tuple[float, str]:
    """Set-up time of a fresh process, from spawn to its first possible
    operation, and the digest of the inputs it generated."""
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
            f"print(run.setup({workload!r}, {seed})[1], flush=True)")
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        line = proc.stdout.readline().strip()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or not line:
            fail("a set-up probe process failed")
    return elapsed, line


def probe_import() -> float:
    code = "import time; t = time.perf_counter(); import metricat.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, cwd=ROOT, timeout=120, check=True).stdout
    return float(out)


def self_check_sources() -> list[str]:
    """The benchmark has no way to switch off a library guard, the GH route
    agreement, the epsilon-delta oracle or a theorem re-check.  Its sources
    pass no `guard` argument and no guard flag of the CLI, and neither read
    a private name of nor assign an attribute on anything imported from
    metricat."""
    import ast
    import re

    import workloads

    flags = set(re.findall(r"--guard[-\w]*", workloads.cli.build_parser().format_help()))
    problems = []
    for path in sorted(HERE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        library = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and (getattr(node, "module", None) or node.names[0].name).startswith("metricat")
            for alias in node.names
        }
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.keyword) and node.arg and "guard" in node.arg:
                problems.append(f"{where} passes {node.arg}=")
            elif isinstance(node, ast.Constant) and node.value in flags:
                problems.append(f"{where} uses the flag {node.value}")
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in library:
                if node.attr.startswith("_") and not node.attr.endswith("__"):
                    problems.append(f"{where} reads the private name {node.attr}")
                elif isinstance(node.ctx, ast.Store):
                    problems.append(f"{where} assigns {node.value.id}.{node.attr}")
    return problems


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def summary_digest(summary) -> str:
    return hashlib.sha256(json.dumps(summary, sort_keys=True, default=str).encode()).hexdigest()


class Loop:
    """Runs operations, times each library call, checks the outputs and
    keeps what the report needs.

    Every timed call longer than CALIBRATE_AFTER_S is followed by one
    `calibration`, so the host's speed is sampled next to the calls that
    carry the time, outside the timed regions."""

    def __init__(self, runner):
        self.runner = runner
        self.latencies: list[float] = []  # measured, one per successful operation
        self.scaled: list[float] = []     # the same at the reference speed
        self.steps: dict[tuple[str, str], list[float]] = defaultdict(list)  # scaled
        self.outputs: dict[str, str] = {}
        self.attempted = 0
        self.errors: list[str] = []
        self.nondeterministic: list[str] = []
        self.calibrations: list[float] = []

    def run(self, op: dict, call=None) -> None:
        if not self.calibrations:
            self.calibrations.append(calibration())
        calls = []  # (step name, seconds, index of the calibration just before)

        def step(name, fn, *args, **kwargs):
            before = len(self.calibrations) - 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - t0
                calls.append((name, seconds, before))
                if seconds > CALIBRATE_AFTER_S:
                    self.calibrations.append(calibration())

        self.attempted += 1
        try:
            summary = (call or self.runner)(op, step)
        except Exception as exc:  # every op failure is counted, never fatal
            self.errors.append(f"{op['id']} {op['label']}: {type(exc).__name__}: {exc}")
            return
        self.latencies.append(sum(seconds for _, seconds, _ in calls))
        scaled = [(name, seconds * self.scale_at(i)) for name, seconds, i in calls]
        self.scaled.append(sum(seconds for _, seconds in scaled))
        per_step = defaultdict(float)
        for name, seconds in scaled:
            per_step[name] += seconds
        for name, seconds in per_step.items():
            self.steps[(op["label"], name)].append(seconds)
        digest = summary_digest(summary)
        if self.outputs.setdefault(op["id"], digest) != digest:
            self.nondeterministic.append(op["id"])

    def scale_at(self, i: int) -> float:
        """Factor to the reference speed for a call made between
        calibrations i and i + 1: CALIBRATION_S over the median of the four
        calibrations nearest it (three before, one after), so that one
        disturbed calibration does not skew the call."""
        return CALIBRATION_S / statistics.median(self.calibrations[max(0, i - 2):i + 2])

    @property
    def failed(self) -> int:
        return len(self.errors)

    def round_digests(self, rounds) -> list[str]:
        out = []
        for ops in rounds:
            if all(op["id"] in self.outputs for op in ops):
                h = hashlib.sha256("".join(self.outputs[op["id"]] for op in ops).encode())
                out.append(h.hexdigest()[:16])
        return out


def runner_for(workload: str):
    import workloads

    if workload == "cli":
        env = workloads.cli_env()
        return lambda op, step: workloads.run_cli(op, step, env)
    return lambda op, step: workloads.RUNNERS[op["kind"]](op, step)


def fmt(value: float) -> str:
    return f"{value:.6g}"


def speed_scale(calibrations: list[float]) -> float:
    """Factor that brings this run's times to the reference speed."""
    return CALIBRATION_S / statistics.median(calibrations)


def measure(workload: str, rounds, seconds: float) -> tuple[Loop, float]:
    loop = Loop(runner_for(workload))
    start = perf_counter()
    r = 0
    while perf_counter() - start < seconds or len(loop.latencies) < MIN_OPS:
        for op in rounds[r % len(rounds)]:
            loop.run(op)
        r += 1
        if loop.attempted >= 20 * MIN_OPS and not loop.latencies:
            break
    return loop, perf_counter() - start


def end_to_end(workload: str, seed: int, seconds: float, t_process: float) -> dict:
    rounds, digest = setup(workload, seed)
    t_ready = perf_counter()
    import inputs

    probes = []
    probe_calibrations = []
    for _ in range(SETUP_PROBES):
        probes.append(probe_setup(workload, seed))
        probe_calibrations.append(calibration())
    same_seed = all(d == digest for _, d in probes)
    other_seed = inputs.digest([inputs.build_round(workload, seed + 1, 0)]) != \
        inputs.digest(rounds[:1])
    problems = self_check_sources()

    loop, wall = measure(workload, rounds, seconds)
    if len(loop.latencies) < 2:
        fail(f"only {len(loop.latencies)} operations succeeded; first errors: {loop.errors[:3]}")

    def timings(lat: list[float], setup: list[float]) -> dict:
        return {
            "ops_per_s": (len(lat) / sum(lat), "op/s"),
            "op_p50_ms": (statistics.median(lat) * 1000, "ms"),
            "op_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1000, "ms"),
            "setup_s": (statistics.median(setup), "s"),
        }

    lat = loop.scaled
    p90 = statistics.quantiles(lat, n=10)[8]
    scale = speed_scale(loop.calibrations + probe_calibrations)
    setup_times = [t for t, _ in probes]
    raw = timings(loop.latencies, setup_times)
    metrics = timings(lat, [t * speed_scale(probe_calibrations) for t in setup_times])
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")

    print(f"perfbench {workload}: seed {seed}, {seconds:g} s, python {platform.python_version()}, "
          f"nproc {os.cpu_count()}, closed loop, 1 client")
    print(f"inputs: {len(rounds)} rounds x {len(rounds[0])} ops, digest {digest[:16]}; "
          f"same in {SETUP_PROBES} fresh processes: {same_seed}; seed {seed + 1} differs: {other_seed}")
    print(f"self-check of benchmark sources: {'ok' if not problems else problems}")
    print(f"times at reference speed (calibration task {CALIBRATION_S * 1000:g} ms; here median "
          f"{fmt(CALIBRATION_S / scale * 1000)} ms over {len(loop.calibrations) + SETUP_PROBES} "
          f"samples); measured values in brackets")
    print(f"{'ops_per_s':<12} {fmt(metrics['ops_per_s'][0]):>12} op/s  "
          f"[{fmt(raw['ops_per_s'][0])}] ({len(lat)} ops, {fmt(sum(lat))} s busy of {fmt(wall)} s)")
    print(f"{'op_p50_ms':<12} {fmt(metrics['op_p50_ms'][0]):>12} ms    "
          f"[{fmt(raw['op_p50_ms'][0])}] (n={len(lat)})")
    print(f"{'op_p90_ms':<12} {fmt(metrics['op_p90_ms'][0]):>12} ms    "
          f"[{fmt(raw['op_p90_ms'][0])}] (n={len(lat)}, {sum(1 for x in lat if x > p90)} beyond)")
    print(f"{'fail_ratio':<12} {fmt(loop.failed / loop.attempted):>12} 1     "
          f"({loop.failed} failed / {loop.attempted} attempted)")
    print(f"{'setup_s':<12} {fmt(metrics['setup_s'][0]):>12} s     "
          f"[{fmt(raw['setup_s'][0])}] (median of {SETUP_PROBES} fresh processes; {fmt(t_ready - t_process)} s in this one)")
    print(f"{'peak_rss_mb':<12} {fmt(metrics['peak_rss_mb'][0]):>12} MiB")
    for label, step in QUOTED[workload]:
        xs = loop.steps.get((label, step))
        if xs:
            print(f"step {label} / {step}: median {fmt(statistics.median(xs) * 1000)} ms "
                  f"(n={len(xs)})")
    print("output digests per round: " + " ".join(loop.round_digests(rounds)))
    for err in loop.errors[:10]:
        print(f"FAILED {err}", file=sys.stderr)

    if workload == "cli":
        import cli_requests

        probe = Loop(runner_for("cli"))
        for i, op in enumerate(cli_requests.known_defects(random.Random(f"defects:{seed}"))):
            op["id"] = f"defect.{i}"
            probe.run(op)
        print(f"known-defect probe (CLI contract, outside the timed mix): "
              f"{probe.failed} failed / {probe.attempted} attempted")
        for err in probe.errors:
            print(f"  {err.splitlines()[0]}")

    correct = same_seed and other_seed and not problems and not loop.nondeterministic \
        and loop.failed == 0
    return {
        "correct": correct, "attempted": loop.attempted, "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_metrics(tracer, untraced_s: float, traced_s: float) -> dict[str, float]:
    st = tracer.self_times()
    calls = tracer.call_counts()
    c = tracer.counts

    def total(match) -> float:
        return sum(v for k, v in st.items() if match(k))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "fincat.validate_category_s": st.get("fincat.validate_category", 0.0),
        "fincat.composable_pairs": c["fincat.composable_pairs"],
        "fincat.vertical_compose_s": st.get("fincat.vertical_compose", 0.0),
        "fincat.vertical_compose_calls": calls["fincat.vertical_compose"],
        "fincat.validate_transformation_s": st.get("fincat.validate_transformation", 0.0),
        "fincat.validate_transformation_calls": calls["fincat.validate_transformation"],
        "weights.validate_metric1_s": st.get("weights.validate_metric1", 0.0),
        "weights.lawvere_s": st.get("weights.lawvere", 0.0),
        "weight.ops": c["weight.ops"],
        "coarse.metrize_s": st.get("coarse.metrize", 0.0),
        "coarse.stages": c["coarse.stages"],
        "coarse.arrow_star_calls": c["coarse.arrow_star_calls"],
        "mapping.enumerate_functors_s": st.get("mapping.enumerate_functors", 0.0),
        "mapping.functors": c["mapping.functors"],
        "mapping.continuous_functors": c["mapping.continuous_functors"],
        "mapping.continuous_ratio": ratio(c["mapping.continuous_functors"], c["mapping.functors"]),
        "mapping.enumerate_transformations_s": st.get("mapping.enumerate_transformations", 0.0),
        "mapping.transformations": c["mapping.transformations"],
        "continuity.uniformly_continuous_s": st.get("continuity.uniformly_continuous", 0.0),
        "continuity.s": total(lambda k: k.startswith("continuity.")),
        "dagger.enumerate_daggers_s": st.get("dagger.enumerate_daggers", 0.0),
        "dagger.candidates": c["dagger.candidates"],
        "dagger.found": c["dagger.found"],
        "dagger.valid_ratio": ratio(c["dagger.found"], c["dagger.candidates"]),
        "fixedpoint.find_natural_contractions_s": st.get("fixedpoint.find_natural_contractions", 0.0),
        "fixedpoint.banach_iterate_s": st.get("fixedpoint.banach_iterate", 0.0),
        "limits.s": total(lambda k: k.startswith("limits.")),
        "geometry.gh_distance_s": st.get("geometry.gh_distance", 0.0),
        "geometry.gh_calls": calls["geometry.gh_distance"],
        "geometry.lipschitz_distance_s": st.get("geometry.lipschitz_distance", 0.0),
        "geometry.bilip_slice_s": st.get("geometry.bilip_slice", 0.0),
        "jsonio.parse_s": total(lambda k: k.startswith("jsonio.") and (
            k.endswith("_from_json") or k == "jsonio.parse_fraction")),
        "jsonio.emit_s": total(lambda k: k.startswith("jsonio.") and (
            k.endswith("_to_json") or k == "jsonio.dumps")),
        "trace.ops_per_s_ratio": ratio(untraced_s, traced_s),
    }


def per_layer(workload: str, seed: int, seconds: float) -> dict:
    """Traced run: pairs of passes over the first round of inputs, one
    untraced and one traced, repeated while time remains.  Times are the
    median over passes; counts must repeat exactly in every pass."""
    rounds, _ = setup(workload, seed)
    import tracing
    import workloads

    ops = rounds[0]
    runner = runner_for(workload)
    in_process = workloads.run_cli_in_process if workload == "cli" else runner
    passes = []
    tracers = []
    spawn_walls = []
    calibrations = []
    attempted = failed = 0
    transparent = True
    start = perf_counter()
    while True:
        if workload == "cli":
            spawned = Loop(runner)
            for op in ops:
                spawned.run(op)
            spawn_walls.append(sum(spawned.latencies) / max(1, len(spawned.latencies)))
            attempted, failed = attempted + spawned.attempted, failed + spawned.failed
            calibrations += spawned.calibrations
        plain = Loop(in_process)
        for op in ops:
            plain.run(op)
        tracer = tracing.Tracer()
        traced = Loop(in_process)
        tracer.install()
        try:
            for op in ops:
                traced.run(op, lambda o, step: tracer.run_op(o["id"], lambda: in_process(o, step)))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        attempted += plain.attempted + traced.attempted
        failed += plain.failed + traced.failed
        calibrations += plain.calibrations + traced.calibrations
        transparent &= plain.outputs == traced.outputs
        for err in (plain.errors + traced.errors)[:10]:
            print(f"FAILED {err}", file=sys.stderr)
        values = layer_metrics(tracer, sum(plain.latencies), sum(traced.latencies))
        values["cli.main_s"] = sum(plain.latencies) / len(plain.latencies) if workload == "cli" else 0.0
        passes.append(values)
        if perf_counter() - start >= seconds:
            break

    metrics = {}
    counts_repeat = True
    for name in passes[0]:
        xs = [p[name] for p in passes]
        if isinstance(xs[0], int):
            counts_repeat &= len(set(xs)) == 1
            metrics[name] = xs[0]
        else:
            metrics[name] = statistics.median(xs)
    if workload == "cli":
        metrics["cli.import_s"] = statistics.median(probe_import() for _ in range(IMPORT_PROBES))
        metrics["cli.spawn_s"] = statistics.median(spawn_walls) - metrics["cli.main_s"] \
            - metrics["cli.import_s"]
    else:
        metrics["cli.import_s"] = metrics["cli.spawn_s"] = 0.0
    scale = speed_scale(calibrations)
    for name in metrics:
        if name.endswith("_s") or name.endswith(".s"):
            metrics[name] *= scale

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{workload}-seed{seed}.csv.gz"
    tracing.write_spans(span_file, tracers)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    units = {m["name"]: m["unit"] for m in spec}
    print(f"perfbench {workload} traced: seed {seed}, {len(passes)} pass pair(s) over "
          f"{len(ops)} ops, python {platform.python_version()}, nproc {os.cpu_count()}; "
          f"times at reference speed (measured x {fmt(scale)})")
    for name in sorted(units):
        print(f"{workload}/{name:<40} {fmt(metrics[name]):>12} {units[name]}")
    print(f"counts repeat in every pass: {counts_repeat}; traced outputs equal untraced: "
          f"{transparent}; spans: {span_file.relative_to(ROOT)}")
    return {
        "correct": counts_repeat and transparent and failed == 0,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def run_all(args) -> dict:
    """Each workload in its own process, one after another."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.rstrip("\n").splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {workload} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        child = json.loads(lines[-1])
        result["correct"] &= child["correct"]
        result["attempted"] += child["attempted"]
        result["failed"] += child["failed"]
        for name, metric in child["metrics"].items():
            result["metrics"][f"{workload}/{name}"] = metric
    return result


def main(argv=None) -> int:
    t_process = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    elif args.trace:
        result = per_layer(args.workload, args.seed, args.seconds)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds, t_process)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
