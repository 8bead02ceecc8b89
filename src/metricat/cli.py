"""Command-line front end.

Every subcommand reads one JSON document (a file path or '-' for stdin) and
prints a deterministic report.  Exit codes: 0 success / property holds,
1 validation failure (report printed), 2 input error, 3 size guard,
4 internal error (a bug, such as a TheoremViolation: one line on stderr).

A run is mostly interpreter start-up, so each subcommand loads only what it
runs.  Module-level imports stay limited to argparse, json, sys, errors,
fincat, jsonio and weights, which bring in metricspace, record and weight
and, from the standard library, fractions, functools and itertools.  A
handler imports the module it runs (coarse, continuity, dagger, fixedpoint,
geometry, limits or mapping) once `_load` has returned, so a document
rejected at the JSON boundary loads none of them.  All but coarse also load
`typing`, for NamedTuple results.  No path loads `dataclasses` or `inspect`.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import jsonio, weights
from .errors import InputFormatError, PreconditionError, SizeGuardError
from .fincat import opposite_functor, validate_category, validate_functor

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members, refusing a key named twice, which
    `json.loads` alone would read last-one-wins."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise InputFormatError(f"key {json.dumps(key)} appears twice in one JSON object")
            seen.add(key)
    return obj


def _load(args, *keys: str) -> dict:
    """The subcommand's input document: a JSON object holding `keys`."""
    path = args.input
    try:
        text = sys.stdin.read() if path == "-" else open(path, encoding="utf-8").read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise InputFormatError("JSON nested too deeply") from exc
    return jsonio.json_object(data, f"{args.command} input", keys)


def _well_formed(space, what: str):
    """The space, once its category tables have dense ids, name no missing
    object or arrow and hold no entry on a pair that does not compose.  The
    subcommands that compute on a space without validating it index those
    tables directly."""
    cat = space.category
    errors = cat.structural_errors()
    if not errors and cat.side:
        # past the structural checks the side record holds only such entries
        f, g = (cat.arrows[i] for i in min(cat.side))
        errors = [f"composition table defined on non-composable pair ({f}, {g})"]
    if errors:
        raise InputFormatError(f"{what} category is malformed: {errors[0]}")
    return space


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        sys.stdout.write(jsonio.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _refuse(args, report, key: str | None = None) -> int:
    """Exit 1 on a failed report: messages under "error" (within `key`) in JSON, else its summary."""
    messages = report.all_messages()
    _emit(args, {"error": messages if key is None else {key: messages}}, [report.summary()])
    return EXIT_INVALID


def cmd_validate(args) -> int:
    data = _load(args)
    if "weights" in data:
        space = jsonio.space_from_json(data)
        cat_report = validate_category(space.category)
        met_report = weights.validate_metric1(space)
        ok = cat_report.ok and met_report.ok
        payload = {
            "category": cat_report.all_messages(),
            "metric": met_report.all_messages(),
            "ok": ok,
        }
        _emit(args, payload, [cat_report.summary(), met_report.summary()])
        return EXIT_OK if ok else EXIT_INVALID
    cat = jsonio.category_from_json(data if "category" not in data else data["category"])
    report = validate_category(cat)
    _emit(args, {"category": report.all_messages(), "ok": report.ok}, [report.summary()])
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_lawvere(args) -> int:
    space = jsonio.space_from_json(_load(args))
    report = weights.validate_metric1(space)
    if not report.ok:
        return _refuse(args, report)
    law = weights.lawvere(space)
    payload = {
        "points": list(law.points),
        "d": [[w.to_json() for w in row] for row in law.d],
        "symmetric": law.is_symmetric(),
    }
    lines = [f"points: {', '.join(law.points)}"]
    for i, row in enumerate(law.d):
        lines.append(f"d[{law.points[i]}] = [{', '.join(w.to_json() for w in row)}]")
    lines.append(f"symmetric: {law.is_symmetric()}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_metrize(args) -> int:
    data = _load(args, "category", "generators")
    from . import coarse

    cat = jsonio.category_from_json(data["category"])
    report = validate_category(cat)
    if not report.ok:
        return _refuse(args, report)
    gens = jsonio.generators_from_json(data["generators"], cat)
    space = coarse.metrize(gens)
    payload = jsonio.space_to_json(space)
    lines = [f"w({space.category.arrows[i]}) = {w.to_json()}" for i, w in enumerate(space.w)]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_map_space(args) -> int:
    data = _load(args, "source", "target")
    from . import mapping

    X = jsonio.space_from_json(data["source"])
    Y = jsonio.space_from_json(data["target"])
    for name, sp in (("source", X), ("target", Y)):
        rep = weights.validate_metric1(sp)
        if not rep.ok:
            return _refuse(args, rep, name)
    ms = mapping.mapping_space(X, Y, guard=args.guard)
    payload = jsonio.space_to_json(ms.space)
    payload["functors"] = [
        {"objMap": {str(k): v for k, v in f.obj_map.items()},
         "arrMap": {str(k): v for k, v in f.arr_map.items()}}
        for f in ms.functors
    ]
    lines = [
        f"continuous functors: {len(ms.functors)}",
        f"natural transformations: {len(ms.transformations)}",
    ]
    lines += [
        f"w({ms.space.category.arrows[i]}) = {w.to_json()}"
        for i, w in enumerate(ms.space.w)
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_dagger(args) -> int:
    data = _load(args)
    from . import dagger

    space = jsonio.space_from_json(data)
    report = weights.validate_metric1(space)
    if not report.ok:
        return _refuse(args, report)
    if args.verbose:
        cls, classified = dagger.classified_daggers(space, args.guard)
    else:
        cls, classified = dagger.symmetry_hierarchy(space, args.guard), None
    payload = {"class": str(cls)}
    lines = [f"symmetry class: {cls}"]
    if classified is not None:
        payload["daggers"] = [list(d.mapping) for d, _ in classified]
        for i, (d, d_cls) in enumerate(classified):
            lines.append(f"dagger {i}: {list(d.mapping)} ({d_cls})")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_continuity(args) -> int:
    data = _load(args, "source", "target", "functor")
    from . import continuity

    X = _well_formed(jsonio.space_from_json(data["source"]), "source")
    Y = _well_formed(jsonio.space_from_json(data["target"]), "target")
    fun = jsonio.functor_from_json(data["functor"], X.category, Y.category)
    rep = validate_functor(fun)
    if not rep.ok:
        return _refuse(args, rep)
    # backward verdicts are forward ones of the opposite functor and spaces
    op_fun, op_X, op_Y = opposite_functor(fun), weights.opposite_space(X), weights.opposite_space(Y)
    verdicts = {"uniform": continuity.uniformly_continuous(fun, X, Y).holds}
    for o in range(len(X.category.objects)):
        verdicts[f"forward-at-object-{o}"] = continuity.object_continuity(
            fun, X, Y, o, continuity.FORWARD
        ).holds
        verdicts[f"backward-at-object-{o}"] = continuity.object_continuity(
            op_fun, op_X, op_Y, o, continuity.FORWARD
        ).holds
    for a in range(len(X.category.arrows)):
        verdicts[f"forward-at-arrow-{a}"] = continuity.forward_continuous_at_arrow(
            fun, X, Y, a
        ).holds
        verdicts[f"backward-at-arrow-{a}"] = continuity.forward_continuous_at_arrow(
            op_fun, op_X, op_Y, a
        ).holds
    all_hold = all(verdicts.values())
    _emit(
        args,
        {"verdicts": verdicts, "ok": all_hold},
        [f"{k}: {'holds' if v else 'fails'}" for k, v in verdicts.items()],
    )
    return EXIT_OK if all_hold else EXIT_INVALID


def cmd_fixed_point(args) -> int:
    data = _load(args, "space", "functor", "start")
    from . import fixedpoint

    space = _well_formed(jsonio.space_from_json(data["space"]), "space")
    fun = jsonio.functor_from_json(data["functor"], space.category, space.category)
    direction = jsonio.direction_from_json(data)
    start = jsonio.parse_index(data["start"], "'start'")
    _require_below(start, len(space.category.objects), "start object")
    idx = jsonio.parse_index(data.get("contraction", 0), "'contraction'")
    rep = validate_functor(fun)
    if not rep.ok:
        return _refuse(args, rep)
    contractions = fixedpoint.find_natural_contractions(space, fun, direction, args.guard)
    if idx >= len(contractions):
        message = f"no natural contraction with index {idx} ({len(contractions)} found)"
        _emit(args, {"error": message}, [message])
        return EXIT_INVALID
    try:
        outcome = fixedpoint.banach_iterate(space, fun, contractions[idx], start)
    except PreconditionError as exc:
        _emit(args, {"error": str(exc)}, [str(exc)])
        return EXIT_INVALID
    arrow = space.category.arrows[outcome.fixed.arrow]
    payload = {
        "fixedObject": outcome.fixed.fixed_object,
        "arrow": outcome.fixed.arrow,
        "weight": space.w[outcome.fixed.arrow].to_json(),
        "steps": outcome.steps_to_fixed,
    }
    lines = [
        f"fixed object: {space.category.objects[outcome.fixed.fixed_object]}",
        f"alpha-fixed arrow: {arrow} (weight {space.w[outcome.fixed.arrow].to_json()})",
        f"steps to fixed object: {outcome.steps_to_fixed}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_limits(args) -> int:
    data = _load(args, "space")
    from . import limits

    space = _well_formed(jsonio.space_from_json(data["space"]), "space")
    if jsonio.direction_from_json(data) == weights.BACKWARD:
        # backward data is forward data of the opposite space (same arrow ids)
        space = weights.opposite_space(space)
    results: dict[str, dict] = {}
    if "sequence" in data:
        desc = _arrows_of(space, jsonio.description_from_json(data["sequence"]), "sequence")
        if "cone" not in data:
            raise InputFormatError("sequence checks need a 'cone'")
        cone = _cone_in(space, jsonio.cone_from_json(data["cone"]))
        base = jsonio.parse_index(data.get("base", 0), "'base'")
        _require_below(base, len(space.category.objects), "base object")
        cert = limits.check_forward_limiting_cone(space, limits.ForwardSequence(base, desc), cone)
        results["sequence"] = _cert_json(cert)
    elif "series" in data:
        desc = _arrows_of(space, jsonio.description_from_json(data["series"]), "series")
        series = limits.ForwardSeries(desc)
        results["cauchy"] = _cert_json(limits.check_cauchy(space, series))
        if "cone" in data:
            cone = _cone_in(space, jsonio.cone_from_json(data["cone"]))
            results["limit"] = _cert_json(limits.check_series_limit(space, series, cone))
    else:
        raise InputFormatError("limits input needs 'sequence' or 'series'")
    ok = all(r["verdict"] != limits.EXACT_NO for r in results.values())
    lines = [f"{k}: {r['verdict']}" + (f" ({r['detail']})" if r["detail"] else "") for k, r in results.items()]
    _emit(args, {"results": results, "ok": ok}, lines)
    return EXIT_OK if ok else EXIT_INVALID


def _require_below(index: int, count: int, what: str) -> None:
    if index >= count:
        raise InputFormatError(f"{what} {index} is out of range: the space has {count}")


def _arrows_of(space, desc, what: str):
    """The description, once every arrow id in it names an arrow of the space."""
    ids = desc.preperiod + desc.period if desc.is_exact else desc.entries
    for aid in ids:
        _require_below(aid, len(space.category.arrows), f"{what} arrow id")
    return desc


def _cone_in(space, cone):
    _require_below(cone.apex, len(space.category.objects), "cone apex")
    _arrows_of(space, cone.legs, "cone leg")
    return cone


def _cert_json(cert) -> dict:
    return {
        "verdict": cert.verdict,
        "limitingArrow": cert.limiting_arrow,
        "witnessIndex": cert.witness_index,
        "detail": cert.detail,
    }


def cmd_gh(args) -> int:
    data = _load(args, "x", "y")
    from . import geometry

    x = jsonio.metric_space_from_json(data["x"])
    y = jsonio.metric_space_from_json(data["y"])
    value = geometry.gh_distance(x, y)
    _emit(args, {"ghDistance": str(value)}, [f"Gromov-Hausdorff distance: {value}"])
    return EXIT_OK


def cmd_lipschitz(args) -> int:
    data = _load(args, "x", "y")
    from . import geometry

    x = jsonio.metric_space_from_json(data["x"])
    y = jsonio.metric_space_from_json(data["y"])
    c = geometry.lipschitz_distance(x, y)
    _emit(
        args,
        {"bilipConstant": str(c), "logDistance": geometry.log_weight(c)},
        [f"Lipschitz distance: C = {c} (ln C = {geometry.log_weight(c)})"],
    )
    return EXIT_OK


def cmd_demo(args) -> int:
    if args.what != "bimetric":
        raise InputFormatError(f"unknown demo {args.what!r}")
    if args.input:
        data = _load(args, "n", "a1", "a2", "h")
        n = jsonio.parse_index(data["n"], "'n'")
        a1 = jsonio.pair_table_from_json(data["a1"], "'a1'")
        a2 = jsonio.pair_table_from_json(data["a2"], "'a2'")
        h = jsonio.parse_fraction(data["h"])
    else:
        import random
        from fractions import Fraction

        rng = random.Random(args.seed)
        n = 2
        base = Fraction(rng.randint(1, 6))
        delta = Fraction(rng.randint(0, 4))
        a1 = {(x, y): base for x in range(n) for y in range(n) if x != y}
        a2 = {(x, y): base + delta for x in range(n) for y in range(n) if x != y}
        h = delta + Fraction(rng.randint(0, 2))
    from . import geometry

    space, report = geometry.try_bimetric_space(n, a1, a2, h)
    if space is None:
        lines = ["bi-metric constraints violated:"] + report.all_messages()
        _emit(args, {"ok": False, "violations": report.all_messages()}, lines)
        return EXIT_INVALID
    payload = jsonio.space_to_json(space)
    payload["ok"] = True
    lines = ["bi-metric space constructed:"]
    lines += [f"w({space.category.arrows[i]}) = {w.to_json()}" for i, w in enumerate(space.w)]
    _emit(args, payload, lines)
    return EXIT_OK


_FLAG_DEFAULTS = {
    "format": "text",
    "seed": 0,
    "guard": None,  # the library's errors.DEFAULT_BUDGET
    "verbose": False,
}


def _common_flags() -> argparse.ArgumentParser:
    # flags are accepted both before and after the subcommand; SUPPRESS keeps
    # a later parser from clobbering a value the earlier one already set
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("text", "json"))
    common.add_argument("--seed", type=int, help="seed for randomized demos")
    common.add_argument("--guard-functors", "--guard-daggers", dest="guard", type=int, metavar="N",
                        help="work budget of map-space, dagger and fixed-point")
    common.add_argument("-v", "--verbose", action="store_true")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="metricat",
        description="Weighted finite categories: validation, metrization, limits, "
        "mapping spaces, daggers, fixed points, and metric geometry.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, fn, needs_input=True):
        p = sub.add_parser(name, parents=[common])
        if needs_input:
            p.add_argument("input", help="JSON input path, or - for stdin")
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate)
    add("lawvere", cmd_lawvere)
    add("metrize", cmd_metrize)
    add("map-space", cmd_map_space)
    add("dagger", cmd_dagger)
    add("continuity", cmd_continuity)
    add("fixed-point", cmd_fixed_point)
    add("limits", cmd_limits)
    add("gh", cmd_gh)
    add("lipschitz", cmd_lipschitz)
    demo = sub.add_parser("demo", parents=[common])
    demo.add_argument("what", choices=("bimetric",))
    demo.add_argument("input", nargs="?", default=None, help="optional JSON parameters")
    demo.set_defaults(fn=cmd_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, value in _FLAG_DEFAULTS.items():
        if not hasattr(args, name):
            setattr(args, name, value)
    if args.guard is not None and args.guard < 0:
        parser.error("argument --guard-functors/--guard-daggers: "
                     f"a work budget is non-negative, not {args.guard}")
    try:
        return args.fn(args)
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except PreconditionError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # a bug: exit 1 keeps meaning "property fails"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
