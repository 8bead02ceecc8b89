"""JSON schemas shared by the command-line front end.

Category format:
    {"objects": [{"id": 0, "label": "x"}, ...],
     "arrows":  [{"id": 0, "dom": 0, "cod": 0, "label": "id_x"}, ...],
     "identities": {"0": 0},
     "compose": [[first, second, result], ...]}

A weighted category wraps that as {"category": ..., "weights": {"0": "3/2"}}.
Weights accept integers, decimals, rational strings like "3/2", and "inf".
Metric spaces: {"points": ["p", "q"], "d": [[0, "3/2"], ["3/2", 0]]}.
Sequences and series: {"preperiod": [ids], "period": [ids]} with a
non-empty period, or non-empty bounded {"entries": [ids]}; cones add
{"apex": obj, "startIndex": m, "legs": {...}}.  Ids and indices are
non-negative JSON integers or strings of decimal digits (`parse_index`);
whether they name arrows or objects of a space is checked by the caller,
which has the space.  A table naming one pair or index twice (`[1,1,0]`
and `[1,1,1]` in 'compose', or keys "1" and "01") is rejected rather than
read last-one-wins.  A key written twice in one JSON object never reaches
these parsers as two entries: the CLI refuses it while parsing the text.
Rationals are emitted as strings to keep round trips exact.
The parsers of sequences, cones and generators import `limits` and `coarse`
themselves, so a CLI run loads those modules only when it reads such data.
"""
from __future__ import annotations

import json
from fractions import Fraction

from .errors import InputFormatError
from .fincat import Arrow, FiniteCategory, Functor, Obj
from .metricspace import FiniteMetricSpace
from .weight import Weight, digit_fraction
from .weights import BACKWARD, FORWARD, Metric1Space


def _require(cond: bool, msg: str):
    if not cond:
        raise InputFormatError(msg)


def _list(value, what: str) -> list:
    _require(isinstance(value, list), f"{what} must be a JSON list")
    return value


def _label(entry: dict, what: str) -> str | None:
    label = entry.get("label")
    _require(label is None or isinstance(label, str), f"{what} label must be a string")
    return label


def json_object(data, what: str, keys=()) -> dict:
    """The document itself, once it is a JSON object holding every key."""
    _require(isinstance(data, dict), f"{what} must be a JSON object")
    missing = [key for key in keys if key not in data]
    if missing:
        raise InputFormatError(f"{what} needs {', '.join(map(repr, missing))}")
    return data


def parse_fraction(value) -> Fraction:
    """A JSON number, or a string read as ``Fraction(str)`` reads it (a
    digit string through `weight.digit_fraction`).  A float infinity (JSON
    `Infinity`, or a literal such as `1e400` that overflows) and NaN are
    not rational values."""
    try:
        if isinstance(value, str):
            parsed = digit_fraction(value)
            return Fraction(value) if parsed is None else parsed
        if isinstance(value, bool):
            raise ValueError
        if isinstance(value, (int, float)):
            return Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise InputFormatError(f"not a rational value: {value!r}")


def parse_index(value, what: str) -> int:
    """A non-negative integer: a JSON integer or a string of decimal digits."""
    if isinstance(value, str) and value.isdecimal():
        value = int(value)
    if type(value) is int and value >= 0:
        return value
    raise InputFormatError(f"{what} must be a non-negative integer, not {json.dumps(value)}")


def _id(value, what: str) -> int:
    """`parse_index`, with the common case of a JSON integer checked inline."""
    return value if type(value) is int and value >= 0 else parse_index(value, what)


def _no_repeats(parsed: dict, source, key, what: str) -> dict:
    """`parsed`, built from the entries of `source`, unless two entries gave
    one key (the last would win): then the first such key and its two
    entries are named.  `key` reads the key off an entry that parsed.  A
    size comparison finds a repeat, so a table without one pays nothing
    more."""
    if len(parsed) != len(source):
        seen = {}
        for entry in source:
            k = key(entry)
            if k in seen:
                raise InputFormatError(
                    f"{what} {k} appears twice: {json.dumps(seen[k])} and {json.dumps(entry)}"
                )
            seen[k] = entry
    return parsed


def _once_per_string(parse):
    """`parse`, run once per distinct string value of one document; its
    values must be immutable, since every entry with that string gets the
    same one.  Only strings share a parse: JSON `true` equals 1 as a key,
    but is not a number.  A value that fails to parse is not kept, so
    every entry that repeats it raises the same error."""
    parsed = {}

    def read(value):
        if type(value) is not str:
            return parse(value)
        known = parsed.get(value)
        if known is None:
            known = parsed[value] = parse(value)
        return known

    return read


def _index_table(data, what: str) -> dict[int, int]:
    """A JSON object mapping indices to indices."""
    json_object(data, what)
    table = {parse_index(k, f"{what} key"): _id(v, f"{what} value") for k, v in data.items()}
    return _no_repeats(table, data, int, f"{what} key")


def pair_table_from_json(data, what: str) -> dict[tuple[int, int], Fraction]:
    """A table of rationals keyed by index pairs written "x,y"."""
    table = {}
    for key, value in json_object(data, what).items():
        parts = key.split(",")
        _require(len(parts) == 2, f"{what} key {key!r} is not an index pair 'x,y'")
        pair = tuple(parse_index(part.strip(), f"{what} key {key!r}") for part in parts)
        table[pair] = parse_fraction(value)
    return _no_repeats(table, data, lambda k: tuple(map(int, k.split(","))), f"{what} pair")


def direction_from_json(data: dict) -> str:
    direction = data.get("direction", FORWARD)
    _require(direction in (FORWARD, BACKWARD), f"unknown direction {direction!r}")
    return direction


def category_from_json(data) -> FiniteCategory:
    """A category, its 'compose' entries read straight into its rows and
    side record by `FiniteCategory.from_triples`, in one pass.  When that
    refuses an id that is not a JSON integer, or a pair named twice, every
    entry is parsed first, so that the first bad id or the first repeat is
    named, and ids written as digit strings are read."""
    json_object(data, "category", ("objects", "arrows", "identities", "compose"))
    try:
        objects = tuple(
            Obj(_id(o["id"], "object id"), _label(o, "object"))
            for o in _list(data["objects"], "category 'objects'")
        )
        arrows = tuple(
            Arrow(_id(a["id"], "arrow id"), _id(a["dom"], "arrow 'dom'"), _id(a["cod"], "arrow 'cod'"),
                  _label(a, "arrow"))
            for a in _list(data["arrows"], "category 'arrows'")
        )
        identities = _index_table(data["identities"], "category 'identities'")
        entries = _list(data["compose"], "category 'compose'")
        try:
            return FiniteCategory.from_triples(objects, arrows, identities, entries)
        except ValueError:
            triples = [(_id(f, "compose entry"), _id(g, "compose entry"), _id(h, "compose entry"))
                       for f, g, h in entries]
            _no_repeats({(f, g) for f, g, _ in triples}, entries,
                        lambda e: (int(e[0]), int(e[1])), "category 'compose' pair")
            return FiniteCategory.from_triples(objects, arrows, identities, triples)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed category tables: {exc}") from exc


def category_to_json(cat: FiniteCategory) -> dict:
    return {
        "objects": [
            {"id": o.index, **({"label": o.label} if o.label is not None else {})}
            for o in cat.objects
        ],
        "arrows": [
            {
                "id": a.id,
                "dom": a.dom,
                "cod": a.cod,
                **({"label": a.label} if a.label is not None else {}),
            }
            for a in cat.arrows
        ],
        "identities": {str(k): v for k, v in sorted(cat.identity.items())},
        "compose": sorted([[f, g, h] for f, row in enumerate(cat.after)
                           for g, h in row.items() if h is not None]
                          + [[f, g, h] for (f, g), h in cat.side.items()]),
    }


def space_from_json(data) -> Metric1Space:
    """A weighted category.  Its composition table must cover every
    composable pair, because every weight check reads the composite; a
    category with structural errors is left to the validators, which
    report those first."""
    json_object(data, "weighted category", ("category", "weights"))
    cat = category_from_json(data["category"])
    if not cat.structural_errors():
        for f, row in zip(cat.arrows, cat.after):
            if None in row.values():
                g = next(g for g, h in row.items() if h is None)
                raise InputFormatError(
                    f"composition table has no entry for the composable pair ({f.id}, {g})"
                )
    table = json_object(data["weights"], "'weights'")
    read = _once_per_string(Weight.parse)  # a Weight is immutable, so arrows share one
    try:
        weights = {parse_index(k, "weights key"): read(v) for k, v in table.items()}
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"malformed weights: {exc}") from exc
    _no_repeats(weights, table, int, "'weights' key")
    try:
        return Metric1Space.from_weights(cat, weights)
    except Exception as exc:
        raise InputFormatError(str(exc)) from exc


def space_to_json(space: Metric1Space) -> dict:
    return {
        "category": category_to_json(space.category),
        "weights": {str(i): w.to_json() for i, w in enumerate(space.w)},
    }


def metric_space_from_json(data) -> FiniteMetricSpace:
    """A metric space; each distinct distance string is parsed once (a
    symmetric matrix writes every value twice)."""
    json_object(data, "metric space", ("points", "d"))
    points = [str(p) for p in _list(data["points"], "metric space 'points'")]
    read = _once_per_string(parse_fraction)
    matrix = [[*map(read, _list(row, "a row of 'd'"))] for row in _list(data["d"], "metric space 'd'")]
    try:
        return FiniteMetricSpace.from_matrix(points, matrix)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def metric_space_to_json(space: FiniteMetricSpace) -> dict:
    return {
        "points": list(space.points),
        "d": [[str(v) for v in row] for row in space.d],
    }


def functor_from_json(data, source: FiniteCategory, target: FiniteCategory) -> Functor:
    json_object(data, "functor", ("objMap", "arrMap"))
    return Functor(
        source, target, _index_table(data["objMap"], "'objMap'"), _index_table(data["arrMap"], "'arrMap'")
    )


def _arrow_ids(data, key: str) -> tuple[int, ...]:
    _require(isinstance(data, list), f"{key!r} must be a list of arrow ids")
    return tuple(parse_index(v, f"arrow id in {key!r}") for v in data)


def description_from_json(data):
    from .limits import BoundedDescription, EventuallyPeriodic

    json_object(data, "sequence description")
    if "entries" in data:
        entries = _arrow_ids(data["entries"], "entries")
        _require(bool(entries), "'entries' must not be empty")
        return BoundedDescription(entries)
    _require("period" in data, "description needs 'period' (or bounded 'entries')")
    period = _arrow_ids(data["period"], "period")
    _require(bool(period), "'period' must not be empty")
    return EventuallyPeriodic(_arrow_ids(data.get("preperiod", []), "preperiod"), period)


def cone_from_json(data) -> EssentialCone:
    from .limits import EssentialCone

    json_object(data, "cone", ("apex", "legs"))
    return EssentialCone(
        parse_index(data.get("startIndex", 0), "'startIndex'"),
        parse_index(data["apex"], "cone 'apex'"),
        description_from_json(data["legs"]),
    )


def generators_from_json(data, cat: FiniteCategory) -> CoarseGenerators:
    from .coarse import CoarseGenerators

    json_object(data, "generators", ("list",))
    sets = []
    for s in _list(data["list"], "generators 'list'"):
        _require(isinstance(s, list), f"generator {s!r} must be a JSON list of arrow ids")
        sets.append(frozenset(parse_index(a, "generator arrow id") for a in s))
    constant_from = data.get("constantFrom")
    if constant_from is not None:
        constant_from = parse_index(constant_from, "constantFrom")
    return CoarseGenerators.normalized(cat, sets, constant_from)


def dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
