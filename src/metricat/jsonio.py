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
which has the space.
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
from .weight import Weight
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
    try:
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, bool):
            raise ValueError
        if isinstance(value, (int, float)):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise InputFormatError(f"not a rational value: {value!r}")


def parse_index(value, what: str) -> int:
    """A non-negative integer: a JSON integer or a string of decimal digits."""
    if isinstance(value, str) and value.isdecimal():
        value = int(value)
    _require(type(value) is int and value >= 0, f"{what} must be a non-negative integer, not {json.dumps(value)}")
    return value


def _id(value, what: str) -> int:
    """`parse_index`, with the common case of a JSON integer checked inline."""
    return value if type(value) is int and value >= 0 else parse_index(value, what)


def _index_table(data, what: str) -> dict[int, int]:
    """A JSON object mapping indices to indices."""
    return {parse_index(k, f"{what} key"): _id(v, f"{what} value") for k, v in json_object(data, what).items()}


def pair_table_from_json(data, what: str) -> dict[tuple[int, int], Fraction]:
    """A table of rationals keyed by index pairs written "x,y"."""
    table = {}
    for key, value in json_object(data, what).items():
        parts = key.split(",")
        _require(len(parts) == 2, f"{what} key {key!r} is not an index pair 'x,y'")
        pair = tuple(parse_index(part.strip(), f"{what} key {key!r}") for part in parts)
        table[pair] = parse_fraction(value)
    return table


def direction_from_json(data: dict) -> str:
    direction = data.get("direction", FORWARD)
    _require(direction in (FORWARD, BACKWARD), f"unknown direction {direction!r}")
    return direction


def category_from_json(data) -> FiniteCategory:
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
        compose = {  # n³ entries for n objects, so `_id` is spelled out inline
            (f if type(f) is int and f >= 0 else parse_index(f, "compose entry"),
             g if type(g) is int and g >= 0 else parse_index(g, "compose entry")):
                h if type(h) is int and h >= 0 else parse_index(h, "compose entry")
            for f, g, h in _list(data["compose"], "category 'compose'")
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed category tables: {exc}") from exc
    return FiniteCategory(objects, arrows, identities, compose)


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
        "compose": [[f, g, h] for (f, g), h in sorted(cat.composition.items())],
    }


def space_from_json(data) -> Metric1Space:
    """A weighted category.  Its composition table must cover every
    composable pair, because every weight check reads the composite."""
    json_object(data, "weighted category", ("category", "weights"))
    cat = category_from_json(data["category"])
    for f in cat.arrows:
        for g in cat.arrows_from(f.cod):
            if (f.id, g) not in cat.composition:
                raise InputFormatError(
                    f"composition table has no entry for the composable pair ({f.id}, {g})"
                )
    try:
        weights = {
            parse_index(k, "weights key"): Weight.parse(v)
            for k, v in json_object(data["weights"], "'weights'").items()
        }
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"malformed weights: {exc}") from exc
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
    json_object(data, "metric space", ("points", "d"))
    points = [str(p) for p in _list(data["points"], "metric space 'points'")]
    matrix = [
        [parse_fraction(v) for v in _list(row, "a row of 'd'")]
        for row in _list(data["d"], "metric space 'd'")
    ]
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
