"""The JSON boundary: index and weight parsing, and category documents read
straight into their rows and side record, with the reports pinned."""
import copy
import json
import pickle
import random
from fractions import Fraction

import pytest

from metricat import jsonio, validate_category
from metricat.cli import main
from metricat.coarse import bounded_generators, coarse_roundtrip_check, metrize
from metricat.dagger import SymmetryClass, symmetry_hierarchy
from metricat.errors import InputFormatError
from metricat.fincat import identity_transformation, is_groupoid, opposite, vertical_compose
from metricat.mapping import mapping_space
from metricat.weight import Weight
from metricat.weights import from_metric_space, lawvere, opposite_space, validate_metric1

import support


@pytest.mark.parametrize("value, shown", [
    ("x", '"x"'), (-1, "-1"), (1.5, "1.5"), (True, "true"), ("1e3", '"1e3"'),
])
def test_parse_index_names_the_rejected_value(value, shown):
    with pytest.raises(InputFormatError) as exc:
        jsonio.parse_index(value, "weights key")
    assert str(exc.value) == f"weights key must be a non-negative integer, not {shown}"


def test_parse_index_accepts_integers_and_digit_strings():
    assert [jsonio.parse_index(v, "id") for v in (0, 7, "7", "007")] == [0, 7, 7, 7]


@pytest.mark.parametrize("data, value", [
    ("3/2", Fraction(3, 2)), (" INF ", None), ("1.5", Fraction(3, 2)), ("-0", Fraction(0)),
    (1e400, None), (Fraction(6, 4), Fraction(3, 2)), (3, Fraction(3)),
    # digit strings are read through int, every other string through
    # Fraction(str); both give what Fraction(str) gives
    ("007", Fraction(7)), ("0/5", Fraction(0)), (" 3/2 ", Fraction(3, 2)), ("+1", Fraction(1)),
    ("\u0663", Fraction(3)),  # an Arabic-Indic three
])
def test_weight_parse_values(data, value):
    w = Weight.parse(data)
    if value is None:
        assert w.is_infinite
    else:
        assert type(w.finite) is Fraction and w.finite == value


@pytest.mark.parametrize("text", [
    "007", "0/5", " 3/2 ", "+1", "\u0663", "1/-2", "\u00b2", "-1", "1/0", "1.5",
])
def test_parse_fraction_agrees_with_fraction_of_the_string(text):
    # digit strings are read through int; the value, or the refusal, is
    # that of Fraction(str) either way
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(InputFormatError) as exc:
            jsonio.parse_fraction(text)
        assert str(exc.value) == f"not a rational value: {text!r}"
    else:
        value = jsonio.parse_fraction(text)
        assert type(value) is Fraction and value == expected


@pytest.mark.parametrize("data", [float("inf"), float("-inf"), float("nan"), True, None, [1]])
def test_parse_fraction_refuses_what_is_not_a_rational_value(data):
    with pytest.raises(InputFormatError) as exc:
        jsonio.parse_fraction(data)
    assert str(exc.value) == f"not a rational value: {data!r}"


@pytest.mark.parametrize("data, error, message", [
    ("-1", ValueError, "weights must be non-negative, got -1"),
    ("1/0", ZeroDivisionError, "Fraction(1, 0)"),
    ("1/-2", ValueError, "Invalid literal for Fraction: '1/-2'"),
    ("\u00b2", ValueError, "Invalid literal for Fraction: '\u00b2'"),  # a superscript two
    (True, ValueError, "not a weight: True"),
])
def test_weight_parse_errors(data, error, message):
    with pytest.raises(error) as exc:
        Weight.parse(data)
    assert str(exc.value) == message


# --- category documents: the rows, the side record and their reports ------------

def chain_document() -> dict:
    """Objects 0 -> 1 -> 2: identities 0-2, [0,1) = 3, [0,2) = 4, [1,2) = 5."""
    return jsonio.category_to_json(support.chain_space([1, 1]).category)


def defective_documents() -> dict[str, dict]:
    docs = {}
    doc = chain_document()
    doc["compose"].append([3, 3, 3])  # cod [0,1) != dom [0,1)
    docs["stray entry"] = doc
    doc = chain_document()
    doc["compose"] = [[7, 0, 0]] + [[f, g, 9 if (f, g) == (3, 5) else h]
                                    for f, g, h in doc["compose"]]
    docs["dangling ids"] = doc
    doc = chain_document()
    doc["compose"] = [[f, g, 9 if (f, g) == (3, 5) else h] for f, g, h in doc["compose"]]
    docs["dangling composite"] = doc
    doc = chain_document()
    doc["compose"] = [e for e in doc["compose"] if e[:2] != [3, 5]]
    docs["missing pair"] = doc
    doc = chain_document()
    doc["compose"].insert(0, [5, 3, 3])  # a stray entry before a missing pair
    doc["compose"] = [e for e in doc["compose"] if e[:2] != [0, 4]]
    docs["stray and missing"] = doc
    return docs


# What each defective document reported when a table with a dangling id was
# still read into a tuple-keyed dict: its structural errors (also the fatal
# findings of `validate_category`) and its violations.
PINNED = {
    "stray entry": (
        [], ["composition table defined on non-composable pair ([0,1):0->1, [0,1):0->1)"]),
    "dangling ids": (
        ["composition entry (7,0)->0 has dangling arrow id 7",
         "composition entry (3,5)->9 has dangling arrow id 9"], []),
    "dangling composite": (["composition entry (3,5)->9 has dangling arrow id 9"], []),
    "missing pair": (
        [], ["composable pair ([0,1):0->1, [1,2):1->2) missing from composition table"]),
    "stray and missing": (
        [], ["composable pair (id0:0->0, [0,2):0->2) missing from composition table",
             "composition table defined on non-composable pair ([1,2):1->2, [0,1):0->1)"]),
}

COPIES = {
    "parsed": lambda cat: cat,
    "deepcopy": copy.deepcopy,
    "pickled": lambda cat: pickle.loads(pickle.dumps(cat)),
    "opposite twice": lambda cat: opposite(opposite(cat)),
}


@pytest.mark.parametrize("name", list(defective_documents()))
def test_a_defective_document_reports_as_the_dict_built_category(name, tmp_path, capsys):
    doc = defective_documents()[name]
    parsed = jsonio.category_from_json(doc)
    fatal, violations = PINNED[name]
    for copied, how in COPIES.items():
        cat = how(parsed)
        assert cat == parsed, copied
        assert cat.structural_errors() == fatal, copied
        report = validate_category(cat)
        assert (report.fatal, report.violations) == (fatal, violations), copied
        # `compose` answers from the rows alone: a pair that does not
        # compose, a hole, and an entry in the side record are each a
        # KeyError, never None
        for f in range(len(cat.arrows)):
            for g in range(len(cat.arrows)):
                h = cat.after[f].get(g)
                if h is None:
                    with pytest.raises(KeyError):
                        cat.compose(f, g)
                else:
                    assert cat.compose(f, g) == h, copied
        for f, g in [*cat.side, (-1, 0), (len(cat.arrows), 0)]:
            with pytest.raises(KeyError):
                cat.compose(f, g)
    p = tmp_path / "cat.json"
    p.write_text(json.dumps(doc))
    assert main(["--format", "json", "validate", str(p)]) == 1
    out, _ = capsys.readouterr()
    assert json.loads(out) == {"category": fatal + violations, "ok": False}


def test_dangling_ids_keep_their_table_order():
    fatal = validate_category(jsonio.category_from_json(defective_documents()["dangling ids"])).fatal
    assert fatal == ["composition entry (7,0)->0 has dangling arrow id 7",
                     "composition entry (3,5)->9 has dangling arrow id 9"]


def test_a_repeated_pair_is_refused_with_both_entries():
    # test_cli.py::test_repeated_compose_pair_is_exit_two holds the exit code;
    # a repeat is found whether each entry goes to a row or to the side record
    for first, second in [([3, 5, 4], [3, 5, 3]), ([3, 5, 9], [3, 5, 4]),
                          ([3, 5, 4], [3, 5, 9]), ([3, 3, 3], [3, 3, 0])]:
        doc = chain_document()
        doc["compose"] = [e for e in doc["compose"] if e[:2] != first[:2]] + [first, second]
        with pytest.raises(InputFormatError) as exc:
            jsonio.category_from_json(doc)
        assert str(exc.value) == (f"malformed category tables: category 'compose' pair "
                                  f"({first[0]}, {first[1]}) appears twice: {first} and {second}")


def assert_rows_hold(cat, compose: list) -> None:
    """The rows hold exactly the entries of a 'compose' list, and the side
    record holds none."""
    assert all(cat.after[f][g] == h for f, g, h in compose)
    assert sum(h is not None for row in cat.after for h in row.values()) == len(compose)
    assert cat.side == {}


def test_the_kernel_path_never_derives_the_pair_keyed_table():
    doc = jsonio.space_to_json(support.chain_space([1, 2, 3]))
    space = jsonio.space_from_json(doc)
    cat = space.category
    assert_rows_hold(cat, doc["category"]["compose"])
    assert validate_category(cat).ok and validate_metric1(space).ok
    lawvere(space)
    metrize(bounded_generators(space))
    assert coarse_roundtrip_check(space)
    assert "composition" not in vars(cat)
    assert sorted((f, g, h) for (f, g), h in cat.composition.items()) == sorted(
        map(tuple, doc["category"]["compose"]))


def reparsed(space):
    return jsonio.space_from_json(json.loads(json.dumps(jsonio.space_to_json(space))))


def test_the_enumerate_path_never_derives_the_pair_keyed_table():
    rng = random.Random(5)
    X = reparsed(from_metric_space(support.rand_metric(rng, 2)))
    Y = reparsed(from_metric_space(support.rand_metric(rng, 3)))
    ms = mapping_space(X, Y)
    XY = ms.space
    assert validate_category(XY.category).ok and validate_metric1(XY).ok
    monoid = reparsed(support.max_monoid_space(4))
    assert symmetry_hierarchy(monoid) is SymmetryClass.ISO
    # [X, Y] of indiscrete categories is indiscrete, so both are groupoids
    assert is_groupoid(XY.category) is not None and is_groupoid(Y.category) is not None
    t = ms.transformations[-1]
    assert vertical_compose(t, identity_transformation(t.G)).components == t.components
    op = opposite_space(Y)
    assert validate_category(op.category).ok and validate_metric1(op).ok
    again = jsonio.category_from_json(jsonio.category_to_json(XY.category))
    assert again == XY.category
    for cat in (X.category, Y.category, XY.category, monoid.category, op.category, again):
        assert "composition" not in vars(cat)
