"""The JSON boundary: index and weight parsing, and a category document read
straight into its rows against the same table read into a dict."""
import json
from fractions import Fraction

import pytest

from metricat import jsonio, validate_category
from metricat.cli import main
from metricat.coarse import bounded_generators, coarse_roundtrip_check, metrize
from metricat.errors import InputFormatError
from metricat.fincat import FiniteCategory
from metricat.weight import Weight
from metricat.weights import lawvere, validate_metric1

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
])
def test_weight_parse_values(data, value):
    w = Weight.parse(data)
    if value is None:
        assert w.is_infinite
    else:
        assert type(w.finite) is Fraction and w.finite == value


@pytest.mark.parametrize("data, error, message", [
    ("-1", ValueError, "weights must be non-negative, got -1"),
    ("1/0", ZeroDivisionError, "Fraction(1, 0)"),
    (True, ValueError, "not a weight: True"),
])
def test_weight_parse_errors(data, error, message):
    with pytest.raises(error) as exc:
        Weight.parse(data)
    assert str(exc.value) == message


# --- a category document against the dict-built category -----------------------

def chain_document() -> dict:
    """Objects 0 -> 1 -> 2: identities 0-2, [0,1) = 3, [0,2) = 4, [1,2) = 5."""
    return jsonio.category_to_json(support.chain_space([1, 1]).category)


def dict_built(doc: dict) -> FiniteCategory:
    cat = jsonio.category_from_json(dict(doc, compose=[]))  # objects, arrows, identities
    table = {(f, g): h for f, g, h in doc["compose"]}
    return FiniteCategory(cat.objects, cat.arrows, cat.identity, table)


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


@pytest.mark.parametrize("name", list(defective_documents()))
def test_a_defective_document_reports_as_the_dict_built_category(name, tmp_path, capsys):
    doc = defective_documents()[name]
    parsed, want = jsonio.category_from_json(doc), dict_built(doc)
    assert parsed.structural_errors() == want.structural_errors()
    got_report, want_report = validate_category(parsed), validate_category(want)
    assert (got_report.fatal, got_report.violations) == (want_report.fatal, want_report.violations)
    assert not got_report.ok
    assert parsed.composition == want.composition
    p = tmp_path / "cat.json"
    p.write_text(json.dumps(doc))
    assert main(["--format", "json", "validate", str(p)]) == 1
    out, _ = capsys.readouterr()
    assert json.loads(out)["category"] == want_report.all_messages()


def test_dangling_ids_keep_their_table_order():
    fatal = validate_category(jsonio.category_from_json(defective_documents()["dangling ids"])).fatal
    assert fatal == ["composition entry (7,0)->0 has dangling arrow id 7",
                     "composition entry (3,5)->9 has dangling arrow id 9"]


def test_a_repeated_pair_is_refused_with_both_entries():
    # test_cli.py::test_repeated_compose_pair_is_exit_two holds the exit code
    doc = chain_document()
    doc["compose"].append([3, 5, 3])
    with pytest.raises(InputFormatError) as exc:
        jsonio.category_from_json(doc)
    assert str(exc.value) == ("malformed category tables: category 'compose' pair (3, 5) "
                              "appears twice: [3, 5, 4] and [3, 5, 3]")


def test_the_kernel_path_never_derives_the_pair_keyed_table():
    doc = jsonio.space_to_json(support.chain_space([1, 2, 3]))
    space = jsonio.space_from_json(doc)
    cat = space.category
    assert cat.after == dict_built(doc["category"]).after
    assert validate_category(cat).ok and validate_metric1(space).ok
    lawvere(space)
    metrize(bounded_generators(space))
    assert coarse_roundtrip_check(space)
    assert "composition" not in vars(cat)
    assert cat.composition == dict_built(doc["category"]).composition
