import io
import json

import pytest

from metricat import Metric1Space, indiscrete, validate_category
from metricat import geometry, jsonio
from metricat.cli import main
from metricat.errors import TheoremViolation

import support
from test_reference_scans import cyclic_with_composite_middle, ref_validate_category


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def symmetric_fixture():
    return Metric1Space.from_weights(indiscrete(2), [0, 1, 1, 0])


def asymmetric_fixture():
    return Metric1Space.from_weights(indiscrete(2), [0, 1, 5, 0])


def test_json_round_trips():
    sp = support.one_sided_space()
    again = jsonio.space_from_json(jsonio.space_to_json(sp))
    assert again == sp
    cat = sp.category
    assert jsonio.category_from_json(jsonio.category_to_json(cat)) == cat
    ms = support.rand_metric(__import__("random").Random(2), 3)
    assert jsonio.metric_space_from_json(jsonio.metric_space_to_json(ms)) == ms


def test_weight_json_forms_accepted():
    payload = jsonio.space_to_json(symmetric_fixture())
    payload["weights"] = {"0": 0, "1": "1", "2": 1.0, "3": "0/5"}
    sp = jsonio.space_from_json(payload)
    assert sp.w[2].finite == 1


def test_validate_exit_codes(tmp_path, capsys):
    ok = write(tmp_path, "ok.json", jsonio.space_to_json(symmetric_fixture()))
    assert main(["validate", ok]) == 0
    bad = write(tmp_path, "bad.json", jsonio.space_to_json(asymmetric_fixture()))
    assert main(["validate", bad]) == 1
    out = capsys.readouterr().out
    assert "lower" in out  # names the violated bound


def test_validate_plain_category(tmp_path):
    payload = jsonio.category_to_json(indiscrete(2))
    path = write(tmp_path, "cat.json", payload)
    assert main(["validate", path]) == 0


def test_malformed_json_is_exit_two(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"category": ')
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_missing_file_is_exit_two(tmp_path):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2


def test_unreadable_documents_are_exit_two(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"x": "\xff"}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for path in (binary, deep):
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("input error:")


def test_metrize_subcommand_matches_worked_fixture(tmp_path, capsys):
    payload = {
        "category": jsonio.category_to_json(indiscrete(2)),
        "generators": {"list": [[1]], "constantFrom": 0},
    }
    path = write(tmp_path, "gen.json", payload)
    assert main(["--format", "json", "metrize", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["weights"] == {"0": "0", "1": "1", "2": "2", "3": "0"}


def test_metrize_output_reparses(tmp_path, capsys):
    payload = {
        "category": jsonio.category_to_json(indiscrete(2)),
        "generators": {"list": [[0, 1, 2, 3]], "constantFrom": 0},
    }
    path = write(tmp_path, "gen.json", payload)
    assert main(["--format", "json", "metrize", path]) == 0
    data = json.loads(capsys.readouterr().out)
    sp = jsonio.space_from_json(data)
    from metricat import validate_metric1

    assert validate_metric1(sp).ok


def test_lawvere_subcommand(tmp_path, capsys):
    path = write(tmp_path, "sp.json", jsonio.space_to_json(symmetric_fixture()))
    assert main(["--format", "json", "lawvere", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["symmetric"] is True
    assert data["d"][0][1] == "1"


def test_continuity_subcommand(tmp_path, capsys):
    sp = jsonio.space_to_json(symmetric_fixture())
    fun = {
        "objMap": {"0": 0, "1": 1},
        "arrMap": {"0": 0, "1": 1, "2": 2, "3": 3},
    }
    path = write(tmp_path, "cont.json", {"source": sp, "target": sp, "functor": fun})
    assert main(["--format", "json", "continuity", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] and all(data["verdicts"].values())


def test_dagger_subcommand(tmp_path, capsys):
    path = write(tmp_path, "sp.json", jsonio.space_to_json(symmetric_fixture()))
    assert main(["--format", "json", "dagger", "-v", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["class"] == "groupoidal"
    assert data["daggers"] == [[0, 2, 1, 3]]


def test_map_space_subcommand(tmp_path, capsys):
    z2 = jsonio.space_to_json(support.z2_space(1))
    path = write(tmp_path, "ms.json", {"source": z2, "target": z2})
    assert main(["--format", "json", "map-space", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["functors"]) == 2
    assert len(data["category"]["arrows"]) == 4


def test_fixed_point_subcommand(tmp_path, capsys):
    space, fun = support.halving_fixture()
    payload = {
        "space": jsonio.space_to_json(space),
        "functor": {
            "objMap": {str(k): v for k, v in fun.obj_map.items()},
            "arrMap": {str(k): v for k, v in fun.arr_map.items()},
        },
        "start": 2,
        "contraction": 0,
    }
    path = write(tmp_path, "fp.json", payload)
    assert main(["--format", "json", "fixed-point", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["fixedObject"] == 0
    assert data["weight"] == "1"
    assert data["steps"] == 2


def test_limits_subcommand_sequence_and_series(tmp_path, capsys):
    sp = support.line_space([0, 1])
    psi = sp.category.hom(0, 1)[0]
    payload = {
        "space": jsonio.space_to_json(sp),
        "base": 0,
        "sequence": {"preperiod": [], "period": [psi]},
        "cone": {"apex": 1, "startIndex": 0, "legs": {"period": [sp.category.identity[1]]}},
    }
    path = write(tmp_path, "lim.json", payload)
    assert main(["--format", "json", "limits", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["results"]["sequence"]["verdict"] == "exact-yes"

    z2 = support.z2_space(1)
    payload2 = {
        "space": jsonio.space_to_json(z2),
        "series": {"period": [1]},
    }
    path2 = write(tmp_path, "lim2.json", payload2)
    assert main(["limits", path2]) == 1  # not Cauchy: reported, exit 1


def test_gh_and_lipschitz_subcommands(tmp_path, capsys):
    x = jsonio.metric_space_to_json(support.rand_metric(__import__("random").Random(5), 1))
    y = {"points": ["a", "b"], "d": [[0, "5"], ["5", 0]]}
    path = write(tmp_path, "gh.json", {"x": x, "y": y})
    assert main(["--format", "json", "gh", path]) == 0
    assert json.loads(capsys.readouterr().out)["ghDistance"] == "5/2"

    u = {"points": ["a", "b"], "d": [[0, 1], [1, 0]]}
    v = {"points": ["c", "d"], "d": [[0, 3], [3, 0]]}
    path2 = write(tmp_path, "lip.json", {"x": u, "y": v})
    assert main(["--format", "json", "lipschitz", path2]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["bilipConstant"] == "3"
    assert data["logDistance"].startswith("1.0986")


def test_demo_bimetric_from_params(tmp_path, capsys):
    payload = {"n": 2, "a1": {"0,1": 1, "1,0": 1}, "a2": {"0,1": 2, "1,0": 2}, "h": 1}
    path = write(tmp_path, "bm.json", payload)
    assert main(["demo", "bimetric", path]) == 0
    bad = {"n": 2, "a1": {"0,1": 1, "1,0": 1}, "a2": {"0,1": 5, "1,0": 5}, "h": 1}
    path2 = write(tmp_path, "bm2.json", bad)
    assert main(["demo", "bimetric", path2]) == 1


def test_demo_bimetric_seeded(capsys):
    assert main(["demo", "bimetric", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["--seed", "3", "demo", "bimetric"]) == 0
    second = capsys.readouterr().out
    assert first == second  # flag position does not matter


def test_demo_bimetric_past_its_guard_is_exit_three(tmp_path, capsys):
    # 100 objects would build 4 * 100^3 = 4,000,000 composition entries
    n = 100
    pairs = [f"{x},{y}" for x in range(n) for y in range(n) if x != y]
    payload = {"n": n, "a1": dict.fromkeys(pairs, 1), "a2": dict.fromkeys(pairs, 2), "h": 1}
    path = write(tmp_path, "bm.json", payload)
    assert main(["demo", "bimetric", path]) == 3
    assert capsys.readouterr().err.startswith("size guard:")
    del payload["a2"]["5,7"]
    path2 = write(tmp_path, "bm2.json", payload)
    assert main(["demo", "bimetric", path2]) == 1
    assert "a2 missing entry for (5,7)" in capsys.readouterr().err


def test_internal_error_is_exit_four_without_a_traceback(tmp_path, capsys, monkeypatch):
    def disagree(x, y):
        raise TheoremViolation("gluing route 1 disagrees with correspondence route 2")

    monkeypatch.setattr(geometry, "gh_distance", disagree)
    x = {"points": ["a"], "d": [[0]]}
    path = write(tmp_path, "gh.json", {"x": x, "y": x})
    assert main(["gh", path]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: TheoremViolation: gluing route 1 disagrees with correspondence route 2\n"


def test_size_guard_exit_code(tmp_path):
    big = jsonio.space_to_json(
        Metric1Space.from_weights(indiscrete(3), [0 if i % 4 == 0 else 1 for i in range(9)])
    )
    path = write(tmp_path, "big.json", {"source": big, "target": big})
    assert main(["--guard-functors", "5", "map-space", path]) == 3


def test_deterministic_output(tmp_path, capsys):
    path = write(tmp_path, "sp.json", jsonio.space_to_json(support.one_sided_space()))
    assert main(["--format", "json", "lawvere", path]) == 0
    one = capsys.readouterr().out
    assert main(["--format", "json", "lawvere", path]) == 0
    assert capsys.readouterr().out == one


def test_incomplete_composition_table(tmp_path, capsys):
    # a weighted document lacking a composable pair is an input error for
    # every subcommand that reads weights; a bare category is reported
    payload = jsonio.space_to_json(symmetric_fixture())
    payload["category"]["compose"] = [
        entry for entry in payload["category"]["compose"] if entry[:2] != [2, 0]
    ]
    path = write(tmp_path, "incomplete.json", payload)
    for command in ("lawvere", "dagger", "validate"):
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "(2, 0)" in err
    bare = write(tmp_path, "bare.json", payload["category"])
    assert main(["--format", "json", "validate", bare]) == 1
    data = json.loads(capsys.readouterr().out)
    assert len(data["category"]) == 1 and "missing from composition table" in data["category"][0]


def test_validate_reports_an_associativity_failure(tmp_path, capsys):
    # endpoints and identities are right, but 1∘1 is moved from 2 to 3 in Z/5
    cat = cyclic_with_composite_middle()
    assert validate_category(cat).violations[0].startswith("associativity fails")
    path = write(tmp_path, "assoc.json", jsonio.category_to_json(cat))
    assert main(["--format", "json", "validate", path]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data == {"category": ref_validate_category(cat).violations, "ok": False}


def limits_payload(**changes):
    sp = support.line_space([0, 1])
    payload = {
        "space": jsonio.space_to_json(sp),
        "base": 0,
        "sequence": {"preperiod": [], "period": [sp.category.hom(0, 1)[0]]},
        "cone": {"apex": 1, "startIndex": 0, "legs": {"period": [sp.category.identity[1]]}},
    }
    payload.update(changes)
    return payload


def fixed_point_payload(**changes):
    space, fun = support.halving_fixture()
    payload = {
        "space": jsonio.space_to_json(space),
        "functor": {
            "objMap": {str(k): v for k, v in fun.obj_map.items()},
            "arrMap": {str(k): v for k, v in fun.arr_map.items()},
        },
        "start": 2,
        "contraction": 0,
    }
    payload.update(changes)
    return payload


def series_only(series):
    payload = limits_payload(series=series)
    for key in ("base", "sequence", "cone"):
        del payload[key]
    return payload


@pytest.mark.parametrize("series, legs, verdict", [
    ({"preperiod": [1], "period": [3]}, {"preperiod": [1], "period": [3]}, "exact-yes"),
    ({"entries": [1, 3, 3]}, {"entries": [1, 3, 3]}, "verified-to-horizon"),
])
def test_limits_series_with_a_cone(tmp_path, capsys, series, legs, verdict):
    # on the line 0 -- 1: the arrow 0 -> 1 (id 1), then the identity of 1
    # (id 3) forever; the legs into 1 are that arrow, then the identity
    payload = dict(series_only(series), cone={"apex": 1, "legs": legs})
    path = write(tmp_path, "series.json", payload)
    assert main(["--format", "json", "limits", path]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["cauchy"]["verdict"] == verdict
    assert results["limit"]["verdict"] == verdict
    assert results["limit"]["limitingArrow"] == 1


BAD_INPUTS = {
    "limits empty period": ("limits", series_only({"period": []})),
    "limits arrow id out of range": ("limits", limits_payload(sequence={"period": [99]})),
    "limits non-integer id": ("limits", series_only({"period": ["x"]})),
    "limits non-integer base": ("limits", limits_payload(base="zero")),
    "limits empty bounded cone legs": (
        "limits", dict(series_only({"entries": [0]}), cone={"apex": 0, "legs": {"entries": []}}),
    ),
    "limits negative startIndex": (
        "limits", limits_payload(cone={"apex": 1, "startIndex": -3, "legs": {"period": [3]}}),
    ),
    "limits unknown direction": ("limits", limits_payload(direction="sideways")),
    "fixed-point non-integer start": ("fixed-point", fixed_point_payload(start=1.5)),
    "fixed-point non-integer contraction": ("fixed-point", fixed_point_payload(contraction="first")),
    "fixed-point start out of range": ("fixed-point", fixed_point_payload(start=5)),
    "fixed-point unknown direction": ("fixed-point", fixed_point_payload(direction="sideways")),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_malformed_limits_and_fixed_point_inputs_are_exit_two(tmp_path, capsys, case):
    command, payload = BAD_INPUTS[case]
    path = write(tmp_path, "bad.json", payload)
    assert main([command, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


def test_limits_non_composable_bounded_series_is_a_precondition(tmp_path, capsys):
    sp = support.line_space([0, 1])
    there = sp.category.hom(0, 1)[0]
    path = write(tmp_path, "bounded.json", series_only({"entries": [there, there]}))
    assert main(["limits", path]) == 1
    assert capsys.readouterr().err.startswith("precondition:")


def test_limits_backward_direction_runs_in_the_opposite_space(tmp_path, capsys):
    # a backward sequence into the base point 0, certified by an identity leg
    sp = support.line_space([0, 1])
    payload = limits_payload(
        direction="backward",
        sequence={"period": [sp.category.hom(1, 0)[0]]},
    )
    path = write(tmp_path, "back.json", payload)
    assert main(["--format", "json", "limits", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["results"]["sequence"]["verdict"] == "exact-yes"
    assert data["results"]["sequence"]["limitingArrow"] == sp.category.hom(1, 0)[0]


def equilateral_json(n, *far):
    """n points at distance 1, but each (i, j, d) in `far` puts points i and
    j at distance d."""
    d = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    for i, j, v in far:
        d[i][j] = d[j][i] = v
    return {"points": [f"e{i}" for i in range(n)], "d": d}


def test_lipschitz_size_guard_admits_six_points(tmp_path, capsys):
    # the guard counts extensions, not bijections: 7 points (5,040 of them) pass
    rng = __import__("random").Random(7)
    for n in (7, 6):
        x = jsonio.metric_space_to_json(support.rand_metric(rng, n))
        y = jsonio.metric_space_to_json(support.rand_metric(rng, n))
        path = write(tmp_path, f"lip{n}.json", {"x": x, "y": y})
        assert main(["lipschitz", path]) == 0
    # both diameters are 2, so the floor is 1, but the least constant is 3/2:
    # one of the far pairs of y is the image of a unit pair.  A branch
    # reaches 3/2 only once both ends of a far pair are images, and the far
    # pair of x is set last, so little is cut at 10 points
    far_x = equilateral_json(10, (8, 9, 2))
    far_y = equilateral_json(10, (0, 1, 2), (2, 3, "3/2"))
    path = write(tmp_path, "lip10.json", {"x": far_x, "y": far_y})
    assert main(["lipschitz", path]) == 3
    assert capsys.readouterr().err == (
        "size guard: Lipschitz search exceeded its budget of 300000 extensions; used 300001\n"
    )


def test_lipschitz_stops_at_the_diameter_floor(tmp_path, capsys):
    # every bijection has constant 2 = diam y / diam x, so the first one
    # found ends the search, long before the budget of extensions runs out
    path = write(tmp_path, "lip10.json", {"x": equilateral_json(10), "y": equilateral_json(10, (0, 1, 2))})
    assert main(["--format", "json", "lipschitz", path]) == 0
    assert json.loads(capsys.readouterr().out)["bilipConstant"] == "2"


TOP_LEVEL_LISTS = {
    "validate": ["category"],
    "continuity": ["source", "target", "functor"],
    "gh": ["x", "y"],
    "lipschitz": ["x", "y"],
}


@pytest.mark.parametrize("command", sorted(TOP_LEVEL_LISTS))
def test_top_level_list_is_exit_two(tmp_path, capsys, command):
    # a list naming the keys a handler reads must not reach data[key]
    path = write(tmp_path, "list.json", TOP_LEVEL_LISTS[command])
    assert main([command, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


def bimetric_params(**changes):
    payload = {"n": 2, "a1": {"0,1": 1, "1,0": 1}, "a2": {"0,1": 2, "1,0": 2}, "h": 1}
    payload.update(changes)
    return {k: v for k, v in payload.items() if v is not None}


BAD_BIMETRIC_PARAMS = {
    "missing n": bimetric_params(n=None),
    "missing a1": bimetric_params(a1=None),
    "missing a2": bimetric_params(a2=None),
    "missing h": bimetric_params(h=None),
    "non-integer n": bimetric_params(n="two"),
    "a1 not an object": bimetric_params(a1=[1, 1]),
    "a1 key not a pair": bimetric_params(a1={"0;1": 1, "1,0": 1}),
    "a2 key not an index": bimetric_params(a2={"0,x": 2, "1,0": 2}),
    "a2 weight not rational": bimetric_params(a2={"0,1": "x/y", "1,0": 2}),
    "h not rational": bimetric_params(h="inf"),
}


@pytest.mark.parametrize("case", sorted(BAD_BIMETRIC_PARAMS))
def test_malformed_bimetric_parameters_are_exit_two(tmp_path, capsys, case):
    path = write(tmp_path, "bm.json", BAD_BIMETRIC_PARAMS[case])
    assert main(["demo", "bimetric", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


def test_map_space_from_a_deep_source_is_exit_zero(tmp_path, capsys):
    # 40 objects and 1,600 arrows are 1,640 search variables: the search
    # keeps its own stack, so the depth is not bounded by recursion
    n = 40
    src = Metric1Space.from_weights(indiscrete(n), [0 if a % (n + 1) == 0 else 1 for a in range(n * n)])
    dst = Metric1Space.from_weights(indiscrete(1), [0])
    path = write(tmp_path, "deep.json", {"source": jsonio.space_to_json(src),
                                         "target": jsonio.space_to_json(dst)})
    assert main(["--format", "json", "map-space", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["functors"]) == 1 and len(data["category"]["arrows"]) == 1


def test_dagger_guard_counts_search_nodes(tmp_path, capsys):
    path = write(tmp_path, "monoid.json", jsonio.space_to_json(support.max_monoid_space(4)))
    assert main(["--format", "json", "dagger", "-v", path]) == 0
    assert json.loads(capsys.readouterr().out)["daggers"] == [[0, 1, 2, 3]]
    assert main(["--guard-daggers", "5", "dagger", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("size guard:") and "dagger search" in err and "5 search nodes" in err


def generators_payload(generators):
    return {"category": jsonio.category_to_json(indiscrete(2)), "generators": generators}


BAD_GENERATORS = {
    "arrow id not an integer": {"list": [["x"]]},
    "constantFrom not an integer": {"list": [[1]], "constantFrom": "z"},
    "list not a list": {"list": 5},
    "generator not a list": {"list": [5]},
    "fractional arrow id": {"list": [[1.5]]},
    "boolean arrow id": {"list": [[True]]},
}


@pytest.mark.parametrize("case", sorted(BAD_GENERATORS))
def test_malformed_generators_are_exit_two(tmp_path, capsys, case):
    path = write(tmp_path, "gen.json", generators_payload(BAD_GENERATORS[case]))
    assert main(["metrize", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


def test_dangling_generator_arrow_is_a_precondition(tmp_path, capsys):
    path = write(tmp_path, "gen.json", generators_payload({"list": [[99]]}))
    assert main(["metrize", path]) == 1
    assert capsys.readouterr().err.startswith("precondition:")


def test_dagger_verbose_runs_one_dagger_search(tmp_path, capsys, monkeypatch):
    from metricat import dagger

    calls = []
    search = dagger.enumerate_daggers

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(dagger, "enumerate_daggers", counted)
    path = write(tmp_path, "monoid.json", jsonio.space_to_json(support.max_monoid_space(6)))
    assert main(["dagger", "-v", path]) == 0
    assert capsys.readouterr().out == "symmetry class: iso\ndagger 0: [0, 1, 2, 3, 4, 5] (iso)\n"
    assert len(calls) == 1


# flag -> a subcommand whose search it bounds; both spell one budget
GUARDED = {"--guard-functors": "map-space", "--guard-daggers": "dagger"}


@pytest.mark.parametrize("flag", sorted(GUARDED))
def test_a_zero_guard_flag_is_a_budget_of_zero(tmp_path, capsys, flag):
    command = GUARDED[flag]
    path = write(tmp_path, "doc.json", support.cli_documents()[command][1])
    assert main([flag, "0", command, path]) == 3
    assert "budget of 0 search nodes" in capsys.readouterr().err


@pytest.mark.parametrize("flag", sorted(GUARDED))
def test_an_unset_guard_flag_reads_the_library_default(tmp_path, capsys, monkeypatch, flag):
    command = GUARDED[flag]
    path = write(tmp_path, "doc.json", support.cli_documents()[command][1])
    assert main([command, path]) == 0
    monkeypatch.setattr("metricat.errors.DEFAULT_BUDGET", 2)
    assert main([command, path]) == 3
    assert "budget of 2 search nodes" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["map-space", "dagger", "fixed-point"])
def test_both_guard_flags_set_one_budget(tmp_path, capsys, command):
    path = write(tmp_path, "doc.json", support.cli_documents()[command][1])
    for flag in sorted(GUARDED):
        assert main([flag, "0", command, path]) == 3
        assert "budget of 0 search nodes" in capsys.readouterr().err
    # the later spelling wins, as for any repeated option
    assert main(["--guard-functors", "0", "--guard-daggers", "300000", command, path]) == 0


def test_map_space_four_to_four_is_refused_before_its_table(tmp_path, capsys):
    # 256 functors, 65,536 arrows: the table would hold 16.8M entries
    n = 4
    space = jsonio.space_to_json(
        Metric1Space.from_weights(indiscrete(n), [0 if a % (n + 1) == 0 else 1 for a in range(n * n)])
    )
    path = write(tmp_path, "map44.json", {"source": space, "target": space})
    assert main(["map-space", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("size guard: mapping space [X, Y] exceeded its budget of 300000")


def changed(command, path, value):
    """The valid request of `command` with `value` at `path`, read from stdin."""
    argv, doc = support.cli_documents()[command]
    return argv, json.dumps(support.replaced(doc, path, value))


# documents that used to escape `main` as an exception -> exit code
ESCAPES = {
    "identities not an object": (changed("continuity", ("source", "category", "identities"), []), 2),
    "weights not an object": (changed("dagger", ("weights",), [0, 1]), 2),
    "points not a list": (changed("lipschitz", ("x", "points"), 3), 2),
    "distance row not a list": (changed("gh", ("y", "d"), [None]), 2),
    "arrMap not an object": (changed("fixed-point", ("functor", "arrMap"), "inf"), 2),
    "label not a string": (changed("fixed-point", ("space", "category", "objects", 0, "label"), {}), 2),
    "weight with zero denominator": (changed("fixed-point", ("space", "weights", "3"), "3/0"), 2),
    "dangling composite": (changed("fixed-point", ("space", "category", "compose", 16, 2), -1), 2),
    "target identity missing": (changed("continuity", ("target", "category", "identities", "0"), support.DELETE), 2),
    "source arrow missing": (changed("continuity", ("source", "category", "arrows", 1), support.DELETE), 2),
    "negative bimetric entry": (changed("demo", ("a1", "0,1"), "-1"), 1),
}


@pytest.mark.parametrize("case", sorted(ESCAPES))
def test_former_escapes_end_in_an_exit_code(monkeypatch, capsys, case):
    (argv, text), code = ESCAPES[case]
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("input error:" if code == 2 else "precondition:")


@pytest.mark.parametrize("command, path, value", [
    ("validate", ("category", "arrows", 1, "dom"), 0.7),
    ("validate", ("category", "arrows", 1, "cod"), True),
    ("lawvere", ("category", "compose", 0, 2), -1),
    ("map-space", ("source", "category", "objects", 0, "id"), -1),
    ("dagger", ("category", "identities", "0"), 0.0),
    ("continuity", ("functor", "arrMap", "0"), False),
])
def test_float_boolean_and_negative_ids_are_exit_two(monkeypatch, capsys, command, path, value):
    argv, text = changed(command, path, value)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_decimal_string_ids_still_parse(monkeypatch, capsys):
    argv, doc = support.cli_documents()["validate"]
    cat = doc["category"]
    as_strings = dict(doc, category={
        "objects": [{"id": str(o["id"])} for o in cat["objects"]],
        "arrows": [{key: str(a[key]) for key in ("id", "dom", "cod")} for a in cat["arrows"]],
        "identities": {k: str(v) for k, v in cat["identities"].items()},
        "compose": [[str(i) for i in triple] for triple in cat["compose"]],
    })
    outputs = []
    for payload in (doc, as_strings):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        assert main(["--format", "json", *argv]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("value, quoted", [
    (True, "true"), (False, "false"), (None, "null"), (0.7, "0.7"), ("x", '"x"'),
])
def test_a_rejected_id_is_quoted_as_json(monkeypatch, capsys, value, quoted):
    argv, text = changed("validate", ("category", "arrows", 1, "cod"), value)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(argv) == 2
    assert capsys.readouterr().err.endswith(f"must be a non-negative integer, not {quoted}\n")
