"""One work budget bounds every search and construction.

Each bounded entry point charges an `errors.Budget`: an int `guard` or
`errors.DEFAULT_BUDGET` sets its limit, and a refusal names the phase, the
units being charged, the limit and the units used.
"""
import hashlib
import importlib.util
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from metricat import SizeGuardError, errors, indiscrete, jsonio
from metricat.dagger import enumerate_daggers
from metricat.errors import Budget
from metricat.fixedpoint import find_natural_contractions
from metricat.geometry import (
    _diameter_floor, _gh_correspondences, _gh_gluings, bilip_slice, gh_distance,
    lipschitz_distance, try_bimetric_space,
)
from metricat.mapping import enumerate_functors, enumerate_transformations, mapping_space

import support


def unit_indiscrete(n):
    return support.indiscrete_space([[0 if i == j else 1 for j in range(n)] for i in range(n)])


def line_contraction():
    sp = support.line_space([0, 1, 2, 3])
    return sp, support.indiscrete_endofunctor(sp, [0, 0, 0, 0])


def gh_pair():
    rng = random.Random(79)
    return support.rand_metric(rng, 4), support.rand_metric(rng, 4)


def correspondence_budget():
    """The units the correspondence route of `gh_pair` spends."""
    x, y = gh_pair()
    scale = math.lcm(x.scale, y.scale)
    budget = Budget()
    _gh_correspondences(x.scaled(scale), y.scaled(scale), budget)
    return budget.used


def bimetric():
    table = {(0, 1): Fraction(1), (1, 0): Fraction(1)}
    return try_bimetric_space(2, table, table, Fraction(0))


X3 = unit_indiscrete(3)
F3 = enumerate_functors(X3.category, X3.category)

# phase -> (units, limit or a function giving it, call given the limit as
# `guard`); the calls without a guard read the patched default
ENTRY_POINTS = {
    "functor enumeration":
        ("search nodes", 10, lambda g: enumerate_functors(indiscrete(3), indiscrete(3), g)),
    "transformation enumeration":
        ("search nodes", 2, lambda g: enumerate_transformations(F3[0], F3[0], g)),
    "mapping space [X, Y]":
        ("composition entries", 22151, lambda g: mapping_space(X3, X3, g)),
    "dagger search":
        ("search nodes", 5, lambda g: enumerate_daggers(support.max_monoid_space(4), g)),
    "natural-contraction search":
        ("search nodes", 3, lambda g: find_natural_contractions(*line_contraction(), guard=g)),
    "bi-Lipschitz slice":
        ("arrows", 10, lambda g: bilip_slice([gh_pair()[0]] * 2, g)),
    "Lipschitz search":
        ("extensions", 5, lambda g: lipschitz_distance(*gh_pair())),
    "Gromov-Hausdorff correspondence route":
        ("half-map steps", 5, lambda g: gh_distance(*gh_pair())),
    "Gromov-Hausdorff gluing route":
        ("half-map steps", correspondence_budget, lambda g: gh_distance(*gh_pair())),
    "bi-metric space":
        ("arrows", 5, lambda g: bimetric()),
}


@pytest.mark.parametrize("phase", sorted(ENTRY_POINTS))
def test_a_refusal_names_its_phase_units_limit_and_use(monkeypatch, phase):
    units, limit, call = ENTRY_POINTS[phase]
    if callable(limit):
        limit = limit()
    monkeypatch.setattr(errors, "DEFAULT_BUDGET", limit)
    with pytest.raises(SizeGuardError) as info:
        call(limit)
    pattern = rf"{re.escape(phase)} exceeded its budget of {limit} {units}; used (\d+)"
    found = re.fullmatch(pattern, str(info.value))
    assert found and int(found[1]) > limit


def test_each_slice_arrow_and_composition_entry_costs_a_unit():
    x = gh_pair()[0]
    # two 4-point spaces: 4 * 24 arrows, and 2 * 48 * 48 composition entries
    budget = Budget()
    bilip_slice([x, x], budget)
    assert budget.used == 96 + 4608
    message = "bi-Lipschitz slice exceeded its budget of 4703 composition entries; used 4704"
    with pytest.raises(SizeGuardError, match=f"^{message}$"):
        bilip_slice([x, x], 4703)


def test_gh_charges_the_pairs_it_scans():
    class Recording(Budget):
        def spend(self, k, phase, units):
            self.spent.append((k, units))
            super().spend(k, phase, units)

    def charges(route, *args):
        budget = Recording()
        budget.spent = []
        route(dx, dy, budget, *args)
        pairs = sum(k for k, units in budget.spent if units == "map pairs")
        steps = sum(k for k, units in budget.spent if units == "half-map steps")
        assert pairs + steps == budget.used
        return pairs, steps

    x, y = gh_pair()
    scale = math.lcm(x.scale, y.scale)
    dx, dy = x.scaled(scale), y.scaled(scale)
    # the correspondence route scans no pairs: it places one cell per step
    pairs, steps = charges(_gh_correspondences)
    assert pairs == 0 and steps > 0
    # the gluing route, started above the diameter floor, searches half maps
    # and scans their pairs
    distortion, cells = _gh_correspondences(dx, dy)
    assert distortion > _diameter_floor(dx, dy)
    pairs, steps = charges(_gh_gluings, cells)
    assert pairs > 0 and steps > 0


def test_a_shared_budget_is_charged_in_place():
    budget = Budget(10_000)
    assert Budget.of(budget) is budget
    enumerate_functors(indiscrete(2), indiscrete(2), budget)
    used = budget.used
    assert used > 0
    enumerate_functors(indiscrete(2), indiscrete(2), budget)
    assert budget.used == 2 * used
    assert Budget.of(None).limit == errors.DEFAULT_BUDGET and Budget.of(7).limit == 7


def benchmark_gh_pairs(seeds):
    """The (x, y) pairs of the `gh` operations of the benchmark's gh
    workload at the given seeds, read from their JSON documents."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [(jsonio.metric_space_from_json(op["doc"]["x"]), jsonio.metric_space_from_json(op["doc"]["y"]))
            for seed in seeds for ops in inputs.build("gh", seed) for op in ops if op["kind"] == "gh"]


def test_gluing_route_charges_on_the_benchmark_pairs():
    # a pair whose correspondence value is the diameter floor is returned
    # before any search; every other pair pays, pair by pair, what it paid
    # when the route searched below such a start too (24,757 units in all)
    units, floor_stopped = [], 0
    for x, y in benchmark_gh_pairs((1, 9)):
        scale = math.lcm(x.scale, y.scale)
        dx, dy = x.scaled(scale), y.scaled(scale)
        distortion, cells = _gh_correspondences(dx, dy)
        budget = Budget()
        assert _gh_gluings(dx, dy, budget, cells) == Fraction(distortion, 2)
        if distortion == _diameter_floor(dx, dy):
            assert budget.used == 0
            floor_stopped += 1
        units.append(budget.used)
    assert (len(units), floor_stopped, sum(units)) == (480, 313, 22567)
    assert hashlib.sha256(" ".join(map(str, units)).encode()).hexdigest().startswith("8eb6334ee1e01019")
