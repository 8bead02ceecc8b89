"""One work budget bounds every search and construction.

Each bounded entry point charges an `errors.Budget`: an int `guard` or
`errors.DEFAULT_BUDGET` sets its limit, and a refusal names the phase, the
units being charged, the limit and the units used.
"""
import random
import re
from fractions import Fraction

import pytest

from metricat import SizeGuardError, errors, indiscrete
from metricat.dagger import enumerate_daggers
from metricat.errors import Budget
from metricat.fixedpoint import find_natural_contractions
from metricat.geometry import (
    _common_scale, _gh_correspondences, _int_matrix, bilip_slice, gh_distance, lipschitz_distance,
    try_bimetric_space,
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
    scale = _common_scale(x, y)
    budget = Budget()
    _gh_correspondences(_int_matrix(x, scale), _int_matrix(y, scale), budget)
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

    x, y = gh_pair()
    scale = _common_scale(x, y)
    budget = Recording()
    budget.spent = []
    _gh_correspondences(_int_matrix(x, scale), _int_matrix(y, scale), budget)
    pairs = sum(k for k, units in budget.spent if units == "map pairs")
    steps = sum(k for k, units in budget.spent if units == "half-map steps")
    assert pairs > 0 and steps > 0 and pairs + steps == budget.used


def test_a_shared_budget_is_charged_in_place():
    budget = Budget(10_000)
    assert Budget.of(budget) is budget
    enumerate_functors(indiscrete(2), indiscrete(2), budget)
    used = budget.used
    assert used > 0
    enumerate_functors(indiscrete(2), indiscrete(2), budget)
    assert budget.used == 2 * used
    assert Budget.of(None).limit == errors.DEFAULT_BUDGET and Budget.of(7).limit == 7
