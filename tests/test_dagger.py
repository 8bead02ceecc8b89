import random
from fractions import Fraction

import pytest

from metricat import (
    Metric1Space,
    PreconditionError,
    SizeGuardError,
    build_category,
    is_groupoid,
    lawvere,
    opposite_space,
    validate_metric1,
)
from metricat.dagger import (
    Dagger,
    SymmetryClass,
    canonical_groupoid_dagger,
    classified_daggers,
    classify_dagger,
    enumerate_daggers,
    symmetry_hierarchy,
    validate_dagger,
)

import support


def test_canonical_dagger_on_groupoids_validates():
    for sp in (support.indiscrete_space([[0, 1], [1, 0]]), support.z2_space(1),
               support.bimetric_fixture(1, 2, 1)):
        dag = canonical_groupoid_dagger(sp)
        assert validate_dagger(sp, dag).ok


def test_identity_mapping_is_not_a_dagger_on_indiscrete():
    sp = support.indiscrete_space([[0, 1], [1, 0]])
    dag = Dagger(tuple(range(4)))
    report = validate_dagger(sp, dag)
    assert not report.ok
    # into the opposite, the image of 0 -> 1 must run 0 -> 1 there, i.e. 1 -> 0
    assert report.fatal == [
        "arrow a1:0->1 maps to a1:1->0, incompatible with the object map",
        "arrow a2:1->0 maps to a2:0->1, incompatible with the object map",
    ]
    assert report.violations == []


def test_unfixed_identity_and_broken_involution_are_reported():
    z2 = support.z2_space(1)  # arrows: identity 0 and g = 1
    swapped = validate_dagger(z2, Dagger((1, 0)))
    assert swapped.subject == "dagger" and swapped.fatal == []
    assert swapped.violations == [
        "identity of object 0 is not preserved",
        "composition not preserved on pair (0,0): 1 != 0",
        "composition not preserved on pair (0,1): 0 != 1",
        "composition not preserved on pair (1,0): 0 != 1",
        "composition not preserved on pair (1,1): 1 != 0",
    ]
    collapsed = validate_dagger(z2, Dagger((0, 0)))
    assert collapsed.violations == ["involution fails at arrow 1"]


def test_swap_dagger_on_indiscrete_checked_by_hand():
    sp = support.indiscrete_space([[0, 1], [1, 0]])
    cat = sp.category
    swap = {a.id: cat.hom(a.cod, a.dom)[0] for a in cat.arrows}
    dag = Dagger(tuple(swap[i] for i in range(4)))
    # hand oracle: all 16 pairs, contravariance holds where composable
    for f in cat.arrows:
        for g in cat.arrows:
            if f.cod != g.dom:
                continue
            assert dag.apply(cat.compose(f.id, g.id)) == cat.compose(
                dag.apply(g.id), dag.apply(f.id)
            )
    assert validate_dagger(sp, dag).ok


def test_canonical_dagger_examples():
    sp = support.indiscrete_space([[0, 1], [1, 0]])
    dag = canonical_groupoid_dagger(sp)
    assert classify_dagger(sp, dag) == SymmetryClass.ISO
    z2 = support.z2_space(Fraction(3, 2))
    dagz = canonical_groupoid_dagger(z2)
    assert dagz.apply(1) == 1
    assert classify_dagger(z2, dagz) == SymmetryClass.ISO
    with pytest.raises(PreconditionError):
        canonical_groupoid_dagger(support.free_arrow_space(1))


def uniform_fixture():
    """Two objects joined by arrows a (weight 1) and b (weight 2) whose
    composites are nontrivial idempotents p, q of weight 3/2: the pairing
    dagger is weight-distorting but maps no weight-0 arrow anywhere bad."""
    # objects 0, 1; arrows: 0,1 ids; 2=a:0->1, 3=b:1->0, 4=p:0->0, 5=q:1->1
    comp = {
        (2, 3): 4, (3, 2): 5,
        (4, 2): 2, (2, 5): 2,
        (5, 3): 3, (3, 4): 3,
        (4, 4): 4, (5, 5): 5,
    }
    cat = build_category(2, [(0, 1, "a"), (1, 0, "b"), (0, 0, "p"), (1, 1, "q")], comp)
    sp = Metric1Space.from_weights(cat, [0, 0, 1, 2, Fraction(3, 2), Fraction(3, 2)])
    assert validate_metric1(sp).ok
    dag = Dagger((0, 1, 3, 2, 4, 5))
    assert validate_dagger(sp, dag).ok
    return sp, dag


def test_uniform_tier_fixture():
    sp, dag = uniform_fixture()
    assert classify_dagger(sp, dag) == SymmetryClass.UNIFORM


def test_none_tier_fixture():
    # degenerate bi-metric space: sign-flipping dagger sends the weight-0
    # cross arrows to weight-1 arrows, killing continuity outright
    sp = support.bimetric_fixture(0, 1, 1)
    cat = sp.category
    by_key = {}
    for a in cat.arrows:
        sign = 1 if a.label.startswith("+") else -1
        by_key[(sign, a.dom, a.cod)] = a.id
    mapping = []
    for a in cat.arrows:
        sign = 1 if a.label.startswith("+") else -1
        flip = sign if a.dom == a.cod else -sign
        mapping.append(by_key[(flip, a.cod, a.dom)])
    dag = Dagger(tuple(mapping))
    assert validate_dagger(sp, dag).ok
    assert classify_dagger(sp, dag) == SymmetryClass.NONE


def test_classify_dagger_refuses_a_table_that_does_not_cover_the_arrows():
    # a short table and an id past the arrows ended in a bare IndexError,
    # and negative ids read their weights from the end of the table
    sp = support.max_monoid_space(3)
    for table in ((), (99, 99, 99), (-3, -2, -1)):
        with pytest.raises(PreconditionError, match="^dagger table does not cover the arrows$"):
            classify_dagger(sp, Dagger(table))


def test_classify_dagger_checks_the_functor_shape_once(monkeypatch):
    # a dagger that is not uniformly continuous reaches both continuity
    # checks, which used to check its shape and its opposite's again
    from metricat import fincat

    sp = support.bimetric_fixture(0, 1, 1)
    daggers = [dag for dag, cls in classified_daggers(sp)[1] if cls == SymmetryClass.NONE]
    calls = []
    real = fincat.shape_errors
    monkeypatch.setattr(fincat, "shape_errors", lambda fun: calls.append(fun) or real(fun))
    assert [classify_dagger(sp, dag) for dag in daggers] == [SymmetryClass.NONE]
    assert len(calls) == 1


def test_enumerate_daggers_examples():
    sp = support.indiscrete_space([[0, 1], [1, 0]])
    dags = enumerate_daggers(sp)
    cat = sp.category
    swap = tuple(cat.hom(a.cod, a.dom)[0] for a in cat.arrows)
    assert [d.mapping for d in dags] == [swap]

    assert enumerate_daggers(support.free_arrow_space(1)) == []

    z2 = support.z2_space(1)
    # candidates g -> g and g -> id; the latter is not even endpoint-valid
    # as an involution fixing the identity, so only g -> g survives
    dags = enumerate_daggers(z2)
    assert [d.mapping for d in dags] == [(0, 1)]


def test_symmetry_hierarchy_examples():
    assert symmetry_hierarchy(support.indiscrete_space([[0, 5], [5, 0]])) == SymmetryClass.GROUPOIDAL
    assert symmetry_hierarchy(support.free_arrow_space(1)) == SymmetryClass.NONE
    sp, _ = uniform_fixture()
    assert symmetry_hierarchy(sp) == SymmetryClass.UNIFORM
    assert symmetry_hierarchy(support.bimetric_fixture(1, 2, 1)) == SymmetryClass.GROUPOIDAL


def test_iso_daggers_force_symmetric_point_distances():
    rng = random.Random(61)
    for _ in range(40):
        sp = support.rand_space(rng)
        best = symmetry_hierarchy(sp)
        if best >= SymmetryClass.ISO:
            assert lawvere(sp).is_symmetric()


def test_dagger_classes_are_self_dual():
    fixtures = [uniform_fixture()]
    sp = support.indiscrete_space([[0, 1], [1, 0]])
    fixtures.append((sp, canonical_groupoid_dagger(sp)))
    none_sp = support.bimetric_fixture(0, 1, 1)
    cat = none_sp.category
    by_key = {}
    for a in cat.arrows:
        sign = 1 if a.label.startswith("+") else -1
        by_key[(sign, a.dom, a.cod)] = a.id
    flip = []
    for a in cat.arrows:
        sign = 1 if a.label.startswith("+") else -1
        s2 = sign if a.dom == a.cod else -sign
        flip.append(by_key[(s2, a.cod, a.dom)])
    fixtures.append((none_sp, Dagger(tuple(flip))))
    for space, dag in fixtures:
        op = opposite_space(space)
        assert validate_dagger(op, dag).ok
        assert classify_dagger(op, dag) == classify_dagger(space, dag)


def test_continuous_dagger_makes_forward_and_backward_agree():
    # spaces with (at least) continuous daggers: forward and backward
    # continuity, Cauchy and limit checks agree on mirrored data
    from metricat.continuity import forward_continuous
    from metricat.limits import (
        EventuallyPeriodic,
        ForwardSeries,
        check_cauchy,
    )
    from metricat.mapping import enumerate_functors
    from metricat import opposite_functor, validate_functor

    for sp in (support.z2_space(1), support.indiscrete_space([[0, 1], [1, 0]])):
        assert symmetry_hierarchy(sp) >= SymmetryClass.CONTINUOUS
        for dst in (support.z2_space(2),):
            for fun in enumerate_functors(sp.category, dst.category):
                if not validate_functor(fun).ok:
                    continue
                op = (opposite_functor(fun), opposite_space(sp), opposite_space(dst))
                assert forward_continuous(fun, sp, dst).holds == forward_continuous(*op).holds
    z2 = support.z2_space(1)
    series = EventuallyPeriodic((), (1,))
    assert (
        check_cauchy(z2, ForwardSeries(series)).verdict
        == check_cauchy(opposite_space(z2), ForwardSeries(series)).verdict
    )


def test_one_sided_space_is_uniform_but_not_iso():
    # the pairing psi<->phi, rho1<->tau, rho2<->sigma is a genuine dagger,
    # but it distorts weights (3 vs 7), and the point distances are
    # asymmetric, so the space cannot reach the iso tier
    sp = support.one_sided_space()
    assert is_groupoid(sp.category) is None
    law = lawvere(sp)
    assert not law.is_symmetric()
    assert symmetry_hierarchy(sp) == SymmetryClass.UNIFORM
    for dag in enumerate_daggers(sp):
        assert classify_dagger(sp, dag) < SymmetryClass.ISO


def test_dagger_budget_counts_search_nodes():
    # The max-monoid with 13 arrows has 140,152 candidate involutions, which
    # a product of candidates could not admit; the search settles it at once.
    assert enumerate_daggers(support.max_monoid_space(13)) == [Dagger(tuple(range(13)))]
    # The null-product monoid has few contravariance failures to prune on:
    # with 12 arrows the search fits the default budget (175,364 nodes), and
    # with 13 it passes the budget and says so.
    assert len(enumerate_daggers(support.null_product_space(12))) == 9496
    with pytest.raises(SizeGuardError, match="dagger search exceeded its budget of 300000 search nodes"):
        enumerate_daggers(support.null_product_space(13))
