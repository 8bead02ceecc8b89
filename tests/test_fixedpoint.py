import random
from fractions import Fraction

import pytest

from metricat import (
    Functor,
    PreconditionError,
    SizeGuardError,
    Weight,
    build_category,
    identity_functor,
    identity_transformation,
    validate_functor,
    validate_transformation,
)
from metricat.fixedpoint import (
    BACKWARD,
    FORWARD,
    banach_iterate,
    contraction_factor,
    find_natural_contractions,
    is_epimorphism,
    is_monomorphism,
)
from metricat.limits import EXACT_YES, check_cauchy, check_series_limit

import support


def test_constant_functor_has_factor_zero():
    sp = support.indiscrete_space([[0, 1], [1, 0]])
    fun = support.indiscrete_endofunctor(sp, [0, 0])
    cert = contraction_factor(sp, fun)
    assert cert.holds and cert.factor == 0 and cert.zero_preserved


def test_identity_on_positive_weights_is_not_a_contraction():
    sp = support.indiscrete_space([[0, 1], [1, 0]])
    cert = contraction_factor(sp, identity_functor(sp.category))
    assert not cert.holds and cert.witness is not None


def test_halving_fixture_factor_is_one_half():
    space, fun = support.halving_fixture()
    # oracle: all six non-identity ratios computed directly
    pts = [Fraction(0), Fraction(1, 3), Fraction(1)]
    fmap = [0, 0, 1]
    ratios = []
    for i in range(3):
        for j in range(3):
            if i != j:
                num = abs(pts[fmap[i]] - pts[fmap[j]])
                ratios.append(num / abs(pts[i] - pts[j]))
    assert max(ratios) == Fraction(1, 2)
    cert = contraction_factor(space, fun)
    assert cert.holds and cert.factor == Fraction(1, 2)


def test_zero_transfer_failure_blocks_certificate():
    degen = support.indiscrete_space([[0, 0], [0, 0]])
    dst_w = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    # endofunctor swapping the two points does preserve zeros here, so use
    # a functor into a positively weighted copy via a degenerate source
    sp2 = support.indiscrete_space([[0, 1], [1, 0]])
    # build a space with a weight-0 cross arrow and a functor inflating it
    mixed = support.indiscrete_space([[0, 0], [0, 0]])
    target_like = support.indiscrete_endofunctor(mixed, [0, 1])
    assert contraction_factor(mixed, target_like).holds  # identity map, all zeros
    # now a genuine failure: weight-0 arrow mapped to weight 1 cannot happen
    # inside one space unless the functor is weight-raising on zeros; build
    # a 3-point space with a zero pair and a map sending it across a gap
    degen3 = support.indiscrete_space([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    fun = support.indiscrete_endofunctor(degen3, [0, 2, 2])
    cert = contraction_factor(degen3, fun)
    assert not cert.holds and not cert.zero_preserved


def test_infinite_weights_impose_no_constraint():
    sp = support.parallel_pair_space("inf", 2)
    # map the infinite arrow onto the finite one: no constraint from it
    cat = sp.category
    fun = Functor(cat, cat, {0: 0, 1: 1}, {0: 0, 1: 1, 2: 3, 3: 3})
    assert validate_functor(fun).ok
    cert = contraction_factor(sp, fun)
    # finite arrow 3 maps to itself with ratio 1: not a contraction
    assert not cert.holds
    fun0 = Functor(cat, cat, {0: 0, 1: 1}, {0: 0, 1: 1, 2: 2, 3: 2})
    # finite weight 2 mapped to infinite weight: finiteness transfer fails
    cert0 = contraction_factor(sp, fun0)
    assert not cert0.holds and cert0.witness == 3


def test_indiscrete_self_map_has_unique_contractions_both_ways():
    sp = support.indiscrete_space([[0, 2], [2, 0]])
    fun = support.indiscrete_endofunctor(sp, [0, 0])
    fwd = find_natural_contractions(sp, fun, FORWARD)
    bwd = find_natural_contractions(sp, fun, BACKWARD)
    assert len(fwd) == 1 and len(bwd) == 1
    assert validate_transformation(
        identity_transformation(identity_functor(sp.category))
    ).ok


def test_identity_functor_contraction_is_identity_transformation():
    sp = support.z2_space(1)
    fun = identity_functor(sp.category)
    found = find_natural_contractions(sp, fun, FORWARD)
    assert any(nc.components == (0,) for nc in found)


def test_no_contractions_when_hom_sets_are_empty():
    free = support.free_arrow_space(1)
    cat = free.category
    # constant endofunctor onto object 0: a forward contraction would need
    # a component 1 -> F(1) = 0 and no such arrow exists
    fun = Functor(cat, cat, {0: 0, 1: 0}, {0: 0, 1: 0, 2: 0})
    assert validate_functor(fun).ok
    assert find_natural_contractions(free, fun, FORWARD) == []
    # backward components F(c) -> c do exist (id and the free arrow itself)
    assert len(find_natural_contractions(free, fun, BACKWARD)) == 1


def test_epi_mono_examples():
    sp = support.indiscrete_space([[0, 1], [1, 0]])
    cat = sp.category
    for a in cat.arrows:  # isomorphisms and identities are both
        assert is_epimorphism(cat, a.id)
        assert is_monomorphism(cat, a.id)

    # collapse fixture: f equalizes two distinct parallel arrows
    comp = {(3, 4): 6, (3, 5): 6}
    cat2 = build_category(3, [(0, 1, "f"), (1, 2, "g1"), (1, 2, "g2")], comp)
    # brute-force oracle over all parallel pairs out of cod f
    f = 3
    pairs = [
        (g, h)
        for g in cat2.arrows_from(1)
        for h in cat2.arrows_from(1)
        if g < h and cat2.arrows[g].cod == cat2.arrows[h].cod
    ]
    cancels = [
        (g, h) for g, h in pairs if cat2.compose(f, g) == cat2.compose(f, h)
    ]
    assert cancels  # the two parallel arrows collapse
    assert not is_epimorphism(cat2, f)
    assert is_monomorphism(cat2, f)


def test_epimorphic_transformations_satisfy_coherence():
    # a natural transformation id -> F with epimorphism components passes
    # the coherence filter the contraction search applies
    rng = random.Random(67)
    checked = 0
    for _ in range(40):
        sp = support.rand_space(rng, ("z2", "indiscrete", "bimetric"))
        cat = sp.category
        from metricat.mapping import enumerate_functors, enumerate_transformations

        ident = identity_functor(cat)
        for fun in enumerate_functors(cat, cat)[:6]:
            if not validate_functor(fun).ok:
                continue
            for t in enumerate_transformations(ident, fun)[:8]:
                if not all(is_epimorphism(cat, c) for c in t.components.values()):
                    continue
                comps = tuple(t.components[x] for x in range(len(cat.objects)))
                assert all(
                    fun.arr_map[comps[c]] == comps[fun.obj_map[c]]
                    for c in range(len(cat.objects))
                )
                checked += 1
    assert checked >= 10


def test_banach_on_the_halving_fixture():
    space, fun = support.halving_fixture()
    ncs = find_natural_contractions(space, fun, FORWARD)
    assert len(ncs) == 1
    outcome = banach_iterate(space, fun, ncs[0], 2)  # start at the point 1
    assert outcome.fixed.fixed_object == 0
    arrow = space.category.arrows[outcome.fixed.arrow]
    assert (arrow.dom, arrow.cod) == (2, 0)
    assert space.w[outcome.fixed.arrow] == Weight(1)
    assert outcome.steps_to_fixed == 2
    assert outcome.cauchy.verdict == EXACT_YES
    assert outcome.limit.verdict == EXACT_YES
    # re-verify the certificates through the limits module directly
    assert check_cauchy(space, outcome.series).verdict == EXACT_YES
    assert check_series_limit(space, outcome.series, outcome.cone).verdict == EXACT_YES


def test_banach_from_an_already_fixed_start():
    space, fun = support.halving_fixture()
    nc = find_natural_contractions(space, fun, FORWARD)[0]
    outcome = banach_iterate(space, fun, nc, 0)
    assert outcome.fixed.fixed_object == 0
    assert outcome.fixed.arrow == space.category.identity[0]
    assert outcome.steps_to_fixed == 0


def test_banach_preconditions_are_named():
    sp = support.indiscrete_space([[0, 1], [1, 0]])
    ident = identity_functor(sp.category)
    nc = find_natural_contractions(sp, ident, FORWARD)[0]
    with pytest.raises(PreconditionError, match="contraction"):
        banach_iterate(sp, ident, nc, 0)

    degen = support.indiscrete_space([[0, 0], [0, 0]])
    dfun = support.indiscrete_endofunctor(degen, [0, 0])
    dnc = find_natural_contractions(degen, dfun, FORWARD)[0]
    with pytest.raises(PreconditionError, match="non-degenerate"):
        banach_iterate(degen, dfun, dnc, 1)


def test_banach_triangle_and_fixed_object_invariants():
    rng = random.Random(71)
    for _ in range(30):
        space, fun, cert = support.rand_contraction(rng)
        nc = find_natural_contractions(space, fun, FORWARD)[0]
        x0 = rng.randrange(len(space.category.objects))
        outcome = banach_iterate(space, fun, nc, x0)
        d = outcome.fixed.fixed_object
        assert fun.obj_map[d] == d
        mu0 = outcome.fixed.arrow
        cat = space.category
        assert cat.compose(nc.component(x0), fun.arr_map[mu0]) == mu0
        assert check_cauchy(space, outcome.series).verdict == EXACT_YES
        assert check_series_limit(space, outcome.series, outcome.cone).verdict == EXACT_YES


def test_banach_backward_direction_runs_dually():
    space, fun = support.halving_fixture()
    bwd = find_natural_contractions(space, fun, BACKWARD)
    assert len(bwd) == 1
    outcome = banach_iterate(space, fun, bwd[0], 2)
    assert outcome.fixed.direction == BACKWARD
    assert outcome.fixed.fixed_object == 0
    arrow = space.category.arrows[outcome.fixed.arrow]
    # the dual run produces the arrow 0 -> 1 of the same weight 1
    assert (arrow.dom, arrow.cod) == (0, 2)
    assert space.w[outcome.fixed.arrow] == Weight(1)


def test_natural_contraction_budget_counts_search_nodes():
    # four objects, one candidate component each: exactly four search nodes
    sp = support.line_space([0, 1, 2, 3])
    fun = support.indiscrete_endofunctor(sp, [0, 0, 0, 0])
    assert len(find_natural_contractions(sp, fun, guard=4)) == 1
    with pytest.raises(SizeGuardError, match="natural-contraction search exceeded its budget of 3 search nodes"):
        find_natural_contractions(sp, fun, guard=3)
