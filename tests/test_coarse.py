import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from metricat import (
    Metric1Space,
    PreconditionError,
    SizeGuardError,
    Weight,
    ZERO,
    from_metric_space,
    indiscrete,
    validate_metric1,
)
from metricat.coarse import (
    CoarseGenerators,
    arrow_compose_sets,
    arrow_diagonal,
    arrow_star,
    bounded_generators,
    coarse_roundtrip_check,
    dominated_by,
    metrize,
    metrize_chain,
    rel_compose,
    rel_identity,
    rel_inverse,
    rel_star,
    RelationSet,
)

import support


# --- set-level calculus --------------------------------------------------------

def test_star_of_diagonal_is_diagonal():
    d = rel_identity(3)
    assert rel_star(d) == d


def test_star_of_single_pair_from_the_two_clauses():
    # E = {(0,1)}: first clause gives {(1,1)}, second {(0,0)}
    e = RelationSet(2, frozenset({(0, 1)}))
    assert rel_star(e).pairs == frozenset({(1, 1), (0, 0)})


def test_star_contains_symmetric_reflexive_sets():
    e = RelationSet(3, frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)}))
    assert e.pairs <= rel_star(e).pairs


def test_rel_compose_and_inverse():
    e1 = RelationSet(3, frozenset({(0, 1)}))
    e2 = RelationSet(3, frozenset({(1, 2)}))
    assert rel_compose(e1, e2).pairs == frozenset({(0, 2)})
    assert rel_inverse(e1).pairs == frozenset({(1, 0)})


pairs_st = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12
).map(lambda ps: RelationSet(5, frozenset(ps)))


@given(pairs_st)
@settings(max_examples=200)
def test_star_contained_in_compositions_with_inverse(e):
    # the containment the symmetry half of the star lemma rests on
    lhs = rel_star(e).pairs
    rhs = rel_compose(e, rel_inverse(e)).pairs | rel_compose(rel_inverse(e), e).pairs
    assert lhs <= rhs


@given(pairs_st)
@settings(max_examples=200)
def test_inverse_contained_in_star_of_reflexive_padding(e):
    padded = RelationSet(e.n, e.pairs | rel_identity(e.n).pairs)
    assert rel_inverse(e).pairs <= rel_star(padded).pairs


# --- arrow-level calculus --------------------------------------------------------

def test_arrow_ops_on_identities():
    cat = indiscrete(2)
    diag = arrow_diagonal(cat)
    assert diag <= arrow_star(cat, diag)
    assert arrow_compose_sets(cat, diag, diag) == diag


def test_arrow_star_of_single_cross_arrow():
    cat = indiscrete(2)
    psi_xy = cat.hom(0, 1)[0]
    star = arrow_star(cat, frozenset({psi_xy}))
    assert star == frozenset({cat.identity[0], cat.identity[1]})


def test_compose_sets_of_everything_is_everything():
    cat = indiscrete(2)
    every = frozenset(a.id for a in cat.arrows)
    assert arrow_compose_sets(cat, every, every) == every


def test_compose_sets_empty_when_nothing_composes():
    free = support.free_arrow_category()
    f = frozenset({2})  # the non-identity arrow 0 -> 1
    assert arrow_compose_sets(free, f, f) == frozenset()


# --- generators and metrization ---------------------------------------------------

def test_generators_reject_non_monotone():
    cat = indiscrete(2)
    with pytest.raises(PreconditionError, match="monotone"):
        CoarseGenerators(cat, (frozenset({1}), frozenset({2})), 1)


def test_normalized_takes_running_unions():
    cat = indiscrete(2)
    gens = CoarseGenerators.normalized(cat, [frozenset({1}), frozenset({2})])
    assert gens.sets == (frozenset({1}), frozenset({1, 2}))
    assert gens.top == frozenset({1, 2})


def test_bounded_generators_thresholds():
    sp = from_metric_space(
        support.FiniteMetricSpace.from_matrix(
            ["a", "b"], [[0, Fraction(3, 2)], [Fraction(3, 2), 0]]
        )
    )
    gens = bounded_generators(sp)
    ids = arrow_diagonal(sp.category)
    assert gens.at(0) == ids and gens.at(1) == ids
    assert gens.at(2) == frozenset(a.id for a in sp.category.arrows)


def test_bounded_generators_all_zero_weights():
    sp = support.indiscrete_space([[0, 0], [0, 0]])
    gens = bounded_generators(sp)
    assert gens.at(0) == frozenset(a.id for a in sp.category.arrows)


def test_bounded_generators_skip_infinite_arrows():
    sp = support.free_arrow_space("inf")
    gens = bounded_generators(sp)
    assert 2 not in gens.top


def test_bounded_generators_charge_their_members_before_building():
    # Two arrows of weight 10^6: identities sit in all 10^6 + 1 sets and each
    # heavy arrow in the last one, 2,000,004 members against 300,000.
    with pytest.raises(SizeGuardError, match="used 2000004"):
        bounded_generators(support.indiscrete_space([[0, 10**6], [10**6, 0]]))


def test_bounded_generators_admit_weight_ten_to_the_five():
    # 200,004 members: inside the default budget
    sp = support.indiscrete_space([[0, 10**5], [10**5, 0]])
    gens = bounded_generators(sp)
    assert gens.constant_from == 10**5
    assert gens.at(10**5 - 1) == arrow_diagonal(sp.category)
    assert gens.top == frozenset(a.id for a in sp.category.arrows)


def test_bounded_generators_charge_empty_sets():
    # an identity weighing 10^6 (not a metric 1-space) leaves the first
    # 10^6 sets empty; each costs one, though all the sets hold one member
    sp = Metric1Space(indiscrete(1), (Weight(10**6),))
    with pytest.raises(SizeGuardError, match="used 1000001"):
        bounded_generators(sp)


def test_metrize_all_arrows_generator():
    cat = indiscrete(2)
    every = frozenset(a.id for a in cat.arrows)
    sp = metrize(CoarseGenerators(cat, (every,), 0))
    for a in cat.arrows:
        expected = ZERO if cat.is_identity(a.id) else Weight(1)
        assert sp.w[a.id] == expected


def test_metrize_worked_fixture_weights():
    # E_n = {psi_xy} forever: id 0, psi_xy enters F_1, psi_yx enters F_2
    # because completing psi_xy to the identity pulls it in via the star
    cat = indiscrete(2)
    psi_xy = cat.hom(0, 1)[0]
    psi_yx = cat.hom(1, 0)[0]
    sp = metrize(CoarseGenerators(cat, (frozenset({psi_xy}),), 0))
    assert sp.w[cat.identity[0]] == ZERO
    assert sp.w[cat.identity[1]] == ZERO
    assert sp.w[psi_xy] == Weight(1)
    assert sp.w[psi_yx] == Weight(2)


def test_metrize_empty_generators_leave_everything_infinite():
    cat = indiscrete(2)
    sp = metrize(CoarseGenerators(cat, (frozenset(),), 0))
    for a in cat.arrows:
        if cat.is_identity(a.id):
            assert sp.w[a.id] == ZERO
        else:
            assert sp.w[a.id].is_infinite


def test_metrize_zero_weights_are_exactly_identities():
    rng = random.Random(13)
    for _ in range(30):
        sp = support.rand_space(rng)
        out = metrize(bounded_generators(sp))
        for a in sp.category.arrows:
            assert (out.w[a.id] == ZERO) == sp.category.is_identity(a.id)


def test_metrize_chain_is_monotone():
    rng = random.Random(19)
    for _ in range(20):
        sp = support.rand_space(rng)
        chain = metrize_chain(bounded_generators(sp))
        for earlier, later in zip(chain, chain[1:]):
            assert earlier <= later


def test_metrize_of_bounded_generators_validates():
    rng = random.Random(31)
    for _ in range(40):
        sp = support.rand_space(rng)
        out = metrize(bounded_generators(sp))
        assert validate_metric1(out).ok


def test_roundtrip_on_fixtures_and_random_spaces():
    fixture = from_metric_space(
        support.FiniteMetricSpace.from_matrix(
            ["a", "b"], [[0, Fraction(3, 2)], [Fraction(3, 2), 0]]
        )
    )
    assert coarse_roundtrip_check(fixture)
    assert coarse_roundtrip_check(support.line_space([0]))  # terminal
    rng = random.Random(43)
    for _ in range(40):
        sp = support.rand_space(rng)
        from metricat.weights import is_locally_finite

        if is_locally_finite(sp):
            assert coarse_roundtrip_check(sp)


def test_roundtrip_fails_when_finite_steps_compose_to_infinity():
    # 0 -> 1 -> 2 with steps of weight 1 and their composite of weight inf:
    # the steps enter the chain at F_2 and their composite at F_3, so the
    # finite-weight arrows are not closed under composition
    sp = support.chain_space([1, 1])
    cat = sp.category
    composite = next(a.id for a in cat.arrows if (a.dom, a.cod) == (0, 2))
    w = list(sp.w)
    w[composite] = Weight.infinite()
    sp = Metric1Space(cat, tuple(w))
    assert not coarse_roundtrip_check(sp)
    assert metrize(bounded_generators(sp)).w[composite] == Weight(3)


def test_roundtrip_needs_no_budget_for_large_weights():
    # bounded_generators refuses this family (see above); the closure test
    # reads the weights once and finds every arrow finite
    assert coarse_roundtrip_check(support.indiscrete_space([[0, 10**6], [10**6, 0]]))


def test_domination_is_top_set_containment():
    cat = indiscrete(2)
    small = CoarseGenerators(cat, (frozenset({0}),), 0)
    big = CoarseGenerators(cat, (frozenset({0, 1}),), 0)
    assert dominated_by(small, big)
    assert not dominated_by(big, small)


# --- the set-level star lemma over saturated families ------------------------------

def preorder(rng: random.Random, n: int, symmetric: bool) -> RelationSet:
    """A random reflexive transitive relation (the top set of a finite
    family closed under subsets and finite unions is one such, and the
    family is exactly its powerset-below)."""
    pairs = {(i, i) for i in range(n)}
    for _ in range(rng.randint(0, n * 2)):
        x, y = rng.randrange(n), rng.randrange(n)
        pairs.add((x, y))
        if symmetric:
            pairs.add((y, x))
    changed = True
    while changed:
        changed = False
        for (a, b) in list(pairs):
            for (c, d) in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    return RelationSet(n, frozenset(pairs))


def test_star_lemma_on_saturated_families():
    # a family closed under reflexivity, saturations and composition is the
    # powerset below a preorder T; symmetry of the family is T == T^{-1},
    # star-closure is star(T) <= T (star is monotone), and the two agree
    rng = random.Random(47)
    for _ in range(120):
        n = rng.randint(1, 5)
        t = preorder(rng, n, symmetric=rng.random() < 0.5)
        symmetric = rel_inverse(t).pairs == t.pairs
        star_closed = rel_star(t).pairs <= t.pairs
        assert symmetric == star_closed
