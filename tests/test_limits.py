import random
from fractions import Fraction

import pytest

from metricat import PreconditionError, Weight, ZERO
from metricat.limits import (
    EXACT_NO,
    EXACT_YES,
    TO_HORIZON,
    BoundedDescription,
    EssentialCone,
    EventuallyPeriodic,
    ForwardSequence,
    ForwardSeries,
    check_cauchy,
    check_forward_limiting_cone,
    check_series_limit,
    check_weak_pushout,
    find_mediating_arrows,
    partial_compositions,
    series_converges,
    truncate_cone,
    truncate_series,
)
from metricat.weights import opposite_space

import support


def test_eventually_periodic_indexing_and_drop():
    ep = EventuallyPeriodic((9, 8), (1, 2, 3))
    assert [ep.at(n) for n in range(8)] == [9, 8, 1, 2, 3, 1, 2, 3]
    assert ep.drop(1).preperiod == (8,)
    d4 = ep.drop(4)
    assert [d4.at(n) for n in range(4)] == [ep.at(n + 4) for n in range(4)]
    with pytest.raises(ValueError):
        EventuallyPeriodic((), ())


def test_bounded_description_from_generator():
    desc = BoundedDescription.from_generator(lambda n: n % 3, horizon=7)
    assert desc.horizon == 7
    assert [desc.at(n) for n in range(7)] == [0, 1, 2, 0, 1, 2, 0]
    assert not desc.is_exact


# --- limiting cones over sequences -------------------------------------------

def test_constant_sequence_has_itself_as_limiting_arrow():
    # a constant sequence psi admits psi as limiting arrow via identity legs
    sp = support.line_space([0, 1])
    psi = sp.category.hom(0, 1)[0]
    seq = ForwardSequence(0, EventuallyPeriodic((), (psi,)))
    cone = EssentialCone(0, 1, EventuallyPeriodic((), (sp.category.identity[1],)))
    cert = check_forward_limiting_cone(sp, seq, cone)
    assert cert.verdict == EXACT_YES and cert.limiting_arrow == psi


def test_convergent_real_coded_sequence():
    # leg weights 1/2, 1/4 then 0 forever: exact-yes
    sp = support.line_space([0, Fraction(1, 4), Fraction(1, 2), 1])
    cat = sp.category
    # base b = the point 1 (index 3); targets z1 = 1/2 (index 2), z2 = 1/4
    # (index 1), then the limit point 0 forever
    seq = ForwardSequence(
        3,
        EventuallyPeriodic((cat.hom(3, 2)[0], cat.hom(3, 1)[0]), (cat.hom(3, 0)[0],)),
    )
    legs = EventuallyPeriodic(
        (cat.hom(2, 0)[0], cat.hom(1, 0)[0]), (cat.identity[0],)
    )
    cert = check_forward_limiting_cone(sp, seq, EssentialCone(0, 0, legs))
    assert cert.verdict == EXACT_YES
    assert sp.w[legs.at(0)] == Weight(Fraction(1, 2))
    assert sp.w[legs.at(1)] == Weight(Fraction(1, 4))


def test_nonzero_periodic_leg_is_rejected_with_witness():
    sp = support.line_space([0, Fraction(1, 3), 1])
    cat = sp.category
    seq = ForwardSequence(2, EventuallyPeriodic((), (cat.hom(2, 1)[0],)))
    cone = EssentialCone(0, 1, EventuallyPeriodic((), (cat.identity[1],)))
    assert check_forward_limiting_cone(sp, seq, cone).verdict == EXACT_YES
    bad_cone = EssentialCone(0, 0, EventuallyPeriodic((), (cat.hom(1, 0)[0],)))
    cert = check_forward_limiting_cone(sp, seq, bad_cone)
    assert cert.verdict == EXACT_NO and cert.witness_index is not None


def test_cone_commutation_failure_has_witness():
    # sequence alternating between two parallel arrows with identity legs:
    # the composites through the cone differ, so the diagram cannot commute
    sp = support.parallel_pair_space(0, 0)
    cat = sp.category
    f, g = cat.hom(0, 1)
    seq = ForwardSequence(0, EventuallyPeriodic((), (f, g)))
    cone = EssentialCone(0, 1, EventuallyPeriodic((), (cat.identity[1],)))
    cert = check_forward_limiting_cone(sp, seq, cone)
    assert cert.verdict == EXACT_NO and cert.witness_index is not None


def test_weight_limit_property_on_certified_cones():
    # whenever a cone certifies, the tail arrow weights all equal the
    # limiting arrow's weight
    fixtures = []
    sp = support.line_space([0, 1])
    psi = sp.category.hom(0, 1)[0]
    fixtures.append(
        (
            sp,
            ForwardSequence(0, EventuallyPeriodic((), (psi,))),
            EssentialCone(0, 1, EventuallyPeriodic((), (sp.category.identity[1],))),
        )
    )
    sp4 = support.line_space([0, Fraction(1, 4), Fraction(1, 2), 1])
    cat4 = sp4.category
    fixtures.append(
        (
            sp4,
            ForwardSequence(
                3,
                EventuallyPeriodic(
                    (cat4.hom(3, 2)[0], cat4.hom(3, 1)[0]), (cat4.hom(3, 0)[0],)
                ),
            ),
            EssentialCone(
                0,
                0,
                EventuallyPeriodic(
                    (cat4.hom(2, 0)[0], cat4.hom(1, 0)[0]), (cat4.identity[0],)
                ),
            ),
        )
    )
    for space, seq, cone in fixtures:
        cert = check_forward_limiting_cone(space, seq, cone)
        assert cert.verdict == EXACT_YES
        mu_w = space.w[cert.limiting_arrow]
        start = seq.arrows.stable_from
        tail_weights = {
            space.w[seq.arrows.at(start + t)] for t in range(seq.arrows.cycle)
        }
        assert tail_weights == {mu_w}


def test_mediating_arrows_between_certified_cones_weigh_zero():
    sp = support.line_space([0, 1])
    cat = sp.category
    psi = cat.hom(0, 1)[0]
    seq = ForwardSequence(0, EventuallyPeriodic((), (psi,)))
    cone_a = EssentialCone(0, 1, EventuallyPeriodic((), (cat.identity[1],)))
    cone_b = EssentialCone(2, 1, EventuallyPeriodic((), (cat.identity[1],)))
    for cone in (cone_a, cone_b):
        assert check_forward_limiting_cone(sp, seq, cone).verdict == EXACT_YES
    meds = find_mediating_arrows(sp, seq, cone_a, cone_b)
    assert meds
    for h in meds:
        assert sp.w[h] == ZERO


def test_bounded_sequence_verdicts_are_horizon_limited():
    sp = support.line_space([0, 1])
    psi = sp.category.hom(0, 1)[0]
    seq = ForwardSequence(0, BoundedDescription((psi,) * 6))
    cone = EssentialCone(0, 1, BoundedDescription((sp.category.identity[1],) * 6))
    cert = check_forward_limiting_cone(sp, seq, cone)
    assert cert.verdict == TO_HORIZON


# --- partial compositions ------------------------------------------------------

def test_partials_of_identity_series_are_constant():
    sp = support.line_space([0, 1])
    ident = sp.category.identity[0]
    series = ForwardSeries(EventuallyPeriodic((), (ident,)))
    seq = partial_compositions(sp, series)
    assert seq.base == 0
    values = {seq.arrows.at(n) for n in range(6)}
    assert values == {ident}


def test_partials_alternate_in_z2():
    z2 = support.z2_space(1)
    series = ForwardSeries(EventuallyPeriodic((), (1,)))
    seq = partial_compositions(z2, series)
    assert [seq.arrows.at(n) for n in range(4)] == [1, 0, 1, 0]


def test_partials_in_single_arrow_homs_are_the_unique_arrows():
    sp = support.chain_space([1, 2, 3])
    cat = sp.category
    series = ForwardSeries(
        EventuallyPeriodic(
            (cat.hom(0, 1)[0], cat.hom(1, 2)[0], cat.hom(2, 3)[0]),
            (cat.identity[3],),
        )
    )
    seq = partial_compositions(sp, series)
    for n in range(3):
        assert seq.arrows.at(n) == cat.hom(0, n + 1)[0]
    assert seq.arrows.at(5) == cat.hom(0, 3)[0]


# --- Cauchy --------------------------------------------------------------------

def test_cauchy_trio():
    sp = support.line_space([0, 1])
    ids = ForwardSeries(EventuallyPeriodic((), (sp.category.identity[0],)))
    assert check_cauchy(sp, ids).verdict == EXACT_YES
    z2 = support.z2_space(1)
    g_series = ForwardSeries(EventuallyPeriodic((), (1,)))
    cert = check_cauchy(z2, g_series)
    assert cert.verdict == EXACT_NO and cert.witness_index is not None
    z2zero = support.z2_space(0)
    assert check_cauchy(z2zero, g_series).verdict == EXACT_YES


def test_cauchy_ignores_preperiod_windows():
    # heavy preperiod, identity tail: still Cauchy (N skips the preperiod)
    sp = support.line_space([0, 5])
    cat = sp.category
    series = ForwardSeries(
        EventuallyPeriodic((cat.hom(0, 1)[0], cat.hom(1, 0)[0]), (cat.identity[0],))
    )
    assert check_cauchy(sp, series).verdict == EXACT_YES


def test_bounded_series_cauchy_is_horizon_limited():
    z2 = support.z2_space(0)
    series = ForwardSeries(BoundedDescription((1,) * 8))
    assert check_cauchy(z2, series).verdict == TO_HORIZON


def test_bounded_series_must_compose_within_the_horizon():
    sp = support.line_space([0, 1])
    cat = sp.category
    there = cat.hom(0, 1)[0]
    series = ForwardSeries(BoundedDescription((there, there)))  # 0 -> 1, then 0 -> 1 again
    with pytest.raises(PreconditionError, match="not composable"):
        check_cauchy(sp, series)
    with pytest.raises(PreconditionError, match="not composable"):
        partial_compositions(sp, series)


# --- series limits --------------------------------------------------------------

def test_identity_series_converges_to_identity():
    sp = support.line_space([0, 1])
    ident = sp.category.identity[0]
    series = ForwardSeries(EventuallyPeriodic((), (ident,)))
    cone = EssentialCone(0, 0, EventuallyPeriodic((), (ident,)))
    cert = check_series_limit(sp, series, cone)
    assert cert.verdict == EXACT_YES and cert.limiting_arrow == ident


def test_series_limit_leg_compatibility_failure():
    # identity series in Z/2: compatibility forces mu_n == mu_{n+1}, so
    # alternating legs (id, g) fail at index 0 with a witness
    z2 = support.z2_space(0)
    series = ForwardSeries(EventuallyPeriodic((), (0,)))
    legs = EventuallyPeriodic((), (0, 1))
    cert = check_series_limit(z2, series, EssentialCone(0, 0, legs))
    assert cert.verdict == EXACT_NO and cert.witness_index is not None


def test_series_certificate_implies_cauchy_and_partials_converge():
    fixtures = []
    sp = support.line_space([0, 1])
    ident0 = sp.category.identity[0]
    fixtures.append(
        (
            sp,
            ForwardSeries(EventuallyPeriodic((), (ident0,))),
            EssentialCone(0, 0, EventuallyPeriodic((), (ident0,))),
        )
    )
    space, fun = support.halving_fixture()
    from metricat.fixedpoint import banach_iterate, find_natural_contractions

    nc = find_natural_contractions(space, fun, "forward")[0]
    outcome = banach_iterate(space, fun, nc, 2)
    fixtures.append((space, outcome.series, outcome.cone))
    for spc, series, cone in fixtures:
        cert = check_series_limit(spc, series, cone)
        assert cert.verdict == EXACT_YES
        assert check_cauchy(spc, series).verdict == EXACT_YES
        # the partial-composition sequence converges to the same mu_0
        seq = partial_compositions(spc, series)
        shifted = EssentialCone(0, cone.apex, cone.legs.drop(1))
        seq_cert = check_forward_limiting_cone(spc, seq, shifted)
        assert seq_cert.verdict == EXACT_YES
        assert seq_cert.limiting_arrow == cert.limiting_arrow


def test_truncation_preserves_certification():
    space, fun = support.halving_fixture()
    from metricat.fixedpoint import banach_iterate, find_natural_contractions

    nc = find_natural_contractions(space, fun, "forward")[0]
    outcome = banach_iterate(space, fun, nc, 2)
    series, cone = outcome.series, outcome.cone
    assert truncate_series(series, 0) == series
    for k in (1, 3):
        cert = check_series_limit(space, truncate_series(series, k), truncate_cone(cone, k))
        assert cert.verdict == EXACT_YES
    # purely periodic series truncated by its period is unchanged
    z2 = support.z2_space(0)
    per = ForwardSeries(EventuallyPeriodic((), (1, 0)))
    assert truncate_series(per, 2) == per


def test_series_converges_search():
    sp = support.line_space([0, 1])
    cat = sp.category
    series = ForwardSeries(
        EventuallyPeriodic((cat.hom(0, 1)[0],), (cat.identity[1],))
    )
    cert, cone = series_converges(sp, series)
    assert cert.verdict == EXACT_YES and cone is not None
    z2 = support.z2_space(1)
    cert, cone = series_converges(z2, ForwardSeries(EventuallyPeriodic((), (1,))))
    assert cert.verdict == EXACT_NO and cone is None


def test_cauchy_implies_convergent_on_valid_spaces():
    # finite valid spaces admit limits for every eventually periodic Cauchy
    # series (the zero-weight leg graph always closes a cycle)
    rng = random.Random(41)
    tried = 0
    for _ in range(200):
        sp = support.rand_space(rng)
        cat = sp.category
        arrows = [a.id for a in cat.arrows]
        start = rng.choice(arrows)
        period = [start]
        for _ in range(rng.randint(0, 2)):
            nxt = [b for b in arrows if cat.arrows[b].dom == cat.arrows[period[-1]].cod]
            period.append(rng.choice(nxt))
        if cat.arrows[period[-1]].cod != cat.arrows[period[0]].dom:
            continue
        series = ForwardSeries(EventuallyPeriodic((), tuple(period)))
        if check_cauchy(sp, series).verdict != EXACT_YES:
            continue
        tried += 1
        cert, cone = series_converges(sp, series)
        assert cert.verdict == EXACT_YES, cert.detail
    assert tried >= 20


# --- backward duals --------------------------------------------------------------

def test_backward_checks_mirror_forward_ones():
    sp = support.line_space([0, 1])
    cat = sp.category
    psi = cat.hom(1, 0)[0]  # arrow into the base point 0
    seq = ForwardSequence(0, EventuallyPeriodic((), (psi,)))
    cone = EssentialCone(0, 1, EventuallyPeriodic((), (cat.identity[1],)))
    cert = check_forward_limiting_cone(opposite_space(sp), seq, cone)
    assert cert.verdict == EXACT_YES and cert.limiting_arrow == psi

    z2 = support.z2_space(1)
    series = ForwardSeries(EventuallyPeriodic((), (1,)))
    assert check_cauchy(opposite_space(z2), series).verdict == EXACT_NO
    z2zero = support.z2_space(0)
    assert check_cauchy(opposite_space(z2zero), series).verdict == EXACT_YES

    ident = sp.category.identity[0]
    bseries = ForwardSeries(EventuallyPeriodic((), (ident,)))
    bcone = EssentialCone(0, 0, EventuallyPeriodic((), (ident,)))
    assert check_series_limit(opposite_space(sp), bseries, bcone).verdict == EXACT_YES

    chain = support.chain_space([1, 2])
    ccat = chain.category
    # backward series descending 2 <- ... : x_0 = 2, x_1 = 1, x_2 = 0, with
    # entries psi_n: x_{n+1} -> x_n, which in the chain are ascending arrows
    bs = ForwardSeries(
        EventuallyPeriodic((ccat.hom(1, 2)[0], ccat.hom(0, 1)[0]), (ccat.identity[0],))
    )
    bseq = partial_compositions(opposite_space(chain), bs)
    assert bseq.base == 2
    assert bseq.arrows.at(0) == ccat.hom(1, 2)[0]
    assert bseq.arrows.at(1) == ccat.hom(0, 2)[0]


def test_backward_is_forward_in_the_opposite_space():
    z2 = support.z2_space(1)
    series = ForwardSeries(EventuallyPeriodic((), (1,)))
    fwd = check_cauchy(z2, series)
    bwd = check_cauchy(opposite_space(z2), ForwardSeries(series.arrows))
    assert fwd.verdict == bwd.verdict


# --- categorical universal-property scaffolding ----------------------------------

def test_weak_pushout_existence_and_uniqueness():
    sp = support.line_space([0, 1])
    cat = sp.category
    psi = cat.hom(0, 1)[0]
    seq = ForwardSequence(0, EventuallyPeriodic((), (psi,)))
    cone = EssentialCone(0, 1, EventuallyPeriodic((), (cat.identity[1],)))
    other = EssentialCone(0, 0, EventuallyPeriodic((), (cat.hom(1, 0)[0],)))
    rep = check_weak_pushout(sp, seq, cone, [other], require_unique=True)
    assert rep.holds and rep.mediators[0] == (cat.hom(1, 0)[0],)

    # in the free arrow category nothing mediates from cod back to dom
    free = support.free_arrow_space(1)
    fcat = free.category
    fseq = ForwardSequence(0, EventuallyPeriodic((), (fcat.hom(0, 1)[0],)))
    fcone = EssentialCone(0, 1, EventuallyPeriodic((), (fcat.identity[1],)))
    fother = EssentialCone(0, 0, EventuallyPeriodic((), (fcat.identity[0],)))
    rep = check_weak_pushout(free, fseq, fcone, [fother])
    assert not rep.holds


def test_transfinite_composition_check():
    sp = support.line_space([0, 1])
    cat = sp.category
    series = ForwardSeries(EventuallyPeriodic((cat.hom(0, 1)[0],), (cat.identity[1],)))
    cone = EssentialCone(0, 1, EventuallyPeriodic((cat.hom(0, 1)[0],), (cat.identity[1],)))
    other = EssentialCone(0, 0, EventuallyPeriodic((cat.identity[0],), (cat.hom(1, 0)[0],)))
    rep = check_weak_pushout(sp, series, cone, [other], require_unique=True)
    assert rep.holds and len(rep.mediators[0]) == 1
