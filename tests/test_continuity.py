import random

import pytest

from metricat import (
    Functor,
    PreconditionError,
    ZERO,
    identity_functor,
    opposite_functor,
    validate_functor,
)
from metricat.continuity import (
    BACKWARD,
    FORWARD,
    check_limit_preservation,
    compactness_certificate,
    epsdelta_at_arrow,
    epsdelta_at_object,
    epsdelta_uniform,
    factorizations,
    forward_continuous,
    forward_continuous_at_arrow,
    object_continuity,
    series_completeness,
    uniformly_continuous,
)
from metricat.limits import (
    EXACT_YES,
    EssentialCone,
    EventuallyPeriodic,
    ForwardSequence,
    ForwardSeries,
)
from metricat.fincat import NatTransformation
from metricat.fixedpoint import contraction_factor
from metricat.mapping import enumerate_functors, nat_weight
from metricat.weights import opposite_space

import support


def degenerate_to_z2():
    """Source: indiscrete 2-point space at distance 0 (degenerate).
    Functor collapses both points onto the Z/2 object sending the cross
    arrows to g."""
    src = support.indiscrete_space([[0, 0], [0, 0]])
    dst = support.z2_space(1)
    arr_map = {}
    for a in src.category.arrows:
        arr_map[a.id] = 0 if a.dom == a.cod else 1
    fun = Functor(src.category, dst.category, {0: 0, 1: 0}, arr_map)
    assert validate_functor(fun).ok
    return fun, src, dst


FIXTURE_PAIRS = None


def fixture_pairs():
    global FIXTURE_PAIRS
    if FIXTURE_PAIRS is None:
        z2a = support.z2_space(1)
        z2b = support.z2_space(0)
        ind = support.indiscrete_space([[0, 1], [1, 0]])
        ind2 = support.indiscrete_space([[0, 2], [2, 0]])
        degen = support.indiscrete_space([[0, 0], [0, 0]])
        free = support.free_arrow_space(1)
        chain = support.chain_space([0, 2])
        FIXTURE_PAIRS = [
            (z2a, z2a),
            (z2b, z2a),
            (ind, ind2),
            (degen, z2a),
            (degen, ind),
            (free, z2a),
            (chain, ind),
            (free, degen),
        ]
    return FIXTURE_PAIRS


def all_functors(src, dst):
    return [
        f
        for f in enumerate_functors(src.category, dst.category)
        if validate_functor(f).ok
    ]


def test_identity_functor_is_continuous_everywhere():
    for sp in (support.z2_space(1), support.indiscrete_space([[0, 1], [1, 0]]),
               support.one_sided_space()):
        fun = identity_functor(sp.category)
        op = (opposite_functor(fun), opposite_space(sp), opposite_space(sp))
        assert uniformly_continuous(fun, sp, sp).holds
        for a in sp.category.arrows:
            assert forward_continuous_at_arrow(fun, sp, sp, a.id).holds
            assert forward_continuous_at_arrow(*op, a.id).holds
        for o in range(len(sp.category.objects)):
            assert object_continuity(fun, sp, sp, o, FORWARD).holds
            assert object_continuity(fun, sp, sp, o, BACKWARD).holds


def test_collapsing_zero_weight_arrow_to_positive_fails_with_witness():
    fun, src, dst = degenerate_to_z2()
    cross = src.category.hom(0, 1)[0]
    ident0 = src.category.identity[0]
    # id_0 factors as (cross back) after (cross there); the second leg has
    # weight 0 but maps to g of weight 1
    v = forward_continuous_at_arrow(fun, src, dst, ident0)
    assert not v.holds and v.witness is not None
    vu = uniformly_continuous(fun, src, dst)
    assert not vu.holds and vu.witness == (cross,)
    vo = object_continuity(fun, src, dst, 0, FORWARD)
    assert not vo.holds


def test_nondegenerate_source_makes_every_functor_continuous():
    # enumerate factorizations and confirm only identity legs weigh 0, so
    # the criterion is vacuous except for identities, which functors fix
    for src in (support.z2_space(1), support.indiscrete_space([[0, 1], [1, 0]])):
        assert all(
            src.category.is_identity(a.id)
            for a in src.category.arrows
            if src.w[a.id] == ZERO
        )
        for dst in (support.z2_space(2), support.indiscrete_space([[0, 3], [3, 0]])):
            for fun in all_functors(src, dst):
                assert uniformly_continuous(fun, src, dst).holds
                assert forward_continuous(fun, src, dst).holds
                op = (opposite_functor(fun), opposite_space(src), opposite_space(dst))
                assert forward_continuous(*op).holds


def test_factorizations_include_trivial_ones():
    sp = support.z2_space(1)
    facts = factorizations(sp, 1)
    assert (0, 1) in facts and (1, 0) in facts  # through id on both sides
    assert (1, 1) not in facts  # g after g is id, not g


def test_implication_chain_uniform_object_arrow():
    for src, dst in fixture_pairs():
        for fun in all_functors(src, dst):
            op = (opposite_functor(fun), opposite_space(src), opposite_space(dst))
            uni = uniformly_continuous(fun, src, dst).holds
            obj_fwd = all(
                object_continuity(fun, src, dst, o, FORWARD).holds
                for o in range(len(src.category.objects))
            )
            obj_bwd = all(
                object_continuity(fun, src, dst, o, BACKWARD).holds
                for o in range(len(src.category.objects))
            )
            if uni:
                assert obj_fwd and obj_bwd
            for a in src.category.arrows:
                if object_continuity(fun, src, dst, a.cod, FORWARD).holds:
                    assert forward_continuous_at_arrow(fun, src, dst, a.id).holds
                if object_continuity(fun, src, dst, a.dom, BACKWARD).holds:
                    assert forward_continuous_at_arrow(*op, a.id).holds


def test_zero_weight_preservation_lemma():
    for src, dst in fixture_pairs():
        for fun in all_functors(src, dst):
            op = (opposite_functor(fun), opposite_space(src), opposite_space(dst))
            for a in src.category.arrows:
                if src.w[a.id] != ZERO:
                    continue
                if forward_continuous_at_arrow(fun, src, dst, a.id).holds:
                    assert dst.w[fun.arr_map[a.id]] == ZERO
                if forward_continuous_at_arrow(*op, a.id).holds:
                    assert dst.w[fun.arr_map[a.id]] == ZERO


def test_finite_spaces_make_all_continuity_notions_agree():
    for src, dst in fixture_pairs():
        for fun in all_functors(src, dst):
            op = (opposite_functor(fun), opposite_space(src), opposite_space(dst))
            f = forward_continuous(fun, src, dst).holds
            b = forward_continuous(*op).holds
            u = uniformly_continuous(fun, src, dst).holds
            assert f == b == u


def test_epsdelta_oracle_agrees_with_decidable_criteria():
    checked = 0
    for src, dst in fixture_pairs():
        for fun in all_functors(src, dst):
            op = (opposite_functor(fun), opposite_space(src), opposite_space(dst))
            assert epsdelta_uniform(fun, src, dst) == uniformly_continuous(fun, src, dst).holds
            for a in src.category.arrows:
                assert epsdelta_at_arrow(fun, src, dst, a.id, FORWARD) == \
                    forward_continuous_at_arrow(fun, src, dst, a.id).holds
                assert epsdelta_at_arrow(fun, src, dst, a.id, BACKWARD) == \
                    forward_continuous_at_arrow(*op, a.id).holds
                checked += 1
            for o in range(len(src.category.objects)):
                assert epsdelta_at_object(fun, src, dst, o, FORWARD) == \
                    object_continuity(fun, src, dst, o, FORWARD).holds
                assert epsdelta_at_object(fun, src, dst, o, BACKWARD) == \
                    object_continuity(fun, src, dst, o, BACKWARD).holds
    assert checked > 50


def test_compactness_witnesses():
    sp = support.indiscrete_space([[0, 1], [1, 0]])
    cert = compactness_certificate(sp)
    assert cert.forward_compact and cert.backward_compact and cert.object_compact
    psi = sp.category.hom(0, 1)[0]
    seq = ForwardSequence(0, EventuallyPeriodic((), (psi,)))
    wit = cert.subsequence_witness(seq)
    assert wit.certificate.verdict == EXACT_YES
    assert wit.subsequence.arrows.period == (psi,)

    # terminal category: everything trivial
    term = support.line_space([0])
    tcert = compactness_certificate(term)
    tseq = ForwardSequence(0, EventuallyPeriodic((), (0,)))
    assert tcert.subsequence_witness(tseq).certificate.verdict == EXACT_YES

    # Z/2 alternating sequence: the witness picks the first period entry
    z2 = support.z2_space(1)
    alt = ForwardSequence(0, EventuallyPeriodic((), (1, 0)))
    wit = compactness_certificate(z2).subsequence_witness(alt)
    assert wit.subsequence.arrows.period == (1,)
    assert wit.step == 2 and wit.certificate.verdict == EXACT_YES

    ow = compactness_certificate(z2).object_witness(EventuallyPeriodic((), (0,)))
    assert ow.obj == 0


def test_backward_compactness_witness():
    sp = support.indiscrete_space([[0, 1], [1, 0]])
    cert = compactness_certificate(opposite_space(sp))
    psi = sp.category.hom(1, 0)[0]
    wit = cert.subsequence_witness(ForwardSequence(0, EventuallyPeriodic((), (psi,))))
    assert wit.certificate.verdict == EXACT_YES


def test_limit_preservation_theorem_instances():
    sp = support.indiscrete_space([[0, 1], [1, 0]])
    psi = sp.category.hom(0, 1)[0]
    seq = ForwardSequence(0, EventuallyPeriodic((), (psi,)))
    cone = EssentialCone(0, 1, EventuallyPeriodic((), (sp.category.identity[1],)))
    assert check_limit_preservation(identity_functor(sp.category), sp, sp, seq, cone)

    term = support.line_space([0])
    collapse = Functor(sp.category, term.category, {0: 0, 1: 0},
                       {a.id: 0 for a in sp.category.arrows})
    assert check_limit_preservation(collapse, sp, term, seq, cone)


def test_limit_preservation_over_random_fixtures():
    rng = random.Random(17)
    count = 0
    for _ in range(60):
        src = support.rand_space(rng)
        cat = src.category
        if not cat.arrows:
            continue
        psi = rng.choice(cat.arrows).id
        seq = ForwardSequence(
            cat.arrows[psi].dom, EventuallyPeriodic((), (psi,))
        )
        cod = cat.arrows[psi].cod
        cone = EssentialCone(0, cod, EventuallyPeriodic((), (cat.identity[cod],)))
        for dst in (src, support.z2_space(1)):
            for fun in all_functors(src, dst)[:4]:
                if not forward_continuous_at_arrow(fun, src, dst, psi).holds:
                    continue
                assert check_limit_preservation(fun, src, dst, seq, cone)
                count += 1
    assert count >= 20


def test_limit_preservation_precondition_errors():
    fun, src, dst = degenerate_to_z2()
    ident0 = src.category.identity[0]
    seq = ForwardSequence(0, EventuallyPeriodic((), (ident0,)))
    cone = EssentialCone(0, 0, EventuallyPeriodic((), (ident0,)))
    with pytest.raises(PreconditionError, match="not forward continuous"):
        check_limit_preservation(fun, src, dst, seq, cone)


def test_series_completeness_labels():
    sp = support.line_space([0, 1])
    cat = sp.category
    series = ForwardSeries(EventuallyPeriodic((cat.hom(0, 1)[0],), (cat.identity[1],)))
    verdict = series_completeness(sp, series, FORWARD)
    assert verdict.scope == "eventually-periodic"
    assert verdict.cauchy.verdict == EXACT_YES
    assert verdict.holds

    z2 = support.z2_space(1)
    g_series = ForwardSeries(EventuallyPeriodic((), (1,)))
    verdict = series_completeness(z2, g_series, FORWARD)
    assert verdict.holds  # not Cauchy, so nothing to converge

    bward = series_completeness(z2, ForwardSeries(EventuallyPeriodic((), (1,))), BACKWARD)
    assert bward.holds


@pytest.mark.parametrize("psi", [-1, 4, 99])
def test_factorizations_of_an_id_outside_the_arrows_is_a_precondition(psi):
    # -1 used to read the last arrow's factorizations, and give []
    space = support.indiscrete_space([[0, 1], [1, 0]])
    with pytest.raises(PreconditionError, match=f"^arrow {psi} is not one of the 4 arrows of the category$"):
        factorizations(space, psi)


FUNCTOR_READERS = {
    "uniformly_continuous": lambda F, sp: uniformly_continuous(F, sp, sp),
    "forward_continuous": lambda F, sp: forward_continuous(F, sp, sp),
    "epsdelta_uniform": lambda F, sp: epsdelta_uniform(F, sp, sp),
    "contraction_factor": lambda F, sp: contraction_factor(sp, F),
    "nat_weight": lambda F, sp: nat_weight(
        NatTransformation(F, F, {x: sp.category.identity[x] for x in range(2)}), sp),
}


@pytest.mark.parametrize("reader", sorted(FUNCTOR_READERS))
@pytest.mark.parametrize("field, broken, named", [
    ("obj_map", {0: 0}, "object map missing or dangling at object 1"),
    ("arr_map", {}, "arrow map missing or dangling at arrow 0"),
    ("arr_map", {0: 0, 1: 1, 2: 2, 3: 9}, "arrow map missing or dangling at arrow 3"),
])
def test_a_short_or_dangling_functor_map_is_a_precondition(reader, field, broken, named):
    # these read the functor's maps, and used to end in a bare KeyError
    space = support.indiscrete_space([[0, 1], [1, 0]])
    ident = identity_functor(space.category)
    maps = {"obj_map": ident.obj_map, "arr_map": ident.arr_map, field: broken}
    bad = Functor(space.category, space.category, maps["obj_map"], maps["arr_map"])
    with pytest.raises(PreconditionError, match=f"^not a functor: {named}$"):
        FUNCTOR_READERS[reader](bad, space)


POINTWISE_READERS = {
    "forward_continuous_at_arrow": lambda F, sp: forward_continuous_at_arrow(F, sp, sp, 4),
    "object_continuity": lambda F, sp: object_continuity(F, sp, sp, 0, BACKWARD),
    "epsdelta_at_arrow": lambda F, sp: epsdelta_at_arrow(F, sp, sp, 1, FORWARD),
    "epsdelta_at_object": lambda F, sp: epsdelta_at_object(F, sp, sp, 0, FORWARD),
}


@pytest.mark.parametrize("reader", sorted(POINTWISE_READERS))
def test_pointwise_checks_refuse_an_empty_arrow_map(reader):
    # the checks at one arrow or object used to end in a bare KeyError
    space = support.line_space([0, 1, 2])
    bad = Functor(space.category, space.category, identity_functor(space.category).obj_map, {})
    with pytest.raises(PreconditionError, match="^not a functor: arrow map missing or dangling at arrow 0$"):
        POINTWISE_READERS[reader](bad, space)
