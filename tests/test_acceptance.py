"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test finishes by printing a PASS line (straight to the real stdout so
the lines show up under pytest's capture); a failed assertion inside a test
is the corresponding FAIL.
"""
import math
import random
from fractions import Fraction

from metricat import (
    Weight,
    ZERO,
    from_metric_space,
    indiscrete,
    is_groupoid,
    lawvere,
    opposite_functor,
    opposite_space,
    validate_functor,
    validate_metric1,
)
from metricat.coarse import (
    CoarseGenerators,
    bounded_generators,
    coarse_roundtrip_check,
    metrize,
)
from metricat.continuity import (
    BACKWARD,
    FORWARD,
    epsdelta_at_arrow,
    epsdelta_at_object,
    epsdelta_uniform,
    forward_continuous,
    forward_continuous_at_arrow,
    object_continuity,
    uniformly_continuous,
)
from metricat.dagger import SymmetryClass, symmetry_hierarchy
from metricat.fixedpoint import banach_iterate, find_natural_contractions
from metricat.geometry import (
    bilip_slice,
    gh_distance,
    lipschitz_distance,
    try_bimetric_space,
    _gh_correspondences,
    _gh_gluings,
)
from metricat.limits import (
    EXACT_YES,
    EssentialCone,
    EventuallyPeriodic,
    ForwardSequence,
    check_cauchy,
    check_forward_limiting_cone,
    check_series_limit,
    find_mediating_arrows,
    truncate_cone,
    truncate_series,
)
from metricat.mapping import enumerate_functors, mapping_space
from metricat.metricspace import line_metric

import support


def report(line: str) -> None:
    from conftest import register_acceptance_line

    register_acceptance_line(line)
    print(line)


def test_criterion_01_axiom_equivalence():
    # reflexive weights on indiscrete categories satisfying the restricted
    # triangle inequality: symmetric iff the full-triangle validator passes
    rng = random.Random(101)
    cases = symmetric_seen = asymmetric_seen = 0
    while cases < 500:
        n = rng.randint(2, 4)
        matrix = support.rand_reflexive_restricted(rng, n, symmetric=rng.random() < 0.5)
        sp = support.indiscrete_space(matrix)
        symmetric = all(
            matrix[i][j] == matrix[j][i] for i in range(n) for j in range(n)
        )
        assert validate_metric1(sp).ok == symmetric
        symmetric_seen += symmetric
        asymmetric_seen += not symmetric
        cases += 1
    assert symmetric_seen >= 100 and asymmetric_seen >= 100
    report(f"criterion 1 (axiom equivalence, {cases} cases): PASS")


def test_criterion_02_isomorphism_weights():
    rng = random.Random(102)
    cases = inverses_checked = 0
    while cases < 200:
        sp = support.rand_space(rng)
        assert validate_metric1(sp).ok
        cat = sp.category
        inv = is_groupoid(cat)
        if inv is not None:
            for a, b in inv.items():
                assert sp.w[a] == sp.w[b]
                inverses_checked += 1
        else:
            for a in cat.arrows:
                for b in cat.hom(a.cod, a.dom):
                    if (
                        cat.compose(a.id, b) == cat.identity[a.dom]
                        and cat.compose(b, a.id) == cat.identity[a.cod]
                    ):
                        assert sp.w[a.id] == sp.w[b]
                        inverses_checked += 1
        cases += 1
    assert inverses_checked > 400
    report(f"criterion 2 (isomorphism weights, {cases} spaces): PASS")


def test_criterion_03_metrization_round_trip():
    rng = random.Random(103)
    cases = 0
    while cases < 100:
        sp = support.rand_space(rng)
        assert len(sp.category.objects) <= 4
        assert len(sp.category.arrows) <= 12
        assert coarse_roundtrip_check(sp)
        assert validate_metric1(metrize(bounded_generators(sp))).ok
        cases += 1
    # the worked fixture: generators {psi_xy} forever on two points
    cat = indiscrete(2)
    psi_xy, psi_yx = cat.hom(0, 1)[0], cat.hom(1, 0)[0]
    out = metrize(CoarseGenerators(cat, (frozenset({psi_xy}),), 0))
    assert out.w[cat.identity[0]] == ZERO
    assert out.w[cat.identity[1]] == ZERO
    assert out.w[psi_xy] == Weight(1)
    assert out.w[psi_yx] == Weight(2)
    report(f"criterion 3 (metrization round trip, {cases} spaces + fixture): PASS")


def test_criterion_04_mapping_space_theorem():
    rng = random.Random(104)
    kinds = ("z2", "free_arrow", "parallel", "indiscrete", "chain", "indiscrete_degenerate")
    cases = 0
    while cases < 50:
        x = support.rand_space(rng, kinds)
        y = support.rand_space(rng, kinds)
        if len(x.category.arrows) > 4 or len(y.category.arrows) > 9:
            continue
        ms = mapping_space(x, y)
        assert validate_metric1(ms.space).ok
        cases += 1
    # [terminal, Y] is isometric to Y: the evaluation-at-the-point maps are
    # bijections on objects and arrows and preserve weights exactly
    term = support.line_space([0])
    for y in (support.z2_space(1), support.one_sided_space(),
              support.indiscrete_space([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])):
        ms = mapping_space(term, y)
        obj_of = {i: f.obj_map[0] for i, f in enumerate(ms.functors)}
        arrow_of = {k: t.components[0] for k, t in enumerate(ms.transformations)}
        assert sorted(obj_of.values()) == list(range(len(y.category.objects)))
        assert sorted(arrow_of.values()) == list(range(len(y.category.arrows)))
        for k, t in enumerate(ms.transformations):
            assert ms.space.w[k] == y.w[arrow_of[k]]
            a = ms.space.category.arrows[k]
            img = y.category.arrows[arrow_of[k]]
            assert obj_of[a.dom] == img.dom and obj_of[a.cod] == img.cod
    report(f"criterion 4 (mapping spaces, {cases} pairs + isometry checks): PASS")


def test_criterion_05_continuity_implications_and_oracle():
    z2a, z2b = support.z2_space(1), support.z2_space(0)
    ind1 = support.indiscrete_space([[0, 1], [1, 0]])
    fixtures = [
        (z2a, z2a),
        (z2b, z2a),
        (ind1, support.indiscrete_space([[0, 2], [2, 0]])),
        (ind1, ind1),
        (support.indiscrete_space([[0, 0], [0, 0]]), z2a),
        (support.free_arrow_space(1), z2a),
        (support.chain_space([0, 2]), ind1),
        (support.free_arrow_space(0), support.indiscrete_space([[0, 0], [0, 0]])),
        (support.parallel_pair_space(1, 1), z2a),
        (support.parallel_pair_space(0, 1), support.parallel_pair_space(0, 2)),
        (z2a, ind1),
    ]
    functors = oracle_checks = 0
    for src, dst in fixtures:
        for fun in enumerate_functors(src.category, dst.category):
            if not validate_functor(fun).ok:
                continue
            functors += 1
            op = (opposite_functor(fun), opposite_space(src), opposite_space(dst))
            uni = uniformly_continuous(fun, src, dst).holds
            fwd = forward_continuous(fun, src, dst).holds
            bwd = forward_continuous(*op).holds
            assert fwd == bwd == uni  # finite-space corollary
            assert epsdelta_uniform(fun, src, dst) == uni
            oracle_checks += 1
            for o in range(len(src.category.objects)):
                of = object_continuity(fun, src, dst, o, FORWARD).holds
                ob = object_continuity(fun, src, dst, o, BACKWARD).holds
                if uni:
                    assert of and ob
                assert epsdelta_at_object(fun, src, dst, o, FORWARD) == of
                assert epsdelta_at_object(fun, src, dst, o, BACKWARD) == ob
                oracle_checks += 2
            for a in src.category.arrows:
                af = forward_continuous_at_arrow(fun, src, dst, a.id).holds
                ab = forward_continuous_at_arrow(*op, a.id).holds
                if object_continuity(fun, src, dst, a.cod, FORWARD).holds:
                    assert af
                if object_continuity(fun, src, dst, a.dom, BACKWARD).holds:
                    assert ab
                assert epsdelta_at_arrow(fun, src, dst, a.id, FORWARD) == af
                assert epsdelta_at_arrow(fun, src, dst, a.id, BACKWARD) == ab
                oracle_checks += 2
    assert functors >= 30
    report(
        f"criterion 5 (continuity implications, {functors} functors, "
        f"{oracle_checks} oracle agreements): PASS"
    )


def test_criterion_06_banach():
    space, fun = support.halving_fixture()
    nc = find_natural_contractions(space, fun, FORWARD)[0]
    outcome = banach_iterate(space, fun, nc, 2)
    assert outcome.fixed.fixed_object == 0
    arrow = space.category.arrows[outcome.fixed.arrow]
    assert (arrow.dom, arrow.cod) == (2, 0)  # the arrow from the point 1 to 0
    assert space.w[outcome.fixed.arrow] == Weight(1)

    rng = random.Random(106)
    cases = 0
    while cases < 50:
        sp, f, cert = support.rand_contraction(rng)
        ncs = find_natural_contractions(sp, f, FORWARD)
        assert len(ncs) == 1  # indiscrete sources admit exactly one
        x0 = rng.randrange(len(sp.category.objects))
        out = banach_iterate(sp, f, ncs[0], x0)
        d = out.fixed.fixed_object
        assert f.obj_map[d] == d
        cat = sp.category
        assert cat.compose(ncs[0].component(x0), f.arr_map[out.fixed.arrow]) == out.fixed.arrow
        assert check_cauchy(sp, out.series).verdict == EXACT_YES
        assert check_series_limit(sp, out.series, out.cone).verdict == EXACT_YES
        cases += 1
    report(f"criterion 6 (Banach iteration, fixture + {cases} random contractions): PASS")


def certified_cone_battery():
    battery = []
    sp = support.line_space([0, 1])
    psi = sp.category.hom(0, 1)[0]
    battery.append(
        (
            sp,
            ForwardSequence(0, EventuallyPeriodic((), (psi,))),
            EssentialCone(0, 1, EventuallyPeriodic((), (sp.category.identity[1],))),
        )
    )
    sp4 = support.line_space([0, Fraction(1, 4), Fraction(1, 2), 1])
    cat4 = sp4.category
    battery.append(
        (
            sp4,
            ForwardSequence(
                3,
                EventuallyPeriodic((cat4.hom(3, 2)[0], cat4.hom(3, 1)[0]), (cat4.hom(3, 0)[0],)),
            ),
            EssentialCone(
                0,
                0,
                EventuallyPeriodic((cat4.hom(2, 0)[0], cat4.hom(1, 0)[0]), (cat4.identity[0],)),
            ),
        )
    )
    z2 = support.z2_space(0)
    battery.append(
        (
            z2,
            ForwardSequence(0, EventuallyPeriodic((), (1, 0))),
            EssentialCone(0, 0, EventuallyPeriodic((), (1, 0))),
        )
    )
    return battery


def test_criterion_07_limits():
    checked = 0
    for sp, seq, cone in certified_cone_battery():
        cert = check_forward_limiting_cone(sp, seq, cone)
        assert cert.verdict == EXACT_YES
        # weight-limit equality: the eventual arrow weights all equal w(mu)
        mu_w = sp.w[cert.limiting_arrow]
        start = seq.arrows.stable_from
        for t in range(seq.arrows.cycle):
            assert sp.w[seq.arrows.at(start + t)] == mu_w
        checked += 1
    # mediating arrows between pairs of certified cones weigh 0
    sp = support.indiscrete_space([[0, 1], [1, 0]])
    cat = sp.category
    psi = cat.hom(0, 1)[0]
    seq = ForwardSequence(0, EventuallyPeriodic((), (psi,)))
    cones = [
        EssentialCone(0, 1, EventuallyPeriodic((), (cat.identity[1],))),
        EssentialCone(3, 1, EventuallyPeriodic((), (cat.identity[1],))),
    ]
    found = 0
    for ca in cones:
        for cb in cones:
            assert check_forward_limiting_cone(sp, seq, ca).verdict == EXACT_YES
            for h in find_mediating_arrows(sp, seq, ca, cb):
                assert sp.w[h] == ZERO
                found += 1
    assert found >= 4
    # truncation preserves certification
    space, fun = support.halving_fixture()
    nc = find_natural_contractions(space, fun, FORWARD)[0]
    outcome = banach_iterate(space, fun, nc, 2)
    for k in (0, 1, 2, 3, 5):
        cert = check_series_limit(
            space, truncate_series(outcome.series, k), truncate_cone(outcome.cone, k)
        )
        assert cert.verdict == EXACT_YES
    report(f"criterion 7 (limits: weight limits, mediators, truncations): PASS")


def test_criterion_08_dagger():
    rng = random.Random(108)
    for _ in range(10):
        ms = support.rand_metric(rng, rng.randint(1, 3))
        assert symmetry_hierarchy(from_metric_space(ms)) == SymmetryClass.GROUPOIDAL
    sl = bilip_slice([line_metric([0, 1]), line_metric([0, 3]), line_metric([0, 1, 2])])
    assert is_groupoid(sl.category) is not None
    assert sl.canonical_dagger_iso()
    assert sl.validate_multiplicative().ok
    for i in range(3):
        for j in range(3):
            assert sl.lawvere_factor(i, j) == sl.lawvere_factor(j, i)
    # iso-class spaces have exactly symmetric point distances
    cases = 0
    for _ in range(60):
        sp = support.rand_space(rng)
        if symmetry_hierarchy(sp) >= SymmetryClass.ISO:
            assert lawvere(sp).is_symmetric()
            cases += 1
    assert cases >= 20
    report(f"criterion 8 (dagger hierarchy, {cases} iso-class spaces): PASS")


def test_criterion_09_geometry():
    rng = random.Random(109)
    corpus = [support.rand_metric(rng, rng.randint(1, 4)) for _ in range(30)]
    pairs = [(corpus[i], corpus[(i + 1) % 30]) for i in range(30)]
    for x, y in pairs:
        scale = math.lcm(x.scale, y.scale)
        via_corr = Fraction(_gh_correspondences(x.scaled(scale), y.scaled(scale))[0], 2 * scale)
        via_glue = _gh_gluings(x.scaled(scale), y.scaled(scale)) / scale
        assert via_corr == via_glue
        assert gh_distance(x, y) == via_corr
    one = line_metric([0])
    a = Fraction(7, 2)
    assert gh_distance(one, line_metric([0, a])) == a / 2
    assert lipschitz_distance(line_metric([0, 1]), line_metric([0, 3])) == 3
    ok_params = ((1, 2, 1), (1, 1, 0), (2, 3, 2))
    for a1, a2, h in ok_params:
        t1 = {(x, y): Fraction(a1) for x in range(2) for y in range(2) if x != y}
        t2 = {(x, y): Fraction(a2) for x in range(2) for y in range(2) if x != y}
        assert abs(a1 - a2) <= h <= a1 + a2
        sp, rep = try_bimetric_space(2, t1, t2, Fraction(h))
        assert sp is not None and rep.ok
    bad_params = ((1, 5, 1), (1, 1, 3), (2, 2, 5))
    for a1, a2, h in bad_params:
        t1 = {(x, y): Fraction(a1) for x in range(2) for y in range(2) if x != y}
        t2 = {(x, y): Fraction(a2) for x in range(2) for y in range(2) if x != y}
        assert not (abs(a1 - a2) <= h <= a1 + a2)
        sp, rep = try_bimetric_space(2, t1, t2, Fraction(h))
        assert sp is None and not rep.ok
    report("criterion 9 (geometry: 30-pair GH agreement, fixtures, bimetric gate): PASS")


def test_criterion_10_star_lemma():
    from metricat.coarse import rel_inverse, rel_star
    from test_coarse import preorder

    rng = random.Random(110)
    cases = sym_seen = asym_seen = 0
    while cases < 300:
        n = rng.randint(1, 5)
        t = preorder(rng, n, symmetric=rng.random() < 0.5)
        symmetric = rel_inverse(t).pairs == t.pairs
        star_closed = rel_star(t).pairs <= t.pairs
        assert symmetric == star_closed
        sym_seen += symmetric
        asym_seen += not symmetric
        cases += 1
    assert sym_seen >= 60 and asym_seen >= 60
    report(f"criterion 10 (star lemma, {cases} saturated families): PASS")
