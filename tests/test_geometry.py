import itertools
import random
from fractions import Fraction

import pytest

from metricat import (
    FiniteMetricSpace,
    PreconditionError,
    SizeGuardError,
    is_groupoid,
)
from metricat.geometry import (
    BiLipMap,
    Gluing,
    bilip_constant,
    bilip_slice,
    bimetric_space,
    compose_gluings,
    cospan_weight_triangle_check,
    gh_distance,
    hausdorff_distance,
    identity_gluing,
    lipschitz_distance,
    log_weight,
    try_bimetric_space,
)
from metricat.metricspace import line_metric

import support


# --- bi-Lipschitz constants -----------------------------------------------------

def test_isometry_has_constant_one():
    m = line_metric([0, 1, 3])
    f = BiLipMap(m, m, (0, 1, 2))
    assert bilip_constant(f) == 1
    assert log_weight(Fraction(1)) == "0"


def test_uniform_scaling_constant():
    src = line_metric([0, 1, 3])
    dst = line_metric([0, 2, 6])
    f = BiLipMap(src, dst, (0, 1, 2))
    # oracle: the three pair ratios both ways
    ratios = []
    for i in range(3):
        for j in range(i + 1, 3):
            r = dst.d[i][j] / src.d[i][j]
            ratios += [r, 1 / r]
    assert max(ratios) == 2
    assert bilip_constant(f) == 2


def test_single_point_source_constant_one():
    one = line_metric([0])
    assert bilip_constant(BiLipMap(one, one, (0,))) == 1


def test_collapsing_map_is_rejected():
    src = line_metric([0, 1])
    dst = line_metric([0, 1])
    with pytest.raises(PreconditionError, match="bi-Lipschitz"):
        bilip_constant(BiLipMap(src, dst, (0, 0)))


# --- the bi-Lipschitz slice -------------------------------------------------------

def test_slice_of_isometric_spaces():
    a = line_metric([0, 1], labels=["p", "q"])
    b = line_metric([5, 6], labels=["r", "s"])
    sl = bilip_slice([a, b])
    assert sl.validate_multiplicative().ok
    assert sl.lawvere_factor(0, 1) == 1
    assert sl.lawvere_factor(1, 0) == 1


def test_slice_scaled_spaces_distance_three():
    a = line_metric([0, 1])
    b = line_metric([0, 3])
    sl = bilip_slice([a, b])
    assert sl.lawvere_factor(0, 1) == 3
    assert lipschitz_distance(a, b) == 3
    # both bijections realise the same constant
    factors = [sl.factor[aid] for aid, (s, t) in enumerate(sl.arrow_space) if (s, t) == (0, 1)]
    assert factors == [3, 3]


def test_slice_single_space_is_a_permutation_groupoid():
    a = line_metric([0, 1, 3])
    sl = bilip_slice([a])
    assert len(sl.category.objects) == 1
    assert len(sl.category.arrows) == 6
    assert is_groupoid(sl.category) is not None
    assert sl.validate_multiplicative().ok
    assert sl.canonical_dagger_iso()


def test_slice_lawvere_factors_are_symmetric():
    rng = random.Random(73)
    spaces = [support.rand_metric(rng, 2), support.rand_metric(rng, 2),
              support.rand_metric(rng, 3)]
    sl = bilip_slice(spaces)
    assert sl.validate_multiplicative().ok
    assert is_groupoid(sl.category) is not None
    assert sl.canonical_dagger_iso()
    for i in range(3):
        for j in range(3):
            assert sl.lawvere_factor(i, j) == sl.lawvere_factor(j, i)


def test_seven_point_lipschitz_distance_is_the_least_constant_of_all_bijections():
    rng = random.Random(7)
    x, y = support.rand_metric(rng, 7), support.rand_metric(rng, 7)
    bijections = itertools.permutations(range(7))
    assert lipschitz_distance(x, y) == min(bilip_constant(BiLipMap(x, y, p)) for p in bijections)


def test_slice_guard():
    a = support.rand_metric(random.Random(1), 4)
    with pytest.raises(SizeGuardError):
        bilip_slice([a, a], guard=10)


# --- Hausdorff --------------------------------------------------------------------

def test_hausdorff_examples():
    z = line_metric([0, 1, 5])
    assert hausdorff_distance(z, [0, 1], [0, 1]) == 0
    assert hausdorff_distance(z, [0], [2]) == 5
    assert hausdorff_distance(z, [0], [0, 2]) == 5
    with pytest.raises(PreconditionError):
        hausdorff_distance(z, [], [0])


# --- Gromov-Hausdorff ---------------------------------------------------------------

def test_gh_of_isometric_spaces_is_zero():
    a = line_metric([0, 1, 3])
    b = line_metric([10, 11, 13])
    assert gh_distance(a, b) == 0
    assert gh_distance(a, a) == 0


def test_gh_point_against_two_points():
    one = line_metric([0])
    for a in (Fraction(5), Fraction(7, 2)):
        two = line_metric([0, a])
        assert gh_distance(one, two) == a / 2
        assert gh_distance(two, one) == a / 2


def test_gh_two_point_spaces():
    # oracle: enumerate correspondences directly; there are three with full
    # projections on 2x2 and the best is the matching with distortion |a-b|
    a, b = Fraction(5), Fraction(2)
    x = line_metric([0, a])
    y = line_metric([0, b])
    best = None
    pts = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for size in range(1, 5):
        for rel in itertools.combinations(pts, size):
            if {p for p, _ in rel} != {0, 1} or {q for _, q in rel} != {0, 1}:
                continue
            dis = max(
                abs(x.d[p1][p2] - y.d[q1][q2])
                for (p1, q1) in rel
                for (p2, q2) in rel
            )
            best = dis if best is None else min(best, dis)
    assert best == a - b
    assert gh_distance(x, y) == (a - b) / 2


def test_gh_symmetry_and_guard():
    rng = random.Random(79)
    x = support.rand_metric(rng, 3)
    y = support.rand_metric(rng, 4)
    assert gh_distance(x, y) == gh_distance(y, x)
    # the guard counts work, not points: 7x3 is admitted, 10x10 is not
    big = support.rand_metric(rng, 7)
    assert gh_distance(big, x) == gh_distance(x, big) == 1
    with pytest.raises(SizeGuardError, match="exceeded its budget of 300000 half-map steps"):
        gh_distance(support.rand_metric(rng, 10), support.rand_metric(rng, 10))


def test_gh_rejects_a_matrix_that_breaks_the_triangle_inequality():
    # the dataclass constructor skips the checks of from_matrix
    bent = FiniteMetricSpace(
        ("a", "b", "c"),
        tuple(tuple(Fraction(v) for v in row) for row in ((0, 1, 5), (1, 0, 1), (5, 1, 0))),
    )
    with pytest.raises(PreconditionError, match="triangle inequality"):
        gh_distance(bent, line_metric([0, 1]))
    with pytest.raises(PreconditionError, match="y is not a metric space"):
        gh_distance(line_metric([0, 1]), bent)


def test_gh_routes_agree_on_a_corpus():
    rng = random.Random(83)
    spaces = [support.rand_metric(rng, rng.randint(1, 4)) for _ in range(8)]
    # gh_distance asserts internal agreement of both routes on every call
    values = {}
    for i, x in enumerate(spaces):
        for j, y in enumerate(spaces):
            if i <= j:
                values[(i, j)] = gh_distance(x, y)
    # triangle inequality over the corpus
    n = len(spaces)
    def v(i, j):
        return values[(min(i, j), max(i, j))]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert v(i, k) <= v(i, j) + v(j, k)


# --- gluings and cospans --------------------------------------------------------------

def test_identity_gluing_weights_zero():
    x = line_metric([0, 2])
    g = identity_gluing(x)
    assert g.errors() == []
    assert g.hausdorff() == 0
    ok, detail = cospan_weight_triangle_check(g, g)
    assert ok and "0" in detail


def test_random_ambient_gluings_are_valid_and_compose():
    rng = random.Random(89)
    for _ in range(15):
        n, m, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        coords = sorted(rng.sample(range(0, 40), n + m + k))
        ambient = [Fraction(c) for c in coords]
        xs, ys, zs = ambient[:n], ambient[n : n + m], ambient[n + m :]
        def space(cs, tag):
            return FiniteMetricSpace.from_matrix(
                [f"{tag}{i}" for i in range(len(cs))],
                [[abs(a - b) for b in cs] for a in cs],
            )
        x, y, z = space(xs, "x"), space(ys, "y"), space(zs, "z")
        g1 = Gluing(x, y, tuple(tuple(abs(a - b) for b in ys) for a in xs))
        g2 = Gluing(y, z, tuple(tuple(abs(a - b) for b in zs) for a in ys))
        assert g1.errors() == [] and g2.errors() == []
        ok, detail = cospan_weight_triangle_check(g1, g2)
        assert ok, detail


def test_invalid_gluing_is_reported():
    x = line_metric([0, 10])
    y = line_metric([0])
    g = Gluing(x, y, ((Fraction(1),), (Fraction(1),)))
    errs = g.errors()
    assert errs and any("d(0,1) > r" in e for e in errs)
    with pytest.raises(PreconditionError):
        cospan_weight_triangle_check(g, identity_gluing(y))


def test_skipping_the_repair_is_flagged():
    # raw min-sum cross distances without the shortest-path repair can break
    # the mixed triangles; the composed amalgam must be re-validated
    x = line_metric([0, 4])
    y = line_metric([0])
    z = line_metric([0, 4])
    g1 = Gluing(x, y, ((Fraction(2),), (Fraction(2),)))
    g2 = Gluing(y, z, ((Fraction(2), Fraction(2)),))
    assert g1.errors() == [] and g2.errors() == []
    composed, notes = compose_gluings(g1, g2)
    assert composed.errors() == []  # after repair everything holds
    raw_cross = tuple(
        tuple(min(g1.cross[i][t] + g2.cross[t][j] for t in range(1)) for j in range(2))
        for i in range(2)
    )
    raw = Gluing(x, z, raw_cross)
    assert raw.errors() == []  # this particular raw min-sum happens to hold
    ok, _ = cospan_weight_triangle_check(g1, g2)
    assert ok


# --- bi-metric spaces ------------------------------------------------------------------

def test_bimetric_accepts_metric_with_h_zero():
    d = {(0, 1): Fraction(3), (1, 0): Fraction(3)}
    sp = bimetric_space(2, d, d, Fraction(0))
    from metricat import validate_metric1

    assert validate_metric1(sp).ok
    minus_xx = [a.id for a in sp.category.arrows if a.label == "-1_00"][0]
    assert sp.w[minus_xx].to_json() == "0"


def test_bimetric_boundary_case_accepted():
    a1 = {(0, 1): Fraction(1), (1, 0): Fraction(1)}
    a2 = {(0, 1): Fraction(2), (1, 0): Fraction(2)}
    sp, report = try_bimetric_space(2, a1, a2, Fraction(1))
    assert sp is not None and report.ok


def test_bimetric_violation_rejected_with_instances():
    a1 = {(0, 1): Fraction(1), (1, 0): Fraction(1)}
    a2 = {(0, 1): Fraction(5), (1, 0): Fraction(5)}
    sp, report = try_bimetric_space(2, a1, a2, Fraction(1))
    assert sp is None
    assert any("full triangle" in v for v in report.violations)
    with pytest.raises(PreconditionError, match="violated"):
        bimetric_space(2, a1, a2, Fraction(1))


def test_bimetric_requires_all_pairs():
    with pytest.raises(PreconditionError, match="missing"):
        try_bimetric_space(2, {}, {}, Fraction(0))
