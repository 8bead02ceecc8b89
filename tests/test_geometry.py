import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from metricat import (
    FiniteMetricSpace,
    PreconditionError,
    SizeGuardError,
    TheoremViolation,
    is_groupoid,
)
from metricat import geometry
from metricat.errors import Budget
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
from metricat.metricspace import line_metric, shortest_path_repair

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
    factors = [sl.factor[aid] for aid in sl.category.hom(0, 1)]
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


def test_indices_and_labels_outside_the_space_are_refused():
    z = line_metric([0, 1, 3])
    # -1 used to read point 2 and return 3; 5 raised IndexError
    with pytest.raises(PreconditionError, match="first subset names point -1, but the space has 3"):
        hausdorff_distance(z, [-1], [0])
    with pytest.raises(PreconditionError, match="second subset names point 5"):
        hausdorff_distance(z, [0], [5])
    with pytest.raises(PreconditionError, match="point map has 2 entries for 3 source points"):
        bilip_constant(BiLipMap(z, z, (0, 1)))
    with pytest.raises(PreconditionError, match="point map names point 3"):
        bilip_constant(BiLipMap(z, z, (0, 1, 3)))
    with pytest.raises(PreconditionError, match="label count 1 must match point count 2"):
        line_metric([0, 1], ["a"])


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


def test_gh_decides_a_9x9_pair_under_the_default_budget():
    # a search over pairs of maps ran out of the budget on this pair
    rng = random.Random(1)
    x, y = support.rand_metric(rng, 9), support.rand_metric(rng, 9)
    assert gh_distance(x, y) == Fraction(7, 12)


def test_gh_places_the_larger_side_first():
    # placing a partner for each of the 4 points first leaves the 12 points
    # to complete, which runs out of the budget; the 12 points place first
    # in either argument order
    rng = random.Random(4)
    x, y = support.rand_metric(rng, 4), support.rand_metric(rng, 12)
    assert gh_distance(x, y) == gh_distance(y, x) == Fraction(7, 6)


def test_gh_rejects_a_matrix_that_breaks_the_triangle_inequality():
    # the constructor checks the axioms, so gh_distance never sees this matrix
    rows = tuple(tuple(Fraction(v) for v in row) for row in ((0, 1, 5), (1, 0, 1), (5, 1, 0)))
    with pytest.raises(PreconditionError, match="^not a metric space: triangle inequality"):
        FiniteMetricSpace(("a", "b", "c"), rows)


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


def test_a_start_at_the_diameter_floor_returns_before_any_search():
    # the 7x7 pair of seed 1 has GH 1, the diameter floor, which no onto
    # map reaches: the witness's pattern reaches it, so the gluing route
    # charges nothing; a start that is not a correspondence is still refused
    rng = random.Random(1)
    x, y = support.rand_metric(rng, 7), support.rand_metric(rng, 7)
    scale = math.lcm(x.scale, y.scale)
    dx, dy = x.scaled(scale), y.scaled(scale)
    distortion, cells = geometry._gh_correspondences(dx, dy)
    assert distortion == geometry._diameter_floor(dx, dy) == 2 * scale
    budget = Budget()
    assert geometry._gh_gluings(dx, dy, budget, cells) == scale
    assert budget.used == 0
    with pytest.raises(TheoremViolation, match="not a correspondence"):
        geometry._gh_gluings(dx, dy, Budget(), [(0, y) for y in range(7)])


@pytest.mark.parametrize("shift", [-1, 1])
def test_gh_refuses_a_correspondence_value_off_by_one(monkeypatch, shift):
    # the gluing route starts from the correspondence witness but returns
    # its own exact minimum, so a correspondence value one below or one
    # above the true one, with the true witness, still disagrees with it
    rng = random.Random(61)
    x, y = support.rand_metric(rng, 4), support.rand_metric(rng, 4)
    assert gh_distance(x, y) > 0
    true_corr = geometry._gh_correspondences

    def shifted(dx, dy, budget=None):
        distortion, cells = true_corr(dx, dy, budget)
        return distortion + shift, cells

    monkeypatch.setattr(geometry, "_gh_correspondences", shifted)
    with pytest.raises(TheoremViolation, match="disagrees"):
        gh_distance(x, y)


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


# --- the library contract --------------------------------------------------------------

@st.composite
def matrices(draw):
    """Points and a distance matrix on at most 4 of them: shortest paths over
    random positive distances, then at most one defect."""
    n = draw(st.integers(1, 4))
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = Fraction(draw(st.integers(1, 6)), draw(st.sampled_from((1, 2))))
    m = shortest_path_repair(m)
    defect = draw(st.sampled_from(("none", "asymmetric", "zero", "negative", "non-square", "triangle")))
    i, j = (0, 1) if n > 1 else (0, 0)
    if defect == "asymmetric":
        m[i][j] += 1
    elif defect == "zero":
        m[i][j] = m[j][i] = Fraction(0)
    elif defect == "negative":
        m[i][j] = m[j][i] = -1 - m[i][j]
    elif defect == "non-square":
        m = m[:-1] if draw(st.booleans()) else [m[0][:-1], *m[1:]]
    elif defect == "triangle" and n > 2:
        m[0][2] = m[2][0] = m[0][1] + m[1][2] + 1
    return tuple(f"p{k}" for k in range(n)), tuple(map(tuple, m)), defect


def outcome(call):
    """What call() returns, or the metricat error it raises; any other
    exception escapes."""
    try:
        return call()
    except (PreconditionError, SizeGuardError) as exc:
        return exc


INDICES = st.lists(st.integers(-2, 5), max_size=5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrices(), matrices(), INDICES, INDICES, INDICES,
       st.lists(st.integers(-1, 3), max_size=4), st.none() | st.integers(0, 5))
def test_geometry_refuses_bad_input_with_its_own_errors(mx, my, a, b, point_map, coords, labels):
    built = []
    for points, rows, defect in (mx, my):
        space = outcome(lambda: FiniteMetricSpace(points, rows))
        assert type(outcome(lambda: FiniteMetricSpace.from_matrix(points, rows))) is type(space)
        assert defect != "none" or isinstance(space, FiniteMetricSpace)
        built.append(space)
    built.append(outcome(lambda: line_metric(coords, None if labels is None else list("abcde")[:labels])))
    # the empty space, whose gluings have an empty half
    spaces = [s for s in built if isinstance(s, FiniteMetricSpace)] + [FiniteMetricSpace((), ())]
    outcome(lambda: bilip_slice(spaces))
    for s in spaces:
        outcome(lambda: hausdorff_distance(s, a, b))
        outcome(lambda: cospan_weight_triangle_check(identity_gluing(s), identity_gluing(s)))
        for t in spaces:
            outcome(lambda: bilip_constant(BiLipMap(s, t, tuple(point_map))))
            outcome(lambda: lipschitz_distance(s, t))
            outcome(lambda: gh_distance(s, t))
