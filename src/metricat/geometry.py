"""Classical-metric geometry: bi-Lipschitz slices, Hausdorff and
Gromov-Hausdorff distances, cospan composition, and bi-metric spaces.

The Gromov-Hausdorff distance is computed along two independent routes, on a
common integer rescaling of both matrices, that are required to agree exactly:

* gluing route: minimise the Hausdorff distance over semimetric gluings of
  the disjoint union, i.e. over cross matrices r satisfying every mixed
  triangle inequality.  For a fixed "assignment pattern" (a nearest-point
  witness n(x) in Y per x and m(y) in X per y) this is a rational linear
  program with a closed form.  The mixed upper triangles are difference
  constraints r_p <= r_q + w on the grid of cells (x, y), the product of X
  and Y, whose shortest paths are sp((x,y), (x',y')) = d(x,x') + d(y,y') by
  the triangle inequality.  For a cap h on the designated cells D the
  pointwise-largest feasible r is r_p = h + sp(D, p), and the mixed lower
  triangles r_p + r_q >= v then give per pattern
  h*(D) = max(0, max over lower triangles (v - sp(D,p) - sp(D,q)) / 2).

* correspondence route: half the minimal distortion over correspondences.
  Any correspondence contains one of the form graph(f) union
  transpose-graph(g), and shrinking it never increases distortion, so the
  pairs of maps (f, g) are exhaustive.

Each route keeps the least value found so far (the incumbent) and skips
only what provably cannot beat it, so the minimum is unchanged:

* half maps.  A pattern's D is the union of the cells of f and of g, so
  sp(D, p) <= sp(f, p) and 2 h*(D) >= LB(f) = max over lower triangles of
  v - sp(f,p) - sp(f,q); graph(f) union transpose-graph(g) has distortion at
  least dis(f).  Both bounds never fall as a partial map grows: a new cell
  only lowers sp(D, p), and a distortion is a maximum over more pairs.  So a
  depth-first search builds f and g, cutting a prefix with every completion
  once its bound reaches the incumbent.  Pairing an onto f with a section g
  of it (g(y) in f^-1(y)) designates only the cells of f and induces the
  correspondence graph(f), so f's own bound is attained: each onto map the
  search completes lowers the incumbent to it.

* pair scans.  The kept f and g are scanned in bound order; a loop stops
  once the bound reaches the incumbent, and the scan of one pair once its
  partial maximum does.

* the diameter bound GH(X, Y) >= |diam X - diam Y| / 2 (Burago-Burago-
  Ivanov, A Course in Metric Geometry, 2001): a correspondence pairs the
  two points realising diam X with points at most diam Y apart, and the
  other way round, so its distortion is at least |diam X - diam Y|; and
  every pattern's h is at least their minimum, GH.  Every bound is raised to
  it, so no lower triangle with v below it binds, and the searches and both
  pair scans stop once the incumbent reaches it.

The Lipschitz distance is likewise a branch-and-bound over bijections that
cuts a branch once the constant of its fixed pairs reaches the best found,
and stops once the best reaches the diameter floor
max(diam X / diam Y, diam Y / diam X).
Each call charges one work budget (`errors.Budget`): GH `width` units per
half-map extension and one per pair of maps scanned, Lipschitz one per
extension, a slice or bi-metric space its arrows and composition entries.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, sub

from .errors import Budget, PreconditionError, TheoremViolation
from .fincat import Arrow, FiniteCategory, Obj, ValidationReport
from .metricspace import FiniteMetricSpace, shortest_path_repair
from .weight import Weight, common_denominator
from .weights import Metric1Space, validate_metric1


# --- bi-Lipschitz ------------------------------------------------------------

@dataclass(frozen=True)
class BiLipMap:
    source: FiniteMetricSpace
    target: FiniteMetricSpace
    point_map: tuple[int, ...]


def bilip_constant(f: BiLipMap) -> Fraction:
    """Smallest C with distances distorted by at most a factor C each way:
    the max over point pairs of the ratio and its reciprocal.  Always >= 1;
    1 for sources with fewer than two points."""
    n = len(f.source.points)
    best = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            d_src = f.source.d[i][j]
            d_dst = f.target.d[f.point_map[i]][f.point_map[j]]
            if d_dst == 0:
                raise PreconditionError(
                    f"not bi-Lipschitz: points {i},{j} collapse to distance 0"
                )
            best = max(best, d_dst / d_src, d_src / d_dst)
    return best


def log_weight(c: Fraction) -> str:
    """Display form of the additive weight ln C, 12 significant digits.
    All comparisons elsewhere stay multiplicative and exact."""
    return f"{math.log(c):.12g}"


@dataclass
class BiLipSlice:
    """A groupoid of bi-Lipschitz bijections between finitely many spaces,
    weighted multiplicatively by the exact constants C (the additive
    picture would need ln C, which is irrational; the multiplicative
    triangle below is its exact equivalent)."""

    category: FiniteCategory
    spaces: list[FiniteMetricSpace]
    arrow_space: tuple[tuple[int, int], ...]  # arrow id -> (source idx, target idx)
    arrow_perm: tuple[tuple[int, ...], ...]  # arrow id -> point bijection
    factor: tuple[Fraction, ...]  # arrow id -> C

    def validate_multiplicative(self) -> ValidationReport:
        """Identities carry factor 1; every composable pair satisfies
        max(Cf/Cg, Cg/Cf) <= C(g after f) <= Cf * Cg."""
        report = ValidationReport(subject="bi-Lipschitz slice")
        cat = self.category
        for x, ida in cat.identity.items():
            if self.factor[ida] != 1:
                report.violations.append(f"identity at object {x} has factor {self.factor[ida]}")
        for f, g in cat.composable_pairs():
            cf, cg = self.factor[f], self.factor[g]
            cc = self.factor[cat.compose(f, g)]
            if cc > cf * cg or cc < max(cf / cg, cg / cf):
                report.violations.append(
                    f"multiplicative triangle fails on ({f},{g}): "
                    f"{max(cf / cg, cg / cf)} <= {cc} <= {cf * cg}"
                )
        return report

    def lawvere_factor(self, i: int, j: int) -> Fraction | None:
        """Least constant among maps space i -> space j (the Lipschitz
        distance between them, multiplicatively); None when no bijections
        exist."""
        best = None
        for aid, (s, t) in enumerate(self.arrow_space):
            if (s, t) == (i, j) and (best is None or self.factor[aid] < best):
                best = self.factor[aid]
        return best

    def canonical_dagger_iso(self) -> bool:
        """The inverse-bijection dagger preserves the factors."""
        from .fincat import is_groupoid

        inv = is_groupoid(self.category)
        if inv is None:
            return False
        return all(self.factor[inv[a]] == self.factor[a] for a in range(len(self.factor)))


def bilip_slice(spaces: list[FiniteMetricSpace], guard: int | Budget | None = None) -> BiLipSlice:
    """The slice of the bi-Lipschitz groupoid spanned by the given spaces:
    all bijections between them (on finite spaces with positive distances
    every bijection is bi-Lipschitz), weighted by their exact constants.
    Its arrows and composition entries are charged to the work budget
    `guard` (`errors.DEFAULT_BUDGET` when None) before any is built."""
    budget, sizes = Budget.of(guard), [len(a.points) for a in spaces]
    into = [math.factorial(k) * sizes.count(k) for k in sizes]  # arrows into, and out of, each space
    budget.spend(sum(into), "bi-Lipschitz slice", "arrows")
    budget.spend(sum(c * c for c in into), "bi-Lipschitz slice", "composition entries")

    objs = tuple(Obj(i, f"S{i}") for i in range(len(spaces)))
    arrows: list[Arrow] = []
    arrow_space: list[tuple[int, int]] = []
    arrow_perm: list[tuple[int, ...]] = []
    index: dict[tuple[int, int, tuple[int, ...]], int] = {}
    for i, a in enumerate(spaces):
        for j, b in enumerate(spaces):
            if len(a.points) != len(b.points):
                continue
            for perm in itertools.permutations(range(len(a.points))):
                aid = len(arrows)
                arrows.append(Arrow(aid, i, j))
                arrow_space.append((i, j))
                arrow_perm.append(perm)
                index[(i, j, perm)] = aid
    identity = {
        i: index[(i, i, tuple(range(len(spaces[i].points))))] for i in range(len(spaces))
    }
    composition = {}
    for f_id, (i, j) in enumerate(arrow_space):
        for g_id, (j2, k) in enumerate(arrow_space):
            if j != j2:
                continue
            perm = tuple(arrow_perm[g_id][p] for p in arrow_perm[f_id])
            composition[(f_id, g_id)] = index[(i, k, perm)]
    cat = FiniteCategory(objs, tuple(arrows), identity, composition)
    factors = tuple(
        bilip_constant(BiLipMap(spaces[s], spaces[t], arrow_perm[aid]))
        for aid, (s, t) in enumerate(arrow_space)
    )
    return BiLipSlice(cat, list(spaces), tuple(arrow_space), tuple(arrow_perm), factors)


def lipschitz_distance(x: FiniteMetricSpace, y: FiniteMetricSpace) -> Fraction:
    """Least bi-Lipschitz constant among bijections x -> y, reported
    multiplicatively (its logarithm is the usual additive distance).

    A depth-first branch-and-bound: the points of x are assigned in order,
    each branch carries the exact constant of the pairs it has fixed, and it
    is cut once that constant reaches the best bijection found, since fixing
    more pairs never lowers a maximum.  The search stops once the best
    reaches the diameter floor max(diam x / diam y, diam y / diam x): a
    bijection sends the two points realising diam x to points at most
    diam y apart, and its inverse does the same the other way round."""
    n = len(x.points)
    if n != len(y.points):
        raise PreconditionError("no bijections between spaces of different sizes")
    budget = Budget()
    scale = _common_scale(x, y)
    dx, dy = _int_matrix(x, scale), _int_matrix(y, scale)
    diameters = max(map(max, dx), default=0), max(map(max, dy), default=0)
    floor_num, floor_den = max(diameters), min(diameters)
    image = [0] * n
    free = [True] * n
    best = None  # (numerator, denominator) of the least constant found

    def extend(k: int, num: int, den: int) -> bool:
        """Search below the first k points; True once the best found
        reaches the floor."""
        nonlocal best
        budget.spend(1, "Lipschitz search", "extensions")
        if k == n:
            best = (num, den)
            return num * floor_den <= floor_num * den
        for t in range(n):
            if not free[t]:
                continue
            c_num, c_den = num, den
            for i in range(k):
                a, b = dx[i][k], dy[image[i]][t]
                hi, lo = (a, b) if a > b else (b, a)
                if hi * c_den > c_num * lo:
                    c_num, c_den = hi, lo
            if best is not None and c_num * best[1] >= best[0] * c_den:
                continue
            image[k], free[t] = t, False
            done = extend(k + 1, c_num, c_den)
            free[t] = True
            if done:
                return True
        return False

    extend(0, 1, 1)
    if best is None:
        raise TheoremViolation("equal-size spaces have a bijection, but none was scanned")
    return Fraction(*best)


# --- Hausdorff and Gromov-Hausdorff ------------------------------------------

def hausdorff_distance(space: FiniteMetricSpace, a: list[int], b: list[int]) -> Fraction:
    """max(max_{p in a} min_{q in b} d, max_{q in b} min_{p in a} d):
    the closed form of the smallest r with each set inside the r-ball
    neighbourhood of the other."""
    if not a or not b:
        raise PreconditionError("Hausdorff distance needs non-empty subsets")
    one = max(min(space.d[p][q] for q in b) for p in a)
    two = max(min(space.d[p][q] for p in a) for q in b)
    return max(one, two)


def _common_scale(x: FiniteMetricSpace, y: FiniteMetricSpace) -> int:
    return common_denominator(v for space in (x, y) for row in space.d for v in row)


def _int_matrix(space: FiniteMetricSpace, scale: int) -> list[list[int]]:
    return [[int(v * scale) for v in row] for row in space.d]


def _diameter_floor(dx: list[list[int]], dy: list[list[int]]) -> int:
    """|diam X - diam Y| in the integer scale: a lower bound on every
    correspondence distortion and on twice every gluing pattern's h (see
    module docstring)."""
    return abs(max(map(max, dx)) - max(map(max, dy)))


def _bounded_maps(length, width, step, cap, budget, phase):
    """The maps range(length) -> range(width) a depth-first search completes
    below cap[0], as (bound, map, state), least bound first.  `step(state,
    prefix, j)` gives the (bound, state) of `prefix` extended by j (state
    None for the empty prefix).  A prefix is cut once its bound reaches
    cap[0]; a completed onto map lowers cap[0] to its bound.  Each
    extension charges `budget` its `width` steps."""
    kept, prefix = [], []

    def extend(state, covered):
        budget.spend(width, phase, "half-map steps")
        children = [(*step(state, prefix, j), j) for j in range(width)]
        children.sort(key=itemgetter(0))  # least bound first: low caps come early
        for bound, child, j in children:
            if bound >= cap[0]:
                break
            onto = covered + (j not in prefix)
            if len(prefix) + 1 == length:
                kept.append((bound, (*prefix, j), child))
                if onto == width:
                    cap[0] = bound
            else:
                prefix.append(j)
                extend(child, onto)
                prefix.pop()

    extend(None, 0)
    kept.sort(key=itemgetter(0))
    return kept


def _distortion_step(d_src: list[list[int]], d_dst: list[list[int]], floor: int):
    """Search step for maps src -> dst: bound and state are the distortion
    of the fixed pairs, raised to the diameter bound."""

    def step(dis, prefix, j):
        row = d_dst[j]
        fixed = map(abs, map(sub, d_src[len(prefix)], map(row.__getitem__, prefix)))
        dis = max(dis, *fixed) if prefix else floor
        return dis, dis

    return step


def _gh_correspondences(dx: list[list[int]], dy: list[list[int]], budget=None) -> int:
    """Minimal distortion over correspondences, in the integer scale.

    Scans pairs (f: X -> Y, g: Y -> X); the induced correspondence is
    graph(f) union transposed graph(g), and this family realises the
    minimum (see module docstring).  Its distortion is at least that of f
    and of g, so both are scanned in distortion order and cut at the
    incumbent.  The searches and the pairs scanned charge `budget` (a new
    default one when None).
    """
    n, m = len(dx), len(dy)
    budget, phase = Budget.of(budget), "Gromov-Hausdorff correspondence route"
    floor = _diameter_floor(dx, dy)
    cap = [max(map(max, dx + dy)) + 1]  # above every distortion
    f_choices = _bounded_maps(n, m, _distortion_step(dx, dy, floor), cap, budget, phase)
    g_choices = _bounded_maps(m, n, _distortion_step(dy, dx, floor), cap, budget, phase)
    best = cap[0]
    for dis_f, f, _ in f_choices:
        if best == floor or dis_f >= best:
            break
        # cross terms |d(x_i, g(y_j)) - d(f(x_i), y_j)| as (row of dx, j, value)
        cross_terms = [(dx[i], j, dy[f[i]][j]) for i in range(n) for j in range(m)]
        scanned = 0
        for dis_g, g, _ in g_choices:
            if dis_g >= best:
                break
            scanned += 1
            dis = max(dis_f, dis_g)
            for row_x, j, value in cross_terms:
                cross = abs(row_x[g[j]] - value)
                if cross > dis:
                    dis = cross
                    if dis >= best:
                        break
            else:
                best = dis
                if best == floor:
                    break
        budget.spend(scanned, phase, "map pairs")
    return best


def _gh_gluings(dx: list[list[int]], dy: list[list[int]], budget=None) -> Fraction:
    """Infimum of the Hausdorff distance over semimetric gluings, in the
    integer scale, via the per-pattern closed form explained in the module
    docstring.  Returns the exact optimum (possibly half-integral).  Charges
    `budget` as `_gh_correspondences` does."""
    n, m = len(dx), len(dy)
    budget, phase = Budget.of(budget), "Gromov-Hausdorff gluing route"
    # shortest distances on the grid of cells (x, y) = x * m + y, the product of X and Y
    sp = [[dx[x][x2] + dy[y][y2] for x2 in range(n) for y2 in range(m)]
          for x in range(n) for y in range(m)]

    # lower-bound constraints (p, q, v): r_p + r_q >= v; every bound below is
    # at least the diameter bound, so those with v <= floor never bind
    floor = _diameter_floor(dx, dy)
    lower = [(x * m + y, x2 * m + y, dx[x][x2])
             for y in range(m) for x in range(n) for x2 in range(x + 1, n)]
    lower += [(x * m + y, x * m + y2, dy[y][y2])
              for x in range(n) for y in range(m) for y2 in range(y + 1, m)]
    lower = [(p, q, v) for p, q, v in lower if v > floor]
    # two void constraints (0 - 2 r_0 <= 0) keep itemgetter returning tuples
    ps, qs, vs = zip(*lower, (0, 0, 0), (0, 0, 0))
    ps, qs = itemgetter(*ps), itemgetter(*qs)

    def pattern_step(designated):
        """Search step for half patterns: the state is the row of shortest
        distances to the designated cells, the bound LB raised to the floor."""

        def step(row, prefix, j):
            near = sp[designated(len(prefix), j)]
            if row is not None:
                near = [a if a < b else b for a, b in zip(row, near)]
            return max(floor, *map(sub, map(sub, vs, ps(near)), qs(near))), near

        return step

    # twice the optimal h in the integer scale, starting above every bound
    cap = [max(map(max, dx + dy)) + 1]
    f_rows = _bounded_maps(n, m, pattern_step(lambda x, y: x * m + y), cap, budget, phase)
    g_rows = _bounded_maps(m, n, pattern_step(lambda y, x: x * m + y), cap, budget, phase)
    best2 = cap[0]
    for bound_f, _, frow in f_rows:
        if best2 == floor or bound_f >= best2:
            break
        scanned = 0
        for bound_g, _, grow in g_rows:
            if bound_g >= best2:
                break
            scanned += 1
            worst = max(bound_f, bound_g)
            for p, q, v in lower:
                slack = v - min(frow[p], grow[p]) - min(frow[q], grow[q])
                if slack > worst:
                    worst = slack
                    if worst >= best2:
                        break
            else:
                best2 = worst
                if best2 == floor:
                    break
        budget.spend(scanned, phase, "map pairs")
    return Fraction(best2, 2)


def gh_distance(x: FiniteMetricSpace, y: FiniteMetricSpace) -> Fraction:
    """Gromov-Hausdorff distance, computed along both routes; exact
    agreement between them is asserted on every call.  Both routes charge
    one work budget and fail with SizeGuardError past it."""
    if not x.points or not y.points:
        raise PreconditionError("Gromov-Hausdorff distance needs non-empty spaces")
    # the gluing route's grid distances are a closed form only on metrics
    for name, space in (("x", x), ("y", y)):
        errs = space.metric_errors()
        if errs:
            raise PreconditionError(f"{name} is not a metric space: " + "; ".join(errs))
    scale = _common_scale(x, y)
    dx, dy = _int_matrix(x, scale), _int_matrix(y, scale)
    budget = Budget()
    via_corr = Fraction(_gh_correspondences(dx, dy, budget), 2 * scale)
    via_glue = _gh_gluings(dx, dy, budget) / scale
    if via_corr != via_glue:
        raise TheoremViolation(
            f"gluing route {via_glue} disagrees with correspondence route {via_corr}"
        )
    return via_corr


# --- gluings and cospan composition ------------------------------------------

@dataclass
class Gluing:
    """A cross matrix turning the disjoint union of two spaces into a
    semimetric: every mixed triangle inequality holds.  Zero cross
    distances are allowed (the Hausdorff objective is continuous in the
    cross matrix, so the semimetric optimum realises the infimum over
    honest metric gluings)."""

    x_space: FiniteMetricSpace
    y_space: FiniteMetricSpace
    cross: tuple[tuple[Fraction, ...], ...]

    def errors(self) -> list[str]:
        errs = []
        n, m = len(self.x_space.points), len(self.y_space.points)
        r = self.cross
        dx, dy = self.x_space.d, self.y_space.d
        if len(r) != n or any(len(row) != m for row in r):
            return [f"cross matrix is not {n}x{m}"]
        for x in range(n):
            for y in range(m):
                if r[x][y] < 0:
                    errs.append(f"negative cross distance at ({x},{y})")
        for x in range(n):
            for x2 in range(n):
                for y in range(m):
                    if r[x][y] > dx[x][x2] + r[x2][y]:
                        errs.append(f"r({x},{y}) > d({x},{x2}) + r({x2},{y})")
                    if x < x2 and dx[x][x2] > r[x][y] + r[x2][y]:
                        errs.append(f"d({x},{x2}) > r({x},{y}) + r({x2},{y})")
        for y in range(m):
            for y2 in range(m):
                for x in range(n):
                    if r[x][y] > r[x][y2] + dy[y2][y]:
                        errs.append(f"r({x},{y}) > r({x},{y2}) + d({y2},{y})")
                    if y < y2 and dy[y][y2] > r[x][y] + r[x][y2]:
                        errs.append(f"d({y},{y2}) > r({x},{y}) + r({x},{y2})")
        return errs

    def hausdorff(self) -> Fraction:
        """Hausdorff distance between the two halves inside the gluing."""
        one = max(min(row) for row in self.cross)
        two = max(min(self.cross[x][y] for x in range(len(self.cross))) for y in range(len(self.cross[0])))
        return max(one, two)


def identity_gluing(space: FiniteMetricSpace) -> Gluing:
    return Gluing(space, space, tuple(tuple(row) for row in space.d))


def compose_gluings(g1: Gluing, g2: Gluing) -> tuple[Gluing, list[str]]:
    """Metric amalgamation over the shared middle space: the composed cross
    distance is min over middle points of the two leg distances, then the
    whole three-block matrix is repaired to shortest paths (the quotient
    convention for the pushout of isometric embeddings).  Returns the
    composed gluing plus any degeneracy notes (distinct points at repaired
    distance 0)."""
    if g1.y_space != g2.x_space:
        raise PreconditionError("gluings do not share their middle space")
    X, Y, Z = g1.x_space, g1.y_space, g2.y_space
    n, k, m = len(X.points), len(Y.points), len(Z.points)
    size = n + k + m
    r1, r2 = g1.cross, g2.cross
    # points ordered X, then Y, then Z; X and Z meet through the middle
    xz = [[min(r1[x][y] + r2[y][z] for y in range(k)) for z in range(m)] for x in range(n)]
    raw = (
        [[*X.d[x], *r1[x], *xz[x]] for x in range(n)]
        + [[*(r1[x][y] for x in range(n)), *Y.d[y], *r2[y]] for y in range(k)]
        + [[*(xz[x][z] for x in range(n)), *(r2[y][z] for y in range(k)), *Z.d[z]] for z in range(m)]
    )
    repaired = shortest_path_repair(raw)
    notes = []
    for i in range(size):
        for j in range(i + 1, size):
            if repaired[i][j] == 0:
                notes.append(f"amalgam identifies points {i} and {j}")
    cross = tuple(tuple(repaired[i][n + k + j] for j in range(m)) for i in range(n))
    return Gluing(X, Z, cross), notes


def cospan_weight_triangle_check(g1: Gluing, g2: Gluing) -> tuple[bool, str]:
    """Weights of two cospans and of their composite satisfy the full
    triangle inequality; expected to hold for every pair of valid gluings."""
    errs = g1.errors() + g2.errors()
    if errs:
        raise PreconditionError("invalid gluing: " + "; ".join(errs))
    composed, notes = compose_gluings(g1, g2)
    comp_errors = composed.errors()
    if comp_errors:
        return False, "composed amalgam invalid: " + "; ".join(comp_errors)
    w1, w2 = g1.hausdorff(), g2.hausdorff()
    w12 = composed.hausdorff()
    if w12 > w1 + w2:
        return False, f"upper triangle fails: {w12} > {w1} + {w2}"
    if abs(w1 - w2) > w12:
        return False, f"lower triangle fails: |{w1} - {w2}| > {w12}"
    detail = f"weights {w1}, {w2}, composite {w12}"
    if notes:
        detail += "; " + "; ".join(notes)
    return True, detail


# --- bi-metric spaces ---------------------------------------------------------

def try_bimetric_space(
    n: int,
    a1: dict[tuple[int, int], Fraction],
    a2: dict[tuple[int, int], Fraction],
    h: Fraction,
) -> tuple[Metric1Space | None, ValidationReport]:
    """Two arrows of each sign between any two objects, composing by sign
    multiplication; +1 on the diagonal is the identity (weight 0) and -1
    on the diagonal weighs the constant h.  The space is emitted only when
    every full-triangle constraint holds; the characteristic instances read
    |a1 - a2| <= h <= a1 + a2."""
    if n < 1:
        raise PreconditionError("need at least one object")
    if h < 0:
        raise PreconditionError("h must be non-negative")
    for name, table in (("a1", a1), ("a2", a2)):
        for pair in ((x, y) for x in range(n) for y in range(n) if x != y):
            if pair not in table:
                raise PreconditionError(f"{name} missing entry for ({pair[0]},{pair[1]})")
            if table[pair] < 0:
                raise PreconditionError(f"{name} entry for ({pair[0]},{pair[1]}) must be non-negative")
    budget = Budget()
    budget.spend(2 * n * n, "bi-metric space", "arrows")
    budget.spend(4 * n**3, "bi-metric space", "composition entries")
    signs = (1, -1)
    ids: dict[tuple[int, int, int], int] = {}
    arrows: list[Arrow] = []
    for x in range(n):
        for y in range(n):
            for s in signs:
                aid = len(arrows)
                ids[(s, x, y)] = aid
                sign = "+" if s == 1 else "-"
                arrows.append(Arrow(aid, x, y, f"{sign}1_{x}{y}"))
    objs = tuple(Obj(i) for i in range(n))
    identity = {x: ids[(1, x, x)] for x in range(n)}
    composition = {}
    for (s1, x, y), f in ids.items():
        for (s2, y2, z), g in ids.items():
            if y == y2:
                composition[(f, g)] = ids[(s1 * s2, x, z)]
    cat = FiniteCategory(objs, tuple(arrows), identity, composition)

    def weight_of(s: int, x: int, y: int) -> Weight:
        if x == y:
            return Weight(0) if s == 1 else Weight(Fraction(h))
        return Weight(Fraction((a1 if s == 1 else a2)[(x, y)]))

    # ids lists the arrow keys in arrow-id order
    space = Metric1Space(cat, tuple(weight_of(*key) for key in ids))
    report = validate_metric1(space)
    return (space if report.ok else None, report)


def bimetric_space(n, a1, a2, h) -> Metric1Space:
    space, report = try_bimetric_space(n, a1, a2, h)
    if space is None:
        raise PreconditionError(
            "bi-metric constraints violated: " + "; ".join(report.violations)
        )
    return space
