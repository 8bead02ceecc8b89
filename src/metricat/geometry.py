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

* correspondence route: half the minimal distortion over correspondences,
  by one depth-first search that places a cell (x, y) per step: first a
  partner in Y for each x, then a partner in X for each y that no x took.
  This is exhaustive.  Take any correspondence R.  For each x pick a
  partner f(x) with (x, f(x)) in R.  Every y outside f(X) also has some
  partner x_y in R.  So R contains S = graph(f) union {(x_y, y) : y not in
  f(X)}.  S is itself a correspondence, and dis S <= dis R, because a
  distortion is a maximum over pairs of cells.  The search enumerates
  exactly these sets S: a y that f hits needs no cell of its own, as any x
  in f^-1(y) serves as its partner.  The larger side places first, so the
  points the search completes are the fewer.

Each route keeps the least value found so far (the incumbent) and skips
only what provably cannot beat it, so the minimum is unchanged:

* cells.  A correspondence cell's bound is the distortion of the cells
  placed so far together with it.  Along a search path it never falls, as
  a new cell only adds pairs to the maximum, and every completed S attains
  its bound.  So each step tries its cells least bound first and cuts at
  the incumbent, and each set it completes lowers the incumbent to its
  distortion and becomes the witness.

* half maps (gluing route).  A pattern's D is the union of the cells of f
  and of g, so sp(D, p) <= sp(f, p) and 2 h*(D) >= LB(f) = max over lower
  triangles of v - sp(f,p) - sp(f,q).  The bound never falls as a partial
  map grows: a new cell only lowers sp(D, p).  So a depth-first search
  builds f and g, cutting a prefix with every completion once its bound
  reaches the incumbent.  Pairing an onto f with a section g of it (g(y)
  in f^-1(y)) designates only the cells of f, so f's own bound is
  attained: each onto map the search completes lowers the incumbent to it.

* pair scans (gluing route).  The kept f and g are scanned in bound order;
  a loop stops once the bound reaches the incumbent, and the scan of one
  pair once its partial maximum does.

* the diameter bound GH(X, Y) >= |diam X - diam Y| / 2 (Burago-Burago-
  Ivanov, A Course in Metric Geometry, 2001): a correspondence pairs the
  two points realising diam X with points at most diam Y apart, and the
  other way round, so its distortion is at least |diam X - diam Y|; and
  every pattern's h is at least their minimum, GH.  The gluing route raises
  every bound to it, so no lower triangle with v below it binds, and its
  searches and pair scan stop once the incumbent reaches it.

* the eccentricity bound |ecc x - ecc y| <= dis R for each (x, y) in a
  correspondence R (Memoli, On the use of Gromov-Hausdorff distances for
  shape comparison, 2007): pick x' with d(x, x') = ecc x and a partner y'
  of x' in R; then ecc x - ecc y <= d(x, x') - d(y, y') <= dis R, and the
  same holds with X and Y swapped.  Every point has a partner, so dis R is
  also at least the Hausdorff distance between the two sets of
  eccentricities, which is at least |diam X - diam Y|.  The correspondence
  route raises the bound of each cell (x, y) to the first and stops once
  the incumbent reaches the second; a completed set still attains its
  bound, as it holds every cell placed.

* the gluing route starts from the correspondence witness: with its value d
  the correspondence route returns a correspondence R with dis R = d, the
  last set its search completed.  The gluing r(x, y) = dis R / 2 + min over
  (x', y') in R of d(x, x') + d(y', y) is a semimetric with Hausdorff
  distance dis R / 2 (Burago-Burago-Ivanov, Thm 7.3.25), and it is the
  largest feasible r of the pattern that designates R's cells at h =
  dis R / 2, so that pattern has 2 h* <= d.  The route evaluates it in its
  closed form and takes it as its first incumbent.  Where that value is the
  diameter floor the route returns it before any search, which is exact:
  every pattern's bound is raised to the floor, so every half map would be
  cut at the root and the pair scan would stop before its first pair.  The
  start only prunes from above: the search below it is exhaustive, so a
  wrong low gluing value is still found, and a wrong witness costs time but
  never changes the value returned.  The route never uses the eccentricity
  bound: a floor taken from correspondence theory could lift a wrong, low
  gluing value to the right one, and the agreement check is worth what the
  routes' independence makes it.

* gluing steps rescan only what they change.  Along a search path a
  pattern only gains designated cells, so its row of shortest distances
  sp(D, .) only falls, and no lower triangle's v - sp(D,p) - sp(D,q) can
  fall.  A step's value is therefore the larger of its parent's value and
  the values of the lower triangles that touch a cell whose entry fell;
  the others are unchanged.  A step stops rescanning once its value
  reaches the incumbent, as such a step is cut whatever its exact value.

The Lipschitz distance is likewise a branch-and-bound over bijections that
cuts a branch once the constant of its fixed pairs reaches the best found,
and stops once the best reaches the diameter floor
max(diam X / diam Y, diam Y / diam X).
Each call charges one work budget (`errors.Budget`): GH one "half-map
step" per cell a correspondence step weighs and, in the gluing route,
`width` per half-map extension and one per pair of maps scanned, Lipschitz
one per extension, a slice or bi-metric space its arrows and composition
entries.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import itemgetter, sub
from typing import NamedTuple

from .errors import Budget, PreconditionError, TheoremViolation
from .fincat import Arrow, FiniteCategory, Obj, ValidationReport
from .metricspace import FiniteMetricSpace, shortest_path_repair
from .record import Record
from .weight import Weight
from .weights import Metric1Space, validate_metric1


# --- bi-Lipschitz ------------------------------------------------------------

class BiLipMap(NamedTuple):
    source: FiniteMetricSpace
    target: FiniteMetricSpace
    point_map: tuple[int, ...]


def bilip_constant(f: BiLipMap) -> Fraction:
    """Smallest C with distances distorted by at most a factor C each way:
    the max over point pairs of the ratio and its reciprocal.  Always >= 1;
    1 for sources with fewer than two points."""
    n = len(f.source.points)
    if len(f.point_map) != n:
        raise PreconditionError(f"point map has {len(f.point_map)} entries for {n} source points")
    _require_points(f.point_map, len(f.target.points), "point map")
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


class BiLipSlice(Record):
    """A groupoid of bi-Lipschitz bijections between finitely many spaces,
    weighted multiplicatively by the exact constants C (the additive
    picture would need ln C, which is irrational; the multiplicative
    triangle below is its exact equivalent)."""

    __slots__ = _fields = ("category", "spaces", "arrow_perm", "factor")

    def __init__(
        self,
        category: FiniteCategory,  # object i is spaces[i]
        spaces: list[FiniteMetricSpace],
        arrow_perm: tuple[tuple[int, ...], ...],  # arrow id -> point bijection
        factor: tuple[Fraction, ...],  # arrow id -> C
    ):
        self.category = category
        self.spaces = spaces
        self.arrow_perm = arrow_perm
        self.factor = factor

    def validate_multiplicative(self) -> ValidationReport:
        """Identities carry factor 1; every composable pair satisfies
        max(Cf/Cg, Cg/Cf) <= C(g after f) <= Cf * Cg."""
        report = ValidationReport(subject="bi-Lipschitz slice")
        cat = self.category
        for x, ida in cat.identity.items():
            if self.factor[ida] != 1:
                report.violations.append(f"identity at object {x} has factor {self.factor[ida]}")
        for f, row in enumerate(cat.after):
            for g, h in row.items():
                cf, cg, cc = self.factor[f], self.factor[g], self.factor[h]
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
        return min((self.factor[a] for a in self.category.hom(i, j)), default=None)

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
    arrow_perm: list[tuple[int, ...]] = []
    index: dict[tuple[int, int, tuple[int, ...]], int] = {}
    for i, a in enumerate(spaces):
        for j, b in enumerate(spaces):
            if len(a.points) != len(b.points):
                continue
            for perm in itertools.permutations(range(len(a.points))):
                aid = len(arrows)
                arrows.append(Arrow(aid, i, j))
                arrow_perm.append(perm)
                index[(i, j, perm)] = aid
    identity = {
        i: index[(i, i, tuple(range(len(spaces[i].points))))] for i in range(len(spaces))
    }
    cat = FiniteCategory(objs, tuple(arrows), identity, [], {})
    out = cat.adjacency.out
    for f in arrows:
        # the row of f: each bijection g out of the target of f, to g∘f
        perm = arrow_perm[f.id]
        cat.after.append({
            g: index[(f.dom, arrows[g].cod, tuple(arrow_perm[g][p] for p in perm))]
            for g in out.get(f.cod, ())
        })
    factors = tuple(bilip_constant(BiLipMap(spaces[a.dom], spaces[a.cod], arrow_perm[a.id]))
                    for a in arrows)
    return BiLipSlice(cat, list(spaces), tuple(arrow_perm), factors)


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
    scale = math.lcm(x.scale, y.scale)
    dx, dy = x.scaled(scale), y.scaled(scale)
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

def _hausdorff(cross):
    """Hausdorff distance (Burago-Burago-Ivanov, 7.3.1) between two sets from
    their distances `cross`, a row per point of one and a column per point of
    the other: the larger of the maximum row minimum and the maximum column minimum."""
    if not cross or not cross[0]:
        raise PreconditionError("Hausdorff distance needs non-empty subsets")
    return max(max(map(min, cross)), max(map(min, zip(*cross))))


def _require_points(indices, n: int, what: str) -> None:
    """Refuses an entry of `indices` that is not the index of one of n points."""
    for i in indices:
        if not (isinstance(i, int) and 0 <= i < n):
            raise PreconditionError(f"{what} names point {i!r}, but the space has {n} points")


def hausdorff_distance(space: FiniteMetricSpace, a: list[int], b: list[int]) -> Fraction:
    """Hausdorff distance between the subsets a and b of the space's points,
    given as point indices."""
    _require_points(a, len(space.points), "first subset")
    _require_points(b, len(space.points), "second subset")
    return _hausdorff([[space.d[p][q] for q in b] for p in a])


def _diameter_floor(dx: list[list[int]], dy: list[list[int]]) -> int:
    """|diam X - diam Y| in the integer scale: a lower bound on every
    correspondence distortion and on twice every gluing pattern's h (see
    module docstring)."""
    return abs(max(map(max, dx)) - max(map(max, dy)))


def _eccentricity_floor(ecc_x: list[int], ecc_y: list[int]) -> int:
    """The Hausdorff distance between the two sets of eccentricities, in
    the integer scale: a lower bound on every correspondence distortion,
    and at least |diam X - diam Y| (see module docstring)."""
    return _hausdorff([[abs(a - b) for b in ecc_y] for a in ecc_x])


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


def _gh_correspondences(dx: list[list[int]], dy: list[list[int]], budget=None):
    """Minimal distortion over correspondences, in the integer scale, and a
    correspondence that attains it, as a sorted tuple of cells (x, y): one
    depth-first search over cells, the larger side placing first, cut at
    the incumbent and stopped at the eccentricity floor (see module
    docstring).  Each step charges `budget` (a new default one when None)
    the cells it weighs."""
    n, m = len(dx), len(dy)
    if n < m:
        best, cells = _gh_correspondences(dy, dx, budget)
        return best, tuple(sorted((x, y) for y, x in cells))
    budget, phase = Budget.of(budget), "Gromov-Hausdorff correspondence route"
    ecc_x, ecc_y = [max(row) for row in dx], [max(row) for row in dy]
    floor = _eccentricity_floor(ecc_x, ecc_y)
    cost = [[max(floor, abs(e - f)) for f in ecc_y] for e in ecc_x]  # the bound of the cell (x, y)
    best, witness = max(map(max, dx + dy)) + 1, None  # above every distortion
    xs, ys = [], []  # the cells placed, as parallel lists

    def place(dis):
        """Search below the cells placed, of bound `dis`; True once the
        incumbent reaches the floor."""
        nonlocal best, witness
        if len(xs) < n:
            cells = [(len(xs), y) for y in range(m)]
        else:
            missed = next((y for y in range(m) if y not in ys), None)
            if missed is None:
                best, witness = dis, tuple(sorted(zip(xs, ys)))
                return dis == floor
            cells = [(x, missed) for x in range(n)]
        budget.spend(len(cells), phase, "half-map steps")
        bounds = sorted(
            (max(dis, cost[x][y], *map(abs, map(sub, map(dx[x].__getitem__, xs),
                                                map(dy[y].__getitem__, ys)))), x, y)
            for x, y in cells
        )
        for bound, x, y in bounds:
            if bound >= best:
                break
            xs.append(x)
            ys.append(y)
            done = place(bound)
            xs.pop()
            ys.pop()
            if done:
                return True
        return False

    place(floor)
    return best, witness


def _gh_gluings(dx: list[list[int]], dy: list[list[int]], budget=None, start=None) -> Fraction:
    """Infimum of the Hausdorff distance over semimetric gluings, in the
    integer scale, via the per-pattern closed form explained in the module
    docstring.  The incumbent starts at the value of the pattern that
    designates the cells (x, y) of `start`, a correspondence, and above
    every bound when None; the search below it is exhaustive, so the exact
    optimum (possibly half-integral) is returned either way, at once when
    the start's value is the diameter floor.  Charges `budget` as
    `_gh_correspondences` does."""
    n, m = len(dx), len(dy)
    budget, phase = Budget.of(budget), "Gromov-Hausdorff gluing route"
    cells = range(n * m)

    def grid_row(x, y):
        """Shortest distances from the cell (x, y) = x * m + y to every cell
        of the grid, the product of X and Y."""
        return [a + b for a in dx[x] for b in dy[y]]

    # lower-bound constraints (p, q, v): r_p + r_q >= v; every bound below is
    # at least the diameter bound, so those with v <= floor never bind
    floor = _diameter_floor(dx, dy)
    lower = [(x * m + y, x2 * m + y, dx[x][x2])
             for y in range(m) for x in range(n) for x2 in range(x + 1, n)]
    lower += [(x * m + y, x * m + y2, dy[y][y2])
              for x in range(n) for y in range(m) for y2 in range(y + 1, m)]
    lower = [(p, q, v) for p, q, v in lower if v > floor]
    # per cell, the values v and the other cells of the constraints it is in
    values, others = [[] for _ in cells], [[] for _ in cells]
    for p, q, v in lower:
        for c, other in (p, q), (q, p):
            values[c].append(v)
            others[c].append(other)
    cap = [max(map(max, dx + dy)) + 1]  # above every bound

    def rescan(near, value, fallen):
        """Twice h* of the pattern whose row of shortest distances to its
        designated cells is `near`, raised to the floor, from `value`, that
        of a pattern whose row is nowhere lower and differs only at the
        cells `fallen` (the empty pattern, of row infinity and value the
        floor, for all cells): only the constraints of those cells can have
        risen.  Stops once the value reaches cap[0]."""
        get = near.__getitem__
        for c in fallen:
            if values[c]:
                slack = max(map(sub, values[c], map(get, others[c]))) - near[c]
                if slack > value:
                    value = slack
                    if value >= cap[0]:
                        break
        return value

    def pattern_step(rows):
        """Search step for half patterns: `rows[k][j]` is the grid row of
        the cell that places k on j, the state the row of shortest distances
        to the designated cells and its bound, LB raised to the floor.
        Along a search path the row only falls."""

        def step(state, prefix, j):
            row = rows[len(prefix)][j]
            if state is None:
                value = rescan(row, floor, cells)
                return value, (row, value)
            near, value = state
            fallen = [c for c in cells if row[c] < near[c]]
            if not fallen:
                return value, state
            near = near.copy()
            for c in fallen:
                near[c] = row[c]
            value = rescan(near, value, fallen)
            return value, (near, value)

        return step

    # twice the optimal h in the integer scale, starting at the start pattern
    if start is not None:
        if {x for x, _ in start} != set(range(n)) or {y for _, y in start} != set(range(m)):
            raise TheoremViolation(f"gluing route started from {start}, which is not a correspondence")
        cap[0] = rescan([min(col) for col in zip(*itertools.starmap(grid_row, start))], floor, cells)
        if cap[0] == floor:
            return Fraction(floor, 2)
    grid = [[grid_row(x, y) for y in range(m)] for x in range(n)]
    f_rows = _bounded_maps(n, m, pattern_step(grid), cap, budget, phase)
    g_rows = _bounded_maps(m, n, pattern_step(list(zip(*grid))), cap, budget, phase)
    best2 = cap[0]
    for bound_f, _, (frow, _) in f_rows:
        if best2 == floor or bound_f >= best2:
            break
        scanned = 0
        for bound_g, _, (grow, _) in g_rows:
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
    one work budget and fail with SizeGuardError past it.  The gluing
    route's grid distances are a closed form only on metrics, which both
    spaces are: a `FiniteMetricSpace` checks the axioms when it is built."""
    if not x.points or not y.points:
        raise PreconditionError("Gromov-Hausdorff distance needs non-empty spaces")
    scale = math.lcm(x.scale, y.scale)
    dx, dy = x.scaled(scale), y.scaled(scale)
    budget = Budget()
    distortion, cells = _gh_correspondences(dx, dy, budget)
    # the correspondence witness only starts the gluing route's incumbent,
    # which then returns its own exact minimum
    via_corr = Fraction(distortion, 2 * scale)
    via_glue = _gh_gluings(dx, dy, budget, cells) / scale
    if via_corr != via_glue:
        raise TheoremViolation(
            f"gluing route {via_glue} disagrees with correspondence route {via_corr}"
        )
    return via_corr


# --- gluings and cospan composition ------------------------------------------

class Gluing(Record):
    """A cross matrix turning the disjoint union of two spaces into a
    semimetric: every mixed triangle inequality holds.  Zero cross
    distances are allowed (the Hausdorff objective is continuous in the
    cross matrix, so the semimetric optimum realises the infimum over
    honest metric gluings)."""

    __slots__ = _fields = ("x_space", "y_space", "cross")

    def __init__(self, x_space: FiniteMetricSpace, y_space: FiniteMetricSpace,
                 cross: tuple[tuple[Fraction, ...], ...]):
        self.x_space = x_space
        self.y_space = y_space
        self.cross = cross

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
        """Hausdorff distance between the two halves inside the gluing;
        refused when one is empty."""
        return _hausdorff(self.cross)


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
    # the row of the arrow (s1, x, y) maps each (s2, y, z) to (s1 * s2, x, z)
    after = [{ids[(s2, y, z)]: ids[(s1 * s2, x, z)] for z in range(n) for s2 in signs}
             for (s1, x, y) in ids]
    cat = FiniteCategory(objs, tuple(arrows), identity, after, {})

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
