"""Metric 1-spaces: weighted finite categories and their validators.

A metric 1-space is a finite category plus one extended non-negative
rational weight per arrow, subject to reflexivity (identities weigh 0) and
the full triangle inequality on every composable pair:

    |w(g) - w(f)|  <=  w(g after f)  <=  w(g) + w(f)

with the lower bound waived when w(f) and w(g) are both infinite.  On an
indiscrete category the lower bound at identities is exactly symmetry of the
induced distance, which is why no symmetry axiom appears anywhere here.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .fincat import FiniteCategory, ValidationReport, indiscrete, opposite
from .metricspace import FiniteMetricSpace
from .weight import INF, ZERO, Weight, integer_weights


@dataclass(eq=True)
class Metric1Space:
    category: FiniteCategory
    w: tuple[Weight, ...]  # indexed by arrow id

    @classmethod
    def from_weights(cls, category: FiniteCategory, weights) -> "Metric1Space":
        """Accepts a mapping arrow id -> weight-like or a dense sequence."""
        m = len(category.arrows)
        if isinstance(weights, dict):
            missing = [a for a in range(m) if a not in weights]
            if missing:
                raise PreconditionError(f"weights missing for arrows {missing}")
            table = tuple(Weight.parse(weights[a]) for a in range(m))
        else:
            table = tuple(Weight.parse(v) for v in weights)
            if len(table) != m:
                raise PreconditionError("weight count must match arrow count")
        return cls(category, table)


# The axioms are self-dual: reversing every arrow keeps the weights and the
# full triangle inequality.  So every backward notion is the forward one read
# in the opposite space, and BACKWARD only ever selects that space.
FORWARD = "forward"
BACKWARD = "backward"


def opposite_space(space: Metric1Space) -> Metric1Space:
    """The same weights on the opposite category (arrow ids are stable)."""
    return Metric1Space(opposite(space.category), space.w)


def is_backward(direction: str) -> bool:
    """True for BACKWARD, False for FORWARD; any other direction is a
    precondition error."""
    if direction not in (FORWARD, BACKWARD):
        raise PreconditionError(f"unknown direction {direction!r}")
    return direction == BACKWARD


def validate_metric1(space: Metric1Space) -> ValidationReport:
    """List every reflexivity failure and every composable pair violating
    either half of the full triangle inequality.

    The check runs on the weights scaled to integers by their common
    denominator (None marks infinity), so it is exact and builds no
    ``Weight``.  A composable pair missing from the composition table is
    fatal; the pairs that are present are still checked.
    """
    report = ValidationReport(subject="metric 1-space")
    cat = space.category
    report.fatal = cat.structural_errors()
    if len(space.w) != len(cat.arrows):
        report.fatal.append("weight table does not cover the arrows")
    if report.fatal:
        return report
    out = report.violations
    w = space.w
    s = integer_weights(w)
    for x in range(len(cat.objects)):
        if s[cat.identity[x]] != 0:
            out.append(f"reflexivity: w(id_{x}) = {w[cat.identity[x]]} != 0")
    comp = cat.composition
    for pair in cat.composable_pairs():
        h = comp.get(pair)
        if h is None:
            report.fatal.append(f"composable pair {pair} missing from composition table")
            continue
        f, g = pair
        a, b, c = s[f], s[g], s[h]
        if a is not None and b is not None:
            if c is None or c > a + b:
                out.append(f"full triangle (upper) on ({f},{g}): w = {w[h]} > {w[f]} + {w[g]}")
                continue
            lower = abs(a - b) > c
        else:
            # a + b is infinite, so only the lower half can fail: with one
            # leg infinite, |b - a| is infinite against a finite composite
            lower = (a is None) != (b is None) and c is not None
        if lower:
            out.append(f"full triangle (lower) on ({f},{g}): |{w[g]} - {w[f]}| > w = {w[h]}")
    return report


def is_locally_finite(space: Metric1Space) -> bool:
    """No arrow has infinite weight."""
    return all(not w.is_infinite for w in space.w)


def is_nondegenerate(space: Metric1Space) -> bool:
    """Every weight-0 arrow is an identity.

    This is the implication the fixed-point iteration needs to collapse its
    terminal cycle to a genuinely fixed object.
    """
    cat = space.category
    return all(
        cat.is_identity(a.id) for a in cat.arrows if space.w[a.id] == ZERO
    )


@dataclass(eq=True)
class LawvereSpace:
    """Point set with a reflexive distance satisfying the restricted
    triangle inequality; possibly asymmetric, possibly infinite."""

    points: tuple[str, ...]
    d: tuple[tuple[Weight, ...], ...]

    def is_symmetric(self) -> bool:
        n = len(self.points)
        return all(self.d[x][y] == self.d[y][x] for x in range(n) for y in range(x + 1, n))

    def restricted_triangle_errors(self) -> list[str]:
        errs = []
        n = len(self.points)
        for x in range(n):
            if self.d[x][x] != ZERO:
                errs.append(f"d({x},{x}) = {self.d[x][x]} != 0")
            for y in range(n):
                for z in range(n):
                    if self.d[x][z] > self.d[x][y] + self.d[y][z]:
                        errs.append(f"d({x},{z}) > d({x},{y}) + d({y},{z})")
        return errs


def lawvere(space: Metric1Space) -> LawvereSpace:
    """Distance = the minimum arrow weight per ordered pair; an empty
    hom-set contributes infinity (the empty infimum)."""
    cat = space.category
    n = len(cat.objects)
    rows = []
    for x in range(n):
        row = []
        for y in range(n):
            hom = cat.hom(x, y)
            row.append(min((space.w[a] for a in hom), default=INF))
        rows.append(tuple(row))
    labels = tuple(str(o) for o in cat.objects)
    return LawvereSpace(labels, tuple(rows))


def from_metric_space(ms: FiniteMetricSpace) -> Metric1Space:
    """Indiscrete embedding of a classical metric: one arrow per ordered
    pair, weighing exactly the distance.  Non-metric input is rejected with
    the violated axiom named."""
    errs = ms.metric_errors()
    if errs:
        raise PreconditionError("not a metric space: " + "; ".join(errs))
    n = len(ms.points)
    cat = indiscrete(n, list(ms.points))
    weights = []
    for a in cat.arrows:
        weights.append(Weight(ms.d[a.dom][a.cod]))
    return Metric1Space(cat, tuple(weights))


def asymmetry_defect(space: Metric1Space, x: int, y: int) -> Weight:
    """Largest |w(f) - w(g)| over f: x -> y and g: y -> x.

    Pairs of two infinite weights contribute nothing (the undefined
    difference is read as zero here: equal values).  An infinite weight
    against a finite one contributes infinity.
    """
    cat = space.category
    fwd = cat.hom(x, y)
    bwd = cat.hom(y, x)
    if not fwd or not bwd:
        raise PreconditionError(f"no arrows between objects {x} and {y} in some direction")
    best = ZERO
    for f in fwd:
        for g in bwd:
            a, b = space.w[f], space.w[g]
            if a.is_infinite and b.is_infinite:
                continue
            diff = Weight.abs_diff(a, b)
            if diff > best:
                best = diff
    return best
