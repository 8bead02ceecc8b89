"""Decidable continuity checks for functors between finite metric 1-spaces.

The epsilon/delta definitions all reduce, on finite data, to exact
zero-weight transfer criteria.  The reduction for forward continuity at an
arrow psi: x -> z runs as follows.  Only finitely many weights occur among
the second legs phi of factorizations psi = phi after rho, so taking delta
below the smallest positive such weight makes "w(phi) < delta" mean
"w(phi) = 0"; then "w(F phi) < epsilon for every epsilon" forces
w(F phi) = 0.  Conversely a factorization with w(phi) = 0 and
w(F phi) > 0 defeats every delta at epsilon = w(F phi).  The same argument
gives the object-level and uniform criteria.  Only the forward criteria
are written out: backward continuity of F (first legs instead of second,
arrows out of an object instead of into it) is forward continuity of the
opposite functor between the opposite spaces, and `object_continuity` and
`series_completeness` dualise once on BACKWARD.  The quantifier-faithful
epsilon/delta check over the finite grid of occurring weights is kept as an
independent oracle (`epsdelta_*`); it spells out both directions.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError, TheoremViolation
from .fincat import Functor, opposite_functor
from .limits import (
    EXACT_YES,
    EssentialCone,
    EventuallyPeriodic,
    ForwardSequence,
    LimitCertificate,
    check_forward_limiting_cone,
    check_cauchy,
    map_cone,
    map_sequence,
    series_converges,
)
from .weight import ZERO, Weight
# BACKWARD and FORWARD are re-exported: callers name directions from here
from .weights import BACKWARD, FORWARD, Metric1Space, is_backward, opposite_space


@dataclass(frozen=True)
class ContinuityVerdict:
    kind: str
    holds: bool
    witness: tuple | None = None

    def __post_init__(self):
        if (self.witness is not None) != (not self.holds):
            raise TheoremViolation(f"{self.kind} verdict: a witness must come exactly with a failure")


def factorizations(space: Metric1Space, psi: int) -> list[tuple[int, int]]:
    """All (rho, phi) with phi after rho == psi, including the trivial ones
    through the endpoints themselves (rho or phi an identity)."""
    cat = space.category
    target = cat.arrows[psi]
    out = []
    for rho in cat.arrows_from(target.dom):
        mid = cat.arrows[rho].cod
        for phi in cat.hom(mid, target.cod):
            if cat.compose(rho, phi) == psi:
                out.append((rho, phi))
    return out


def forward_continuous_at_arrow(
    fun: Functor, src: Metric1Space, dst: Metric1Space, psi: int
) -> ContinuityVerdict:
    """Holds iff every factorization of psi whose second leg weighs 0 maps
    to a second leg weighing 0 (see the module docstring for why this is
    the epsilon/delta statement)."""
    if not (0 <= psi < len(src.category.arrows)):
        raise PreconditionError(f"arrow {psi} not in the functor's source")
    for _, phi in factorizations(src, psi):
        if src.w[phi] == ZERO and dst.w[fun.arr_map[phi]] != ZERO:
            return ContinuityVerdict("forward-at-arrow", False, witness=(psi, phi))
    return ContinuityVerdict("forward-at-arrow", True)


def object_continuity(
    fun: Functor, src: Metric1Space, dst: Metric1Space, x0: int, direction: str
) -> ContinuityVerdict:
    """Zero-weight arrows into x0 keep weight 0 under the functor.  Backward
    runs this in the opposite spaces, where they are the arrows out of x0."""
    kind = f"{direction}-at-object"
    if is_backward(direction):
        fun, src, dst = opposite_functor(fun), opposite_space(src), opposite_space(dst)
    for a in src.category.arrows_to(x0):
        if src.w[a] == ZERO and dst.w[fun.arr_map[a]] != ZERO:
            return ContinuityVerdict(kind, False, witness=(x0, a))
    return ContinuityVerdict(kind, True)


def uniformly_continuous(fun: Functor, src: Metric1Space, dst: Metric1Space) -> ContinuityVerdict:
    """Every arrow of weight 0 maps to an arrow of weight 0."""
    for a in src.category.arrows:
        if src.w[a.id] == ZERO and dst.w[fun.arr_map[a.id]] != ZERO:
            return ContinuityVerdict("uniform", False, witness=(a.id,))
    return ContinuityVerdict("uniform", True)


def forward_continuous(fun: Functor, src: Metric1Space, dst: Metric1Space) -> ContinuityVerdict:
    """Forward continuity at every arrow."""
    for a in src.category.arrows:
        v = forward_continuous_at_arrow(fun, src, dst, a.id)
        if not v.holds:
            return ContinuityVerdict("forward-at-arrow", False, witness=v.witness)
    return ContinuityVerdict("forward-at-arrow", True)


# --- quantifier-faithful epsilon/delta oracle -------------------------------
#
# Both quantified statements are monotone in epsilon and delta, so they hold
# for all positive reals iff they hold on a finite grid: every positive
# occurring weight plus one value strictly below all of them on each side.

def _grid(values: list[Weight]) -> list[Weight]:
    positives = sorted({v for v in values if v != ZERO and not v.is_infinite})
    grid = list(positives)
    if positives:
        grid.append(Weight(positives[0].finite / 2))
    else:
        grid.append(Weight(1))
    return grid


def _epsdelta(pairs: list[tuple[Weight, Weight]]) -> bool:
    """for every eps > 0 there is delta > 0 with: w < delta implies Fw < eps,
    evaluated exactly over the finite grids induced by the pairs."""
    eps_grid = _grid([fw for _, fw in pairs])
    delta_grid = _grid([w for w, _ in pairs])
    for eps in eps_grid:
        if not any(
            all(not (w < delta) or (fw < eps) for w, fw in pairs)
            for delta in delta_grid
        ):
            return False
    return True


def epsdelta_at_arrow(
    fun: Functor, src: Metric1Space, dst: Metric1Space, psi: int, direction: str
) -> bool:
    legs = factorizations(src, psi)
    if direction == FORWARD:
        pairs = [(src.w[phi], dst.w[fun.arr_map[phi]]) for _, phi in legs]
    else:
        pairs = [(src.w[rho], dst.w[fun.arr_map[rho]]) for rho, _ in legs]
    return _epsdelta(pairs)


def epsdelta_at_object(
    fun: Functor, src: Metric1Space, dst: Metric1Space, x0: int, direction: str
) -> bool:
    cat = src.category
    pool = cat.arrows_to(x0) if direction == FORWARD else cat.arrows_from(x0)
    return _epsdelta([(src.w[a], dst.w[fun.arr_map[a]]) for a in pool])


def epsdelta_uniform(fun: Functor, src: Metric1Space, dst: Metric1Space) -> bool:
    return _epsdelta([(src.w[a.id], dst.w[fun.arr_map[a.id]]) for a in src.category.arrows])


# --- compactness and completeness certificates ------------------------------

@dataclass(frozen=True)
class SubsequenceWitness:
    """A convergent subsequence: strictly increasing indices hitting a
    constant arrow, certified by an identity-leg cone."""

    first_index: int
    step: int
    subsequence: ForwardSequence
    cone: EssentialCone
    certificate: LimitCertificate


@dataclass(frozen=True)
class ObjectWitness:
    """A recurring object reachable both ways by identity arrows below any
    epsilon, at indices first_index + t * step."""

    obj: int
    first_index: int
    step: int


@dataclass
class CompactnessCertificate:
    """Constructive compactness of a finite metric 1-space.

    Finiteness does all the work: an eventually periodic sequence hits
    some arrow infinitely often, and the constant subsequence on that
    arrow converges with identity cone legs; a sequence of objects
    likewise revisits one object forever.
    """

    space: Metric1Space
    forward_compact: bool = True
    backward_compact: bool = True
    object_compact: bool = True

    def subsequence_witness(self, seq: ForwardSequence) -> SubsequenceWitness:
        arr = seq.arrows
        if not arr.is_exact:
            raise PreconditionError("subsequence witnesses need eventually periodic input")
        value = arr.period[0]
        first = arr.stable_from
        cat = self.space.category
        cod = cat.arrows[value].cod
        sub = ForwardSequence(seq.base, EventuallyPeriodic((), (value,)))
        cone = EssentialCone(0, cod, EventuallyPeriodic((), (cat.identity[cod],)))
        cert = check_forward_limiting_cone(self.space, sub, cone)
        if cert.verdict != EXACT_YES:
            raise TheoremViolation("constant subsequence failed to certify: " + cert.detail)
        return SubsequenceWitness(first, arr.cycle, sub, cone, cert)

    def object_witness(self, objs: EventuallyPeriodic) -> ObjectWitness:
        cat = self.space.category
        x0 = objs.period[0]
        if not (0 <= x0 < len(cat.objects)):
            raise PreconditionError(f"object index {x0} out of range")
        return ObjectWitness(x0, objs.stable_from, objs.cycle)


def compactness_certificate(space: Metric1Space) -> CompactnessCertificate:
    return CompactnessCertificate(space)


@dataclass(frozen=True)
class CompletenessVerdict:
    """Per-series completeness evidence, restricted to eventually periodic
    series (the only infinite data this library represents exactly)."""

    direction: str
    cauchy: LimitCertificate
    convergence: LimitCertificate | None
    scope: str = "eventually-periodic"

    @property
    def holds(self) -> bool:
        if self.cauchy.verdict != EXACT_YES:
            return True  # nothing to converge
        return self.convergence is not None and self.convergence.verdict == EXACT_YES


def series_completeness(space: Metric1Space, series, direction: str = FORWARD) -> CompletenessVerdict:
    """Cauchy implies convergent, decided exactly for this one series.
    Backward reads the series in the opposite space."""
    if is_backward(direction):
        space = opposite_space(space)
    cauchy = check_cauchy(space, series)
    conv = series_converges(space, series)[0] if cauchy.verdict == EXACT_YES else None
    return CompletenessVerdict(direction, cauchy, conv)


def check_limit_preservation(
    fun: Functor,
    src: Metric1Space,
    dst: Metric1Space,
    seq: ForwardSequence,
    cone: EssentialCone,
) -> bool:
    """Image of a certified limiting cone certifies the image sequence with
    the image limiting arrow.  Under the preconditions (cone exact-yes,
    functor forward continuous at the limiting arrow) this must come back
    True; it is exposed as a theorem check."""
    cert = check_forward_limiting_cone(src, seq, cone)
    if cert.verdict != EXACT_YES:
        raise PreconditionError("cone does not certify the sequence")
    at_limit = forward_continuous_at_arrow(fun, src, dst, cert.limiting_arrow)
    if not at_limit.holds:
        raise PreconditionError("functor is not forward continuous at the limiting arrow")
    image_cert = check_forward_limiting_cone(dst, map_sequence(fun, seq), map_cone(fun, cone))
    return (
        image_cert.verdict == EXACT_YES
        and image_cert.limiting_arrow == fun.arr_map[cert.limiting_arrow]
    )
