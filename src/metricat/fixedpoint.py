"""Contractions, natural contractions, and the fixed-point iteration.

The iteration follows the classical outline: starting from x0, the
components of a forward natural contraction along the orbit x0, F(x0),
F^2(x0), ... form a forward series; on a finite non-degenerate space with a
genuine contraction the orbit's terminal cycle collapses to a single fixed
object, the series is Cauchy, and the window compositions into the fixed
object assemble a limiting cone whose first leg is the alpha-fixed arrow.

Natural contractions are the transformations Id => F that satisfy the
coherence law F(c_x) = c_{F(x)}: the transformation search of `mapping`
with one more check per object.  A backward natural contraction
(components F(c) -> c) is a forward one of the opposite functor on the
opposite space; both the search and the iteration dualise a backward
request once and run the forward body.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import Budget, PreconditionError, TheoremViolation
from .fincat import (
    FiniteCategory, Functor, NatTransformation, backtrack, identity_functor, opposite,
    opposite_functor, require_arrow, require_functor, validate_functor, validate_transformation,
)
from .limits import (
    EXACT_YES,
    EssentialCone,
    EventuallyPeriodic,
    ForwardSeries,
    LimitCertificate,
    check_cauchy,
    check_series_limit,
    legs_before,
)
from .mapping import NaturalitySquares
from .weight import ZERO
from .weights import BACKWARD, FORWARD, Metric1Space, is_backward, is_nondegenerate, opposite_space


class ContractionCertificate(NamedTuple):
    """factor present iff w(F psi) <= factor * w(psi) holds everywhere with
    factor < 1; infinite-weight arrows impose no constraint (alpha * inf
    is inf for alpha > 0, and the alpha = 0 reading adopted here is also
    "no constraint", the weakest consistent convention)."""

    factor: Fraction | None
    zero_preserved: bool
    witness: int | None = None

    @property
    def holds(self) -> bool:
        return self.factor is not None


def contraction_factor(space: Metric1Space, fun: Functor) -> ContractionCertificate:
    """Least alpha with w(F psi) <= alpha * w(psi), certified only when
    alpha < 1, weight 0 transfers to weight 0, and finite weights stay
    finite.  Raises PreconditionError on a functor map that is short,
    dangling or incompatible with the object map."""
    require_functor(fun)
    best, worst = Fraction(0), None
    for a in space.category.arrows:
        w = space.w[a.id]
        fw = space.w[fun.arr_map[a.id]]
        if w == ZERO:
            if fw != ZERO:
                return ContractionCertificate(None, False, witness=a.id)
            continue
        if w.is_infinite:
            continue
        if fw.is_infinite:
            return ContractionCertificate(None, True, witness=a.id)
        ratio = fw.finite / w.finite
        if ratio > best:  # strict: the witness is the first arrow at the maximum
            best, worst = ratio, a.id
    if best >= 1:
        return ContractionCertificate(None, True, witness=worst)
    return ContractionCertificate(best, True)


class NaturalContraction(NamedTuple):
    """Components c -> F(c) (forward) or F(c) -> c (backward) forming a
    natural transformation that additionally satisfies the coherence law
    F(component at c) == component at F(c)."""

    direction: str
    functor: Functor
    components: tuple[int, ...]  # object index -> arrow id

    def component(self, x: int) -> int:
        return self.components[x]


def find_natural_contractions(
    space: Metric1Space, fun: Functor, direction: str = FORWARD, guard: int | Budget | None = None
) -> list[NaturalContraction]:
    """The natural transformations Id => F that also satisfy the coherence
    law, in component-lexicographic order: the search for transformations
    with one more check per object x, run once x and F(x) are both set.
    Backward contractions are the forward ones of the opposite functor.
    Raises SizeGuardError past the work budget `guard` (`errors.DEFAULT_BUDGET`
    when None), and PreconditionError on a functor map that is short,
    dangling or incompatible with the object map."""
    if is_backward(direction):
        found = find_natural_contractions(opposite_space(space), opposite_functor(fun), FORWARD, guard)
        return [NaturalContraction(BACKWARD, fun, nc.components) for nc in found]
    ident = identity_functor(space.category)
    squares = NaturalitySquares(ident.source, ident.target)
    given = squares.images(ident) + squares.images(fun)
    plan = [list(checks) for checks in squares.plan]
    for x in range(len(plan)):
        fx = fun.obj_map[x]
        plan[max(x, fx)].append(lambda v, x=x, fx=fx: fun.arr_map[v[x]] == v[fx])
    out = [
        NaturalContraction(FORWARD, fun, components)
        for components in backtrack(squares.domains, plan, guard, "natural-contraction search", given)
    ]
    for nc in out:
        t = NatTransformation(ident, fun, dict(enumerate(nc.components)))
        validate_transformation(t).require_ok("enumerated contraction")
    return out


def is_epimorphism(cat: FiniteCategory, aid: int) -> bool:
    """Right cancelable: g after psi == h after psi forces g == h,
    checked over every parallel pair out of psi's codomain.  Raises
    PreconditionError on an id that is not an arrow's."""
    require_arrow(cat, aid)
    psi = cat.arrows[aid]
    outgoing = cat.arrows_from(psi.cod)
    for g in outgoing:
        for h in outgoing:
            if g < h and cat.arrows[g].cod == cat.arrows[h].cod:
                if cat.compose(aid, g) == cat.compose(aid, h):
                    return False
    return True


def is_monomorphism(cat: FiniteCategory, aid: int) -> bool:
    """Left cancelable: psi after g == psi after h forces g == h; that is,
    psi is an epimorphism of the opposite category."""
    require_arrow(cat, aid)
    return is_epimorphism(opposite(cat), aid)


class AlphaFixedArrow(NamedTuple):
    """An arrow into a fixed object of the functor such that applying the
    functor and precomposing the contraction component gives the arrow
    back."""

    arrow: int
    fixed_object: int
    direction: str = FORWARD


class BanachOutcome(NamedTuple):
    fixed: AlphaFixedArrow
    series: ForwardSeries
    cone: EssentialCone
    cauchy: LimitCertificate
    limit: LimitCertificate
    steps_to_fixed: int


def banach_iterate(
    space: Metric1Space,
    fun: Functor,
    contraction: NaturalContraction,
    x0: int,
) -> BanachOutcome:
    """Iterate a contraction from x0 to its alpha-fixed arrow.

    Preconditions are each checked and reported by name: the space is
    non-degenerate and valid enough for the run, the functor is a
    contraction with factor below one (so uniformly continuous:
    `contraction_factor` refuses a weight-0 arrow whose image weighs more),
    and the supplied natural contraction matches the requested direction.
    Backward contractions run as the forward case of the opposite space
    (arrow ids are stable, so the outcome needs no translation beyond the
    direction tag).
    """
    if is_backward(contraction.direction):
        op_fun = opposite_functor(fun)
        fwd = NaturalContraction(FORWARD, op_fun, contraction.components)
        outcome = banach_iterate(opposite_space(space), op_fun, fwd, x0)
        return outcome._replace(fixed=outcome.fixed._replace(direction=BACKWARD))

    if contraction.functor is not fun and contraction.functor != fun:
        raise PreconditionError("natural contraction does not belong to the functor")
    if not validate_functor(fun).ok or fun.source != fun.target or fun.source != space.category:
        raise PreconditionError("precondition 'validated endofunctor' fails")
    if not is_nondegenerate(space):
        raise PreconditionError("precondition 'non-degenerate space' fails")
    cert = contraction_factor(space, fun)
    if not cert.holds:
        raise PreconditionError(
            f"precondition 'contraction' fails (witness arrow {cert.witness})"
        )

    cat = space.category
    # orbit of x0 under the functor; pigeonhole bounds it by object count
    orbit = [x0]
    seen = {x0: 0}
    while True:
        nxt = fun.obj_map[orbit[-1]]
        if nxt in seen:
            cycle_start = seen[nxt]
            break
        seen[nxt] = len(orbit)
        orbit.append(nxt)
    pre_objs = orbit[:cycle_start]
    cycle_objs = orbit[cycle_start:]

    series = ForwardSeries(
        EventuallyPeriodic(
            tuple(contraction.component(c) for c in pre_objs),
            tuple(contraction.component(c) for c in cycle_objs),
        )
    )
    cauchy = check_cauchy(space, series)
    if cauchy.verdict != EXACT_YES:
        raise PreconditionError(
            "iteration series is not Cauchy (infinite weights on the orbit can cause this): "
            + cauchy.detail
        )
    # Cauchy forces the cycle components to weigh 0; non-degeneracy then
    # makes them identities, so the cycle is a single fixed object.
    if len(cycle_objs) != 1:
        raise TheoremViolation(
            "orbit cycle longer than 1 despite non-degeneracy and Cauchy series"
        )
    fixed_obj = cycle_objs[0]
    T = len(pre_objs)

    # legs: window compositions into the fixed object, identity afterwards
    ident = cat.identity[fixed_obj]
    cone = EssentialCone(0, fixed_obj, EventuallyPeriodic(legs_before(space, series, T, ident), (ident,)))
    limit = check_series_limit(space, series, cone)
    if limit.verdict != EXACT_YES:
        raise TheoremViolation("constructed limiting cone failed verification: " + limit.detail)

    mu0 = cone.leg(0)
    if fun.obj_map[fixed_obj] != fixed_obj:
        raise TheoremViolation("terminal object of the iteration is not fixed")
    # the defining triangle: F(mu0) after the contraction component at x0
    triangle = cat.compose(contraction.component(x0), fun.arr_map[mu0])
    if triangle != mu0:
        raise TheoremViolation("alpha-fixed triangle does not commute")
    return BanachOutcome(
        AlphaFixedArrow(mu0, fixed_obj, FORWARD),
        series,
        cone,
        cauchy,
        limit,
        T,
    )
