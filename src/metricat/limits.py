"""Convergence in metric 1-spaces: sequences, series, cones, certificates.

Infinite sequences of arrows are encoded as eventually periodic data
(preperiod list + repeating period).  In a finite category this encoding is
closed under every construction used here (partial compositions, functor
images, truncations) by pigeonhole, and it makes all limit questions exactly
decidable: a question about "all large n" reduces to one full period past
the point where every participating description has stabilised.

A horizon-bounded description (a plain finite prefix of an otherwise
unknown sequence) is also supported; checks on such data never return an
exact positive verdict, only "verified-to-horizon".  Each check has one
body for both kinds: the kind chooses only the indices read and the
verdict.  Partial compositions come from one walk, which stops at the
horizon of bounded data and at the first repeated (phase, composite) pair
of eventually periodic data; a Cauchy window (m, n) is entry n - m of the
walk over the series truncated at m.

Everything here is forward.  Backward data (a shared codomain, a series
composing the other way, legs out of the apex) is forward data of
`opposite_space`, whose arrow ids are the same.  One mediator check,
`check_weak_pushout`, serves sequence cones and series cocones alike.
"""
from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .errors import Budget, PreconditionError, TheoremViolation
from .fincat import FiniteCategory, Functor
from .record import FrozenRecord
from .weight import ZERO
from .weights import Metric1Space

EXACT_YES = "exact-yes"
EXACT_NO = "exact-no"
TO_HORIZON = "verified-to-horizon"


class EventuallyPeriodic(FrozenRecord):
    """n -> preperiod[n] for small n, then the period repeats forever."""

    __slots__ = _fields = ("preperiod", "period")

    def __init__(self, preperiod: tuple[int, ...], period: tuple[int, ...]):
        if not period:
            raise ValueError("period must be non-empty")
        object.__setattr__(self, "preperiod", preperiod)
        object.__setattr__(self, "period", period)

    is_exact = True

    def at(self, n: int) -> int:
        if n < len(self.preperiod):
            return self.preperiod[n]
        return self.period[(n - len(self.preperiod)) % len(self.period)]

    @property
    def stable_from(self) -> int:
        return len(self.preperiod)

    @property
    def cycle(self) -> int:
        return len(self.period)

    def drop(self, k: int) -> "EventuallyPeriodic":
        """The shifted description n -> self.at(n + k)."""
        if k <= len(self.preperiod):
            return EventuallyPeriodic(self.preperiod[k:], self.period)
        shift = (k - len(self.preperiod)) % len(self.period)
        return EventuallyPeriodic((), self.period[shift:] + self.period[:shift])


class BoundedDescription(NamedTuple):
    """The first `horizon` entries of an otherwise unknown sequence."""

    entries: tuple[int, ...]

    is_exact = False

    def at(self, n: int) -> int:
        return self.entries[n]

    @property
    def horizon(self) -> int:
        return len(self.entries)

    def drop(self, k: int) -> "BoundedDescription":
        """The shifted description n -> self.at(n + k)."""
        return BoundedDescription(self.entries[k:])

    @classmethod
    def from_generator(cls, fn, horizon: int) -> "BoundedDescription":
        return cls(tuple(fn(n) for n in range(horizon)))


Description = EventuallyPeriodic | BoundedDescription


class ForwardSequence(NamedTuple):
    """Arrows with common domain `base`: n -> (base -> x_n)."""

    base: int
    arrows: Description


class ForwardSeries(NamedTuple):
    """Consecutively composable arrows: cod of entry n = dom of entry n+1."""

    arrows: Description


class EssentialCone(NamedTuple):
    """Legs x_k -> apex from index `start_index` onwards, indexed relative
    to it: leg(k) = legs.at(k - start_index).  (Legs apex -> x_k are the
    same legs in the opposite space.)
    """

    start_index: int
    apex: int
    legs: Description

    def leg(self, k: int) -> int:
        return self.legs.at(k - self.start_index)


class LimitCertificate(NamedTuple):
    verdict: str
    limiting_arrow: int | None = None
    witness_index: int | None = None
    detail: str = ""


def _exact_window(*descriptions: Description, starts: tuple[int, ...] = ()):
    """(K0, L): index where all descriptions have stabilised, and the
    common cycle length.  Checking [min_start, K0 + L) covers every
    distinct configuration the descriptions can ever be in."""
    K0 = max([d.stable_from for d in descriptions] + list(starts))
    return K0, math.lcm(*(d.cycle for d in descriptions))


def _cone_window(arrows: Description, cone: EssentialCone, budget: Budget) -> tuple[int, range | None]:
    """(upto, tail) for a cone over `arrows`: its checks read the indices
    below upto.  On eventually periodic data, tail is the period past
    stabilisation whose legs must weigh 0; on bounded data it is None, and
    upto is the first index at which some description is unknown.  Both
    are charged to `budget` before either is scanned."""
    legs, start = cone.legs, cone.start_index
    if arrows.is_exact and legs.is_exact:
        K0, L = _exact_window(arrows, legs, starts=(start + legs.stable_from,))
        first = max(K0, start)
        upto, tail = first + L, range(first, first + L)
    else:
        upto, tail = min(offset + d.horizon for d, offset in ((arrows, 0), (legs, start))
                         if not d.is_exact), None
    budget.spend(upto + len(tail or ()), "cone window", "indices")
    return upto, tail


def _series_upto(arr: Description) -> int:
    """Entries whose consecutive pairs must compose: past one period and
    into the next for eventually periodic data, the horizon otherwise."""
    return arr.stable_from + arr.cycle + 1 if arr.is_exact else arr.horizon


def _weightless_tail(space: Metric1Space, cone: EssentialCone, tail: range,
                     limit: int | None) -> LimitCertificate:
    """Exact-yes with `limit` if the legs at the indices of `tail` all
    weigh 0, else exact-no at the first that does not."""
    zero = _weightless(space)
    for k in tail:
        if cone.leg(k) not in zero:
            return LimitCertificate(EXACT_NO, witness_index=k, detail=(
                f"leg weight at index {k} is {space.w[cone.leg(k)]}; periodic tail must weigh 0"))
    return LimitCertificate(EXACT_YES, limiting_arrow=limit)


def _weightless(space: Metric1Space) -> set[int]:
    """The ids of the arrows of weight 0: one comparison per arrow, so that
    a scan tests each arrow it meets by membership."""
    return set(itertools.compress(itertools.count(), map(ZERO.__eq__, space.w)))


def require_sequence(space: Metric1Space, seq: ForwardSequence, upto: int) -> None:
    """Raise PreconditionError unless entries below `upto` share the base."""
    Budget().spend(upto, "sequence check", "indices")
    arrows, at = space.category.arrows, seq.arrows.at
    errs = [f"sequence entry {n} is {arrows[at(n)]}; domain must be {seq.base}"
            for n in range(upto) if arrows[at(n)].dom != seq.base]
    if errs:
        raise PreconditionError("; ".join(errs))


def require_series(space: Metric1Space, series: ForwardSeries, upto: int) -> None:
    """Raise PreconditionError unless entries below `upto` compose in turn."""
    Budget().spend(upto, "series check", "indices")
    arrows, at = space.category.arrows, series.arrows.at
    errs = [f"series entries {n},{n + 1} not composable: {arrows[at(n)]} then {arrows[at(n + 1)]}"
            for n in range(upto - 1) if arrows[at(n)].cod != arrows[at(n + 1)].dom]
    if errs:
        raise PreconditionError("; ".join(errs))


def check_forward_limiting_cone(
    space: Metric1Space, seq: ForwardSequence, cone: EssentialCone
) -> LimitCertificate:
    """Decide whether the essential cone is a limiting cone for the sequence.

    Exact-yes needs (a) all composites leg(k) after psi_k to agree from the
    cone's start index on (the common value is the limiting arrow) and (b)
    the leg weights to tend to 0, which for eventually periodic legs means
    every leg consulted past stabilisation weighs exactly 0.
    """
    cat = space.category
    upto, tail = _cone_window(seq.arrows, cone, Budget())
    require_sequence(space, seq, upto)

    common: int | None = None
    for k in range(cone.start_index, upto):
        psi = cat.arrows[seq.arrows.at(k)]
        rho = cat.arrows[cone.leg(k)]
        if rho.dom != psi.cod or rho.cod != cone.apex:
            raise PreconditionError(f"cone leg at {k} is {rho}; must run {psi.cod} -> {cone.apex}")
        comp = cat.compose(psi.id, rho.id)
        if common is None:
            common = comp
        elif comp != common:
            return LimitCertificate(EXACT_NO, witness_index=k,
                                    detail="composites through the cone do not agree")
    if tail is None:
        return LimitCertificate(TO_HORIZON, limiting_arrow=common, detail=(
            f"commutation verified for indices < {upto}; weight limit undecidable on bounded data"))
    return _weightless_tail(space, cone, tail, common)


def _walk(cat: FiniteCategory, arr: Description, budget: Budget) -> tuple[list[int], int | None]:
    """The composites n -> (entry n after ... after entry 0) of entries
    that compose in turn: up to the horizon of bounded data, or up to the
    first (phase, composite) pair seen before, returned with the index of
    its first sighting, for eventually periodic data.  Each composite is
    charged to `budget` as it is taken."""
    accs: list[int] = []
    seen: dict[tuple[int, int], int] = {}
    for n in itertools.count() if arr.is_exact else range(arr.horizon):
        budget.spend(1, "series walk", "composites")
        a = arr.at(n)
        accs.append(cat.compose(accs[-1], a) if accs else a)
        if arr.is_exact and n + 1 >= arr.stable_from:
            state = ((n + 1 - arr.stable_from) % arr.cycle, accs[-1])
            if state in seen:
                return accs, seen[state]
            seen[state] = n
    return accs, None


def partial_compositions(space: Metric1Space, series: ForwardSeries) -> ForwardSequence:
    """The sequence n -> (entry n after ... after entry 0).

    In a finite category the accumulated arrows must eventually cycle:
    the pair (position inside the series' period, accumulated arrow) ranges
    over a finite set.
    """
    cat = space.category
    arr = series.arrows
    require_series(space, series, _series_upto(arr))
    if not arr.is_exact and not arr.horizon:
        raise PreconditionError("partial compositions need a series entry; this bounded series has none")
    accs, j = _walk(cat, arr, Budget())
    desc = (BoundedDescription(tuple(accs)) if j is None
            else EventuallyPeriodic(tuple(accs[:j + 1]), tuple(accs[j + 1:])))
    return ForwardSequence(cat.arrows[arr.at(0)].dom, desc)


def check_cauchy(space: Metric1Space, series: ForwardSeries) -> LimitCertificate:
    """Cauchy decision: exact for eventually periodic series, up to the
    horizon for bounded ones.

    The occurring weights form a finite set, so "for every epsilon" forces
    every window composition (entry n after ... after entry m, n > m) past
    some N to weigh exactly 0.  Window behaviour from index m depends only
    on m's position in the period once m is past the preperiod, and every
    position recurs beyond every N, so the series is Cauchy iff every start
    position only generates weight-0 windows.  Window (m, n) is entry n - m
    of the partial compositions of the series truncated at m; bounded data
    is read from every start below the horizon.  All the walks charge one
    work budget.
    """
    cat, arr, budget = space.category, series.arrows, Budget()
    require_series(space, series, _series_upto(arr))
    starts = range(arr.stable_from, arr.stable_from + arr.cycle) if arr.is_exact else range(arr.horizon)
    zero = _weightless(space)
    bad = next((
        (m, n, space.w[acc])
        for m in starts
        for n, acc in enumerate(_walk(cat, arr.drop(m), budget)[0][1:], m + 1)
        if acc not in zero
    ), None)
    if not arr.is_exact:
        return LimitCertificate(TO_HORIZON, detail=(
            f"window ({bad[0]},{bad[1]}) weighs nonzero within the horizon"
            if bad else f"all windows within horizon {arr.horizon} weigh 0"
        ))
    if bad:
        m, n, w = bad
        return LimitCertificate(EXACT_NO, witness_index=m,
                                detail=f"window ({m},{n}) weighs {w}; its start position recurs forever")
    return LimitCertificate(EXACT_YES, detail="every window past the preperiod weighs 0")


def check_series_limit(
    space: Metric1Space, series: ForwardSeries, cone: EssentialCone
) -> LimitCertificate:
    """Decide whether the cone (legs mu_n: x_n -> apex from index 0)
    certifies convergence of the series; the limit is mu_0.

    Exact-yes needs mu_n == mu_{n+1} after entry n for all n, and the
    periodic tail of the legs to weigh 0.
    """
    if cone.start_index != 0:
        raise PreconditionError("series cones carry legs from index 0")
    cat = space.category
    upto, tail = _cone_window(series.arrows, cone, Budget())
    if tail is None:
        upto -= 1  # each index reads the leg after it
    require_series(space, series, upto + 1)

    for n in range(upto):
        psi = cat.arrows[series.arrows.at(n)]
        mu_n = cat.arrows[cone.leg(n)]
        mu_next = cat.arrows[cone.leg(n + 1)]
        if mu_n.dom != psi.dom or mu_n.cod != cone.apex:
            raise PreconditionError(f"leg at {n} is {mu_n}; must run {psi.dom} -> {cone.apex}")
        if mu_next.dom != psi.cod:
            raise PreconditionError(f"leg at {n + 1} not composable after series entry {n}")
        if cat.compose(psi.id, mu_next.id) != mu_n.id:
            return LimitCertificate(EXACT_NO, witness_index=n,
                                    detail=f"leg compatibility mu_{n} == mu_{n + 1} after entry {n} fails")
    if tail is None:
        return LimitCertificate(TO_HORIZON, limiting_arrow=cone.leg(0),
                                detail=f"leg compatibility verified for indices < {upto}")
    return _weightless_tail(space, cone, tail, cone.leg(0))


def truncate_series(series: ForwardSeries, k: int) -> ForwardSeries:
    """The shifted series n -> entry n + k."""
    if k < 0:
        raise PreconditionError("truncation index must be non-negative")
    return ForwardSeries(series.arrows.drop(k))


def truncate_cone(cone: EssentialCone, k: int) -> EssentialCone:
    """Legs from index k re-indexed to certify the k-truncated series."""
    if k < 0:
        raise PreconditionError("truncation index must be non-negative")
    return EssentialCone(cone.start_index, cone.apex, cone.legs.drop(k))


def series_converges(
    space: Metric1Space, series: ForwardSeries
) -> tuple[LimitCertificate, EssentialCone | None]:
    """Search for a limiting cone of an eventually periodic series.

    If any legs at all exist (periodic or not), their weights eventually
    vanish exactly (finitely many values), and the states (position in
    period, current leg) then walk a finite graph; an infinite walk forces
    a cycle, which is itself an eventually periodic system of legs.  So
    searching cycles of zero-weight legs per candidate apex decides
    convergence outright.  The graph of each apex is charged to one work
    budget before it is built: its phases, then its candidate edges.
    """
    arr = series.arrows
    if not arr.is_exact:
        raise PreconditionError("convergence search needs an eventually periodic series")
    cat, budget = space.category, Budget()
    require_series(space, series, _series_upto(arr))
    base = arr.stable_from
    L = arr.cycle

    zero = _weightless(space)
    for apex in range(len(cat.objects)):
        # nodes: (phase q, zero-weight arrow from the phase's object to apex)
        budget.spend(L, "convergence search", "indices")
        nodes = [
            [a for a in cat.hom(cat.arrows[arr.at(base + q)].dom, apex) if a in zero]
            for q in range(L)
        ]
        budget.spend(sum(len(a) * len(b) for a, b in zip(nodes, nodes[1:] + nodes[:1])),
                     "convergence search", "composites")
        edges = {
            (q, a): [((q + 1) % L, b) for b in nodes[(q + 1) % L]
                     if cat.compose(arr.at(base + q), b) == a]
            for q in range(L) for a in nodes[q]
        }
        cycle = _find_cycle(edges)
        if cycle is None:
            continue
        # legs: on the cycle from its entry index, back-composed before it
        q0, a0 = cycle[0]
        before = legs_before(space, series, base + q0, a0)
        cone = EssentialCone(0, apex, EventuallyPeriodic(before, tuple(a for _, a in cycle)))
        cert = check_series_limit(space, series, cone)
        if cert.verdict != EXACT_YES:
            raise TheoremViolation("constructed cone failed re-verification: " + cert.detail)
        return cert, cone
    return LimitCertificate(EXACT_NO, detail="no apex admits a periodic system of zero-weight legs"), None


def legs_before(space: Metric1Space, series: ForwardSeries, n0: int, leg: int) -> tuple[int, ...]:
    """The legs below index n0 of the series cone whose leg at n0 is
    `leg`: each is the next leg after the series entry at its index."""
    legs = [leg]
    for n in range(n0 - 1, -1, -1):
        legs.append(space.category.compose(series.arrows.at(n), legs[-1]))
    return tuple(legs[:0:-1])


def _find_cycle(edges: dict[tuple[int, int], list[tuple[int, int]]]):
    """A cycle in the successor graph, as a node list whose last node loops
    back to the first, or None."""
    GREY, BLACK = 1, 2
    color: dict[tuple[int, int], int] = {}
    for root in edges:
        if root in color:
            continue
        color[root] = GREY
        stack = [(root, iter(edges[root]))]
        while stack:
            node, it = stack[-1]
            for succ in it:
                if color.get(succ) == GREY:
                    path = [v for v, _ in stack]
                    return path[path.index(succ):]
                if succ not in color:
                    color[succ] = GREY
                    stack.append((succ, iter(edges[succ])))
                    break
            else:
                color[node] = BLACK
                stack.pop()
    return None


def _mediators(space: Metric1Space, seq: ForwardSequence | ForwardSeries, cone: EssentialCone,
               other: EssentialCone, quantifier, need: str, budget: Budget) -> tuple[int, ...]:
    """Arrows h: cone apex -> other apex with h after cone.leg(k) ==
    other.leg(k): with `all`, at every index both cones carry; with `any`,
    at some index of one period past the stabilised window, which for
    eventually periodic data is at infinitely many indices.  Other data
    raises PreconditionError(need), and so does a leg of `cone` read there
    that does not end at its apex.  The window is charged to `budget` once
    per h, before any is scanned."""
    descs = (seq.arrows, cone.legs, other.legs)
    if not all(d.is_exact for d in descs):
        raise PreconditionError(need)
    K0, L = _exact_window(*descs, starts=(cone.start_index + cone.legs.stable_from,
                                          other.start_index + other.legs.stable_from))
    first = max(cone.start_index, other.start_index)
    start = max(first, K0)
    window = range(first if quantifier is all else start, start + L)
    cat = space.category

    def leg(k: int) -> int:
        rho = cat.arrows[cone.leg(k)]
        if rho.cod != cone.apex:
            raise PreconditionError(f"cone leg at {k} is {rho}; must run {rho.dom} -> {cone.apex}")
        return rho.id

    homs = cat.hom(cone.apex, other.apex)
    budget.spend(len(window) * len(homs), "mediator window", "composites")
    return tuple(h for h in homs if quantifier(cat.compose(leg(k), h) == other.leg(k) for k in window))


def find_mediating_arrows(
    space: Metric1Space,
    seq: ForwardSequence,
    cone_a: EssentialCone,
    cone_b: EssentialCone,
) -> tuple[int, ...]:
    """Arrows apex_a -> apex_b making the compatibility triangle commute for
    infinitely many indices.

    For eventually periodic data "infinitely many" is read as "all tail
    indices in some residue class", so one representative per class in a
    stabilised window decides it.
    """
    return _mediators(space, seq, cone_a, cone_b, any,
                      "mediating-arrow search needs eventually periodic data", Budget())


class MediatingReport(NamedTuple):
    """Outcome of a universal-property check against supplied competitor cones."""

    holds: bool
    mediators: tuple[tuple[int, ...], ...]
    detail: str = ""


def check_weak_pushout(
    space: Metric1Space,
    seq: ForwardSequence | ForwardSeries,
    cone: EssentialCone,
    other_cones: list[EssentialCone],
    require_unique: bool = False,
) -> MediatingReport:
    """Does the cone mediate into each supplied competitor cone?

    Test scaffolding for the categorical (weak) pushout of a forward
    sequence, and for the weak transfinite composition of a series (whose
    cocones carry legs from index 0), on finite data: a mediating arrow h
    must satisfy h after leg(n) == other_leg(n) for every n where both
    cones are defined.  `require_unique` asks for exactly one such h per
    competitor.
    """
    budget = Budget()
    mediators = tuple(
        _mediators(space, seq, cone, other, all, "pushout checks need eventually periodic data", budget)
        for other in other_cones
    )
    ok = all(len(hs) == 1 if require_unique else len(hs) >= 1 for hs in mediators)
    kind = "unique mediating arrow" if require_unique else "mediating arrow"
    return MediatingReport(ok, mediators, f"{kind} per competitor cone: {[len(h) for h in mediators]}")


def map_description(fun: Functor, desc: Description) -> Description:
    if desc.is_exact:
        return EventuallyPeriodic(
            tuple(fun.arr_map[a] for a in desc.preperiod),
            tuple(fun.arr_map[a] for a in desc.period),
        )
    return BoundedDescription(tuple(fun.arr_map[a] for a in desc.entries))


def map_sequence(fun: Functor, seq: ForwardSequence) -> ForwardSequence:
    return ForwardSequence(fun.obj_map[seq.base], map_description(fun, seq.arrows))


def map_cone(fun: Functor, cone: EssentialCone) -> EssentialCone:
    return EssentialCone(cone.start_index, fun.obj_map[cone.apex], map_description(fun, cone.legs))
