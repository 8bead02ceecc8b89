"""Convergence in metric 1-spaces: sequences, series, cones, certificates.

Infinite sequences of arrows are encoded as eventually periodic data
(preperiod list + repeating period).  In a finite category this encoding is
closed under every construction used here (partial compositions, functor
images, truncations) by pigeonhole, and it makes all limit questions exactly
decidable: a question about "all large n" reduces to one full period past
the point where every participating description has stabilised.

A horizon-bounded description (a plain finite prefix of an otherwise
unknown sequence) is also supported; checks on such data never return an
exact positive verdict, only "verified-to-horizon".

Everything here is forward.  Backward data (a shared codomain, a series
composing the other way, legs out of the apex) is forward data of
`opposite_space`, whose arrow ids are the same.  One mediator check,
`check_weak_pushout`, serves sequence cones and series cocones alike.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PreconditionError, TheoremViolation
from .fincat import Functor
from .weight import ZERO
from .weights import Metric1Space

EXACT_YES = "exact-yes"
EXACT_NO = "exact-no"
TO_HORIZON = "verified-to-horizon"


@dataclass(frozen=True)
class EventuallyPeriodic:
    """n -> preperiod[n] for small n, then the period repeats forever."""

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be non-empty")

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


@dataclass(frozen=True)
class BoundedDescription:
    """The first `horizon` entries of an otherwise unknown sequence."""

    entries: tuple[int, ...]

    is_exact = False

    def at(self, n: int) -> int:
        return self.entries[n]

    @property
    def horizon(self) -> int:
        return len(self.entries)

    @classmethod
    def from_generator(cls, fn, horizon: int) -> "BoundedDescription":
        return cls(tuple(fn(n) for n in range(horizon)))


Description = EventuallyPeriodic | BoundedDescription


@dataclass(frozen=True)
class ForwardSequence:
    """Arrows with common domain `base`: n -> (base -> x_n)."""

    base: int
    arrows: Description


@dataclass(frozen=True)
class ForwardSeries:
    """Consecutively composable arrows: cod of entry n = dom of entry n+1."""

    arrows: Description


@dataclass(frozen=True)
class EssentialCone:
    """Legs x_k -> apex from index `start_index` onwards, indexed relative
    to it: leg(k) = legs.at(k - start_index).  (Legs apex -> x_k are the
    same legs in the opposite space.)
    """

    start_index: int
    apex: int
    legs: Description

    def leg(self, k: int) -> int:
        return self.legs.at(k - self.start_index)


@dataclass(frozen=True)
class LimitCertificate:
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


def _horizon(*known: tuple[Description, int]) -> int:
    """The first index at which some (bounded description, offset) pair is
    unknown."""
    return min(offset + d.horizon for d, offset in known if not d.is_exact)


def require_sequence(space: Metric1Space, seq: ForwardSequence, upto: int) -> None:
    """Raise PreconditionError unless entries below `upto` share the base."""
    cat = space.category
    errs = []
    for n in range(upto):
        a = cat.arrows[seq.arrows.at(n)]
        if a.dom != seq.base:
            errs.append(f"sequence entry {n} is {a}; domain must be {seq.base}")
    if errs:
        raise PreconditionError("; ".join(errs))


def require_series(space: Metric1Space, series: ForwardSeries, upto: int) -> None:
    """Raise PreconditionError unless entries below `upto` compose in turn."""
    cat = space.category
    errs = []
    for n in range(upto - 1):
        a = cat.arrows[series.arrows.at(n)]
        b = cat.arrows[series.arrows.at(n + 1)]
        if a.cod != b.dom:
            errs.append(f"series entries {n},{n + 1} not composable: {a} then {b}")
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
    exact = seq.arrows.is_exact and cone.legs.is_exact
    if exact:
        K0, L = _exact_window(seq.arrows, cone.legs, starts=(cone.start_index + cone.legs.stable_from,))
        upto = max(K0, cone.start_index) + L
    else:
        upto = _horizon((seq.arrows, 0), (cone.legs, cone.start_index))
    require_sequence(space, seq, upto)

    common: int | None = None
    for k in range(cone.start_index, upto):
        psi = cat.arrows[seq.arrows.at(k)]
        rho = cat.arrows[cone.leg(k)]
        if rho.dom != psi.cod or rho.cod != cone.apex:
            raise PreconditionError(
                f"cone leg at {k} is {rho}; must run {psi.cod} -> {cone.apex}"
            )
        comp = cat.compose(psi.id, rho.id)
        if common is None:
            common = comp
        elif comp != common:
            return LimitCertificate(
                EXACT_NO, witness_index=k,
                detail="composites through the cone do not agree",
            )

    if not exact:
        return LimitCertificate(
            TO_HORIZON, limiting_arrow=common,
            detail=f"commutation verified for indices < {upto}; weight limit undecidable on bounded data",
        )

    tail_from = max(K0, cone.start_index)
    for k in range(tail_from, tail_from + L):
        if space.w[cone.leg(k)] != ZERO:
            return LimitCertificate(
                EXACT_NO, witness_index=k,
                detail=f"leg weight at index {k} is {space.w[cone.leg(k)]}; periodic tail must weigh 0",
            )
    return LimitCertificate(EXACT_YES, limiting_arrow=common)


def partial_compositions(space: Metric1Space, series: ForwardSeries) -> ForwardSequence:
    """The sequence n -> (entry n after ... after entry 0).

    In a finite category the accumulated arrows must eventually cycle:
    the pair (position inside the series' period, accumulated arrow) ranges
    over a finite set.
    """
    cat = space.category
    arr = series.arrows
    require_series(space, series, arr.stable_from + arr.cycle + 1 if arr.is_exact else arr.horizon)
    if not arr.is_exact:
        accs = []
        acc = None
        for n in range(arr.horizon):
            a = arr.at(n)
            acc = a if acc is None else cat.compose(acc, a)
            accs.append(acc)
        base = cat.arrows[arr.at(0)].dom
        return ForwardSequence(base, BoundedDescription(tuple(accs)))

    base_len = arr.stable_from
    accs: list[int] = []
    seen: dict[tuple[int, int], int] = {}
    acc = None
    n = 0
    while True:
        a = arr.at(n)
        acc = a if acc is None else cat.compose(acc, a)
        accs.append(acc)
        nxt = n + 1
        if nxt >= base_len:
            state = ((nxt - base_len) % arr.cycle, acc)
            if state in seen:
                j = seen[state]
                desc = EventuallyPeriodic(tuple(accs[: j + 1]), tuple(accs[j + 1 :]))
                base = cat.arrows[arr.at(0)].dom
                return ForwardSequence(base, desc)
            seen[state] = n
        n += 1


def check_cauchy(space: Metric1Space, series: ForwardSeries) -> LimitCertificate:
    """Exact Cauchy decision for eventually periodic series.

    The occurring weights form a finite set, so "for every epsilon" forces
    every window composition (entry n after ... after entry m, n > m) past
    some N to weigh exactly 0.  Window behaviour from index m depends only
    on m's position in the period once m is past the preperiod, and every
    position recurs beyond every N, so the series is Cauchy iff every start
    position only generates weight-0 windows.
    """
    cat = space.category
    arr = series.arrows
    require_series(space, series, arr.stable_from + arr.cycle + 1 if arr.is_exact else arr.horizon)
    if not arr.is_exact:
        bad = None
        for m in range(arr.horizon):
            acc = arr.at(m)
            for n in range(m + 1, arr.horizon):
                acc = cat.compose(acc, arr.at(n))
                if space.w[acc] != ZERO:
                    bad = (m, n)
                    break
            if bad:
                break
        detail = (
            f"window ({bad[0]},{bad[1]}) weighs nonzero within the horizon"
            if bad
            else f"all windows within horizon {arr.horizon} weigh 0"
        )
        return LimitCertificate(TO_HORIZON, detail=detail)

    base_len = arr.stable_from
    for p in range(arr.cycle):
        m = base_len + p
        acc = arr.at(m)
        seen: set[tuple[int, int]] = set()
        n = m
        while True:
            n += 1
            acc = cat.compose(acc, arr.at(n))
            if space.w[acc] != ZERO:
                return LimitCertificate(
                    EXACT_NO, witness_index=m,
                    detail=f"window ({m},{n}) weighs {space.w[acc]}; its start position recurs forever",
                )
            state = ((n + 1 - base_len) % arr.cycle, acc)
            if state in seen:
                break
            seen.add(state)
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
    exact = series.arrows.is_exact and cone.legs.is_exact
    if exact:
        K0, L = _exact_window(series.arrows, cone.legs)
        upto = K0 + L
    else:
        upto = _horizon((series.arrows, 0), (cone.legs, 0)) - 1
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
            return LimitCertificate(
                EXACT_NO, witness_index=n,
                detail=f"leg compatibility mu_{n} == mu_{n + 1} after entry {n} fails",
            )

    if not exact:
        return LimitCertificate(
            TO_HORIZON, limiting_arrow=cone.leg(0),
            detail=f"leg compatibility verified for indices < {upto}",
        )

    for k in range(K0, K0 + L):
        if space.w[cone.leg(k)] != ZERO:
            return LimitCertificate(
                EXACT_NO, witness_index=k,
                detail=f"leg weight at index {k} is {space.w[cone.leg(k)]}; periodic tail must weigh 0",
            )
    return LimitCertificate(EXACT_YES, limiting_arrow=cone.leg(0))


def truncate_series(series: ForwardSeries, k: int) -> ForwardSeries:
    """The shifted series n -> entry n + k."""
    if k < 0:
        raise PreconditionError("truncation index must be non-negative")
    if not series.arrows.is_exact:
        return ForwardSeries(BoundedDescription(series.arrows.entries[k:]))
    return ForwardSeries(series.arrows.drop(k))


def truncate_cone(cone: EssentialCone, k: int) -> EssentialCone:
    """Legs from index k re-indexed to certify the k-truncated series."""
    if not cone.legs.is_exact:
        return EssentialCone(cone.start_index, cone.apex, BoundedDescription(cone.legs.entries[k:]))
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
    convergence outright.
    """
    arr = series.arrows
    if not arr.is_exact:
        raise PreconditionError("convergence search needs an eventually periodic series")
    cat = space.category
    require_series(space, series, arr.stable_from + arr.cycle + 1)
    base = arr.stable_from
    L = arr.cycle

    for apex in range(len(cat.objects)):
        # nodes: (phase, zero-weight arrow from the phase's object to apex)
        nodes: dict[int, list[int]] = {}
        for q in range(L):
            x_q = cat.arrows[arr.at(base + q)].dom
            nodes[q] = [a for a in cat.hom(x_q, apex) if space.w[a] == ZERO]
        edges: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for q in range(L):
            psi = arr.at(base + q)
            for a in nodes[q]:
                succ = [
                    ((q + 1) % L, b)
                    for b in nodes[(q + 1) % L]
                    if cat.compose(psi, b) == a
                ]
                edges[(q, a)] = succ
        cycle = _find_cycle(edges)
        if cycle is None:
            continue
        # legs: on the cycle from its entry index, back-composed before it
        q0, a0 = cycle[0]
        n0 = base + q0
        tail = [a for (_, a) in cycle]
        legs_before: list[int] = [0] * n0
        nxt = a0
        for n in range(n0 - 1, -1, -1):
            nxt = cat.compose(arr.at(n), nxt)
            legs_before[n] = nxt
        cone = EssentialCone(0, apex, EventuallyPeriodic(tuple(legs_before), tuple(tail)))
        cert = check_series_limit(space, series, cone)
        if cert.verdict != EXACT_YES:
            raise TheoremViolation("constructed cone failed re-verification: " + cert.detail)
        return cert, cone
    return (
        LimitCertificate(EXACT_NO, detail="no apex admits a periodic system of zero-weight legs"),
        None,
    )


def _find_cycle(edges: dict[tuple[int, int], list[tuple[int, int]]]):
    """A cycle in the successor graph, as a node list whose last node loops
    back to the first, or None."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {v: WHITE for v in edges}
    for root in edges:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(edges[root]))]
        path = [root]
        color[root] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for succ in it:
                if color[succ] == GREY:
                    i = path.index(succ)
                    return path[i:]
                if color[succ] == WHITE:
                    color[succ] = GREY
                    stack.append((succ, iter(edges[succ])))
                    path.append(succ)
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
                path.pop()
    return None


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
    cat = space.category
    if not (seq.arrows.is_exact and cone_a.legs.is_exact and cone_b.legs.is_exact):
        raise PreconditionError("mediating-arrow search needs eventually periodic data")
    K0, L = _exact_window(
        seq.arrows, cone_a.legs, cone_b.legs,
        starts=(
            cone_a.start_index + cone_a.legs.stable_from,
            cone_b.start_index + cone_b.legs.stable_from,
        ),
    )
    start = max(K0, cone_a.start_index, cone_b.start_index)
    window = range(start, start + L)
    found = []
    for h in cat.hom(cone_a.apex, cone_b.apex):
        if any(cat.compose(cone_a.leg(k), h) == cone_b.leg(k) for k in window):
            found.append(h)
    return tuple(found)


@dataclass(frozen=True)
class MediatingReport:
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
    cat = space.category
    mediators = []
    for other in other_cones:
        descs = [seq.arrows, cone.legs, other.legs]
        if not all(d.is_exact for d in descs):
            raise PreconditionError("pushout checks need eventually periodic data")
        K0, L = _exact_window(
            *descs,
            starts=(
                cone.start_index + cone.legs.stable_from,
                other.start_index + other.legs.stable_from,
            ),
        )
        first = max(cone.start_index, other.start_index)
        window = range(first, max(first, K0) + L)
        hs = []
        for h in cat.hom(cone.apex, other.apex):
            if all(cat.compose(cone.leg(n), h) == other.leg(n) for n in window):
                hs.append(h)
        mediators.append(tuple(hs))
    ok = all(len(hs) == 1 if require_unique else len(hs) >= 1 for hs in mediators)
    kind = "unique mediating arrow" if require_unique else "mediating arrow"
    return MediatingReport(ok, tuple(mediators), f"{kind} per competitor cone: {[len(h) for h in mediators]}")


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
