"""Coarse structures on sets and on categories, and coarse metrization.

Coarse structures are handled through generating families only: a monotone,
eventually constant sequence of controlled sets.  Saturation closures are
never materialised (downward closure alone is exponentially large); two
families are compared by mutual domination, which is exactly what equality
of the generated structures needs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PreconditionError
from .fincat import FiniteCategory
from .weight import Weight
from .weights import Metric1Space


# --- set-level calculus ------------------------------------------------------

@dataclass(frozen=True)
class RelationSet:
    """A relation on the ground set {0, ..., n-1}."""

    n: int
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        for x, y in self.pairs:
            if not (0 <= x < self.n and 0 <= y < self.n):
                raise ValueError(f"pair ({x},{y}) outside ground set of size {self.n}")


def rel_identity(n: int) -> RelationSet:
    return RelationSet(n, frozenset((x, x) for x in range(n)))


def rel_compose(e1: RelationSet, e2: RelationSet) -> RelationSet:
    if e1.n != e2.n:
        raise PreconditionError("relations live on different ground sets")
    by_first: dict[int, list[int]] = {}
    for y, z in e2.pairs:
        by_first.setdefault(y, []).append(z)
    out = {
        (x, z)
        for x, y in e1.pairs
        for z in by_first.get(y, ())
    }
    return RelationSet(e1.n, frozenset(out))


def rel_inverse(e: RelationSet) -> RelationSet:
    return RelationSet(e.n, frozenset((y, x) for x, y in e.pairs))


def rel_star(e: RelationSet) -> RelationSet:
    """Union of {(y,z): some x relates to both y and z} and
    {(x,y): x and y both relate to some z}."""
    left = {
        (y, z)
        for x, y in e.pairs
        for x2, z in e.pairs
        if x == x2
    }
    right = {
        (x, y)
        for x, z in e.pairs
        for y, z2 in e.pairs
        if z == z2
    }
    return RelationSet(e.n, frozenset(left | right))


# --- arrow-level calculus ----------------------------------------------------

def arrow_compose_sets(cat: FiniteCategory, e1: frozenset[int], e2: frozenset[int]) -> frozenset[int]:
    """{f1 after f2 : f1 in e1, f2 in e2, composable}.

    Mirrors the set-level composition; pairs that do not compose simply
    contribute nothing (the composition of generators with nothing in
    common is the empty set, not an error).
    """
    arrows, out_of, comp = cat.arrows, cat.adjacency.out, cat.composition
    out = set()
    for f2 in e2:
        out.update([comp[(f2, f1)] for f1 in out_of.get(arrows[f2].cod, ()) if f1 in e1])
    return frozenset(out)


def arrow_star(cat: FiniteCategory, e: frozenset[int]) -> frozenset[int]:
    """Arrows completing some member of e to another member, on either side:
    {psi : exists phi in e with psi after phi in e} union
    {psi : exists phi in e with phi after psi in e}.

    Only the neighbours of members are candidates: psi after phi needs
    dom psi == cod phi, phi after psi needs cod psi == dom phi."""
    arrows, adj, comp = cat.arrows, cat.adjacency, cat.composition
    out = set()
    for phi in e:
        ph = arrows[phi]
        out.update([psi for psi in adj.out.get(ph.cod, ())
                    if psi not in out and comp[(phi, psi)] in e])
        out.update([psi for psi in adj.into.get(ph.dom, ())
                    if psi not in out and comp[(psi, phi)] in e])
    return frozenset(out)


def arrow_diagonal(cat: FiniteCategory) -> frozenset[int]:
    return frozenset(cat.identity.values())


# --- generating families -----------------------------------------------------

@dataclass(eq=True)
class CoarseGenerators:
    """A monotone generating family E_0 <= E_1 <= ..., constant from
    index `constant_from` on (the listed sets cover indices 0..len-1 and
    the last listed set repeats forever)."""

    category: FiniteCategory
    sets: tuple[frozenset[int], ...]
    constant_from: int

    def __post_init__(self):
        if not self.sets:
            raise PreconditionError("at least one generator set required")
        if not (0 <= self.constant_from < len(self.sets)):
            raise PreconditionError("constant_from must index into the listed sets")
        m = len(self.category.arrows)
        for i, s in enumerate(self.sets):
            for a in s:
                if not (0 <= a < m):
                    raise PreconditionError(f"generator {i} mentions dangling arrow {a}")
            if i > 0 and not (self.sets[i - 1] <= s):
                raise PreconditionError(
                    f"generators not monotone: set {i - 1} is not contained in set {i}"
                )
        for i in range(self.constant_from, len(self.sets)):
            if self.sets[i] != self.sets[self.constant_from]:
                raise PreconditionError("sets past constant_from must repeat the constant set")

    @classmethod
    def normalized(cls, category: FiniteCategory, raw_sets, constant_from: int | None = None):
        """Replace an arbitrary eventually-constant family by its running
        unions; this never changes the generated structure."""
        acc: set[int] = set()
        sets = []
        for s in raw_sets:
            acc |= set(s)
            sets.append(frozenset(acc))
        if not sets:
            sets = [frozenset()]
        k = constant_from if constant_from is not None else len(sets) - 1
        k = min(k, len(sets) - 1)
        # running unions may keep growing past the declared constant tail
        for i in range(k + 1, len(sets)):
            if sets[i] != sets[k]:
                k = i
        return cls(category, tuple(sets), k)

    def at(self, n: int) -> frozenset[int]:
        return self.sets[min(n, self.constant_from)]

    @property
    def top(self) -> frozenset[int]:
        return self.sets[self.constant_from]


def bounded_generators(space: Metric1Space) -> CoarseGenerators:
    """E_n = arrows of weight at most n; constant once n clears the largest
    finite weight.  Infinite-weight arrows belong to no E_n.

    For an integer n, w <= n exactly when ceil(w) <= n, so each arrow joins
    the family at the ceiling of its weight."""
    entering: dict[int, list[int]] = {}
    for a in space.category.arrows:
        w = space.w[a.id]
        if not w.is_infinite:
            entering.setdefault(math.ceil(w.finite), []).append(a.id)
    last = max(entering, default=0)
    sets = []
    members: set[int] = set()
    for n in range(last + 1):
        members.update(entering.get(n, ()))
        sets.append(frozenset(members))
    return CoarseGenerators(space.category, tuple(sets), last)


def metrize_chain(gens: CoarseGenerators) -> list[frozenset[int]]:
    """The staged closure F_0 = identities,
    F_{n+1} = star(F_n) | F_n o F_n | E_n | star(E_n), listed until it
    stabilises.  The chain is monotone (identities sit in every F_n, and a
    set containing them is contained in its own star) and the arrow set is
    finite, so stabilisation is guaranteed once the generators go constant."""
    cat = gens.category
    chain = [arrow_diagonal(cat)]
    n = 0
    while True:
        current = chain[-1]
        e_n = gens.at(n)
        nxt = (
            arrow_star(cat, current)
            | arrow_compose_sets(cat, current, current)
            | e_n
            | arrow_star(cat, e_n)
            | current
        )
        n += 1
        if nxt == current and n > gens.constant_from:
            return chain
        chain.append(nxt)


def metrize(gens: CoarseGenerators) -> Metric1Space:
    """Weights from a generating family: w(psi) = least n with psi in F_n
    along the staged closure (infinite if psi never enters).

    Identities, and only identities, get weight 0.  The restricted
    triangle inequality always holds for the output; the lower (full)
    half can fail for families that do not dominate the structure they
    generate, so callers who need a valid metric 1-space should
    re-validate.
    """
    cat = gens.category
    entered: dict[int, int] = {}
    for stage, members in enumerate(metrize_chain(gens)):
        for a in members:
            entered.setdefault(a, stage)
    weights = tuple(
        Weight(entered[a.id]) if a.id in entered else Weight.infinite()
        for a in cat.arrows
    )
    return Metric1Space(cat, weights)


def dominated_by(a: CoarseGenerators, b: CoarseGenerators) -> bool:
    """Every listed generator of `a` is contained in some generator of `b`.
    Monotone families make this a containment in b's top set."""
    return all(s <= b.top for s in a.sets)


def coarse_roundtrip_check(space: Metric1Space) -> bool:
    """Bounded generators of the metrization of the bounded generators of a
    space generate the same coarse structure as the bounded generators
    themselves (tested by mutual domination)."""
    first = bounded_generators(space)
    rebuilt = bounded_generators(metrize(first))
    return dominated_by(first, rebuilt) and dominated_by(rebuilt, first)
