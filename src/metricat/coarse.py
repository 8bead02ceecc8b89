"""Coarse structures on sets and on categories, and coarse metrization.

Coarse structures are handled through generating families only: a monotone,
eventually constant sequence of controlled sets.  Saturation closures are
never materialised (downward closure alone is exponentially large); two
families are compared by mutual domination, which is exactly what equality
of the generated structures needs.
"""
from __future__ import annotations

from bisect import bisect_right

from .errors import Budget, PreconditionError
from .fincat import FiniteCategory
from .record import FrozenRecord, Record
from .weight import INF, Weight, ceilings
from .weights import Metric1Space


# --- set-level calculus ------------------------------------------------------

class RelationSet(FrozenRecord):
    """A relation on the ground set {0, ..., n-1}."""

    __slots__ = _fields = ("n", "pairs")

    def __init__(self, n: int, pairs: frozenset[tuple[int, int]]):
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"pair ({x},{y}) outside ground set of size {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pairs", pairs)


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
    common is the empty set, not an error).  The composites of f2 are read
    off its row ``cat.after[f2]``; the table must cover every composable
    pair.  The scan stops once the result holds every arrow.
    """
    after, m = cat.after, len(cat.arrows)
    out = set()
    for f2 in e2:
        out.update([h for f1, h in after[f2].items() if f1 in e1])
        if len(out) == m:
            break
    return frozenset(out)


def arrow_star(cat: FiniteCategory, e: frozenset[int]) -> frozenset[int]:
    """Arrows completing some member of e to another member, on either side:
    {psi : exists phi in e with psi after phi in e} union
    {psi : exists phi in e with phi after psi in e}.

    Only the neighbours of members are candidates: psi after phi needs
    dom psi == cod phi, phi after psi needs cod psi == dom phi.  Both halves
    read the rows `cat.after`: psi after phi is ``after[phi][psi]``, over
    the row of phi, and phi after psi is ``after[psi][phi]``, for each psi
    into dom phi.  The table must cover every composable pair.  The scan
    stops once the result holds every arrow.

    A set holding every identity lies in its own star (psi = psi o id).
    When e does and fewer arrows lie outside e than in it, only the arrows
    outside e are tested instead, each against its own row and the arrows
    into its domain: the same two halves, read from the other end."""
    arrows, into, after = cat.arrows, cat.adjacency.into, cat.after
    m = len(arrows)
    if 2 * len(e) > m and all(i in e for i in cat.identity.values()):
        return frozenset(e).union([
            psi for psi in range(m) if psi not in e and (
                any(h in e for phi, h in after[psi].items() if phi in e)
                or any(after[phi][psi] in e for phi in into.get(arrows[psi].dom, ()) if phi in e)
            )
        ])
    out = set()
    for phi in e:
        out.update([psi for psi, h in after[phi].items() if psi not in out and h in e])
        out.update([psi for psi in into.get(arrows[phi].dom, ())
                    if psi not in out and after[psi][phi] in e])
        if len(out) == m:
            break
    return frozenset(out)


def arrow_diagonal(cat: FiniteCategory) -> frozenset[int]:
    return frozenset(cat.identity.values())


# --- generating families -----------------------------------------------------

class CoarseGenerators(Record):
    """A monotone generating family E_0 <= E_1 <= ..., constant from
    index `constant_from` on (the listed sets cover indices 0..len-1 and
    the last listed set repeats forever)."""

    __slots__ = _fields = ("category", "sets", "constant_from")

    def __init__(self, category: FiniteCategory, sets: tuple[frozenset[int], ...],
                 constant_from: int):
        if not sets:
            raise PreconditionError("at least one generator set required")
        if not (0 <= constant_from < len(sets)):
            raise PreconditionError("constant_from must index into the listed sets")
        m = len(category.arrows)
        # monotone sets all lie in the last one, so its range check covers
        # every set; else the per-set loop finds the first failure
        last = sets[-1]
        if not (all(s <= t for s, t in zip(sets, sets[1:]))
                and all(0 <= a < m for a in last)):
            for i, s in enumerate(sets):
                for a in s:
                    if not (0 <= a < m):
                        raise PreconditionError(f"generator {i} mentions dangling arrow {a}")
                if i > 0 and not (sets[i - 1] <= s):
                    raise PreconditionError(
                        f"generators not monotone: set {i - 1} is not contained in set {i}"
                    )
        for i in range(constant_from, len(sets)):
            if sets[i] != sets[constant_from]:
                raise PreconditionError("sets past constant_from must repeat the constant set")
        self.category = category
        self.sets = sets
        self.constant_from = constant_from

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
    the family at the ceiling of its weight.  The family is charged to a
    default `Budget` before any set is built: a set costs its members and
    an empty one costs one.  An arrow entering at k sits in the sets k..last,
    so the charge is read off the entry stages alone."""
    entering: dict[int, list[int]] = {}
    for a, k in enumerate(ceilings(space.w)):
        if k is not None:
            entering.setdefault(k, []).append(a)
    last = max(entering, default=0)
    Budget().spend(
        sum(len(ids) * (last - k + 1) for k, ids in entering.items()) + min(entering, default=1),
        "bounded generators", "set members",
    )
    sets = []
    members: set[int] = set()
    for n in range(last + 1):
        members.update(entering.get(n, ()))
        sets.append(frozenset(members))
    return CoarseGenerators(space.category, tuple(sets), last)


def metrize_chain(gens: CoarseGenerators) -> list[frozenset[int]]:
    """The staged closure F_0 = identities,
    F_{n+1} = star(F_n) | F_n o F_n | E_n | star(E_n) | F_n, listed until it
    stabilises and at least up to index `constant_from`.  The chain is
    monotone (identities sit in every F_n, and a set containing them is
    contained in its own star) and the arrow set is finite, so
    stabilisation is guaranteed once the generators go constant.

    The loop stops at the first stage from which the chain provably cannot
    change, and repeats that stage's set up to index `constant_from`:

    (a) F_n holds every arrow: no stage can add one, so the next stage is
        not computed at all.
    (b) F_{n+1} = F_n and F_n contains `gens.top`: every later E_k lies in
        top, which lies in F_n, and star and o are monotone, so star(E_k)
        lies in star(F_n), which lies in F_{n+1} = F_n.  No later stage
        adds an arrow, and F_k = F_n for every k > n.

    Exit (b) covers the plain stop past `constant_from`, where E_n = top
    already lies in F_{n+1} = F_n.  A stage that adds nothing while top is
    not yet covered is no exit: a later E_k can still grow the chain.  But
    F_{k+1} depends on F_k and E_k alone, so the stage repeats exactly
    until E_k grows; the loop lists F_n for those indices and goes on at
    the first k with E_k larger than E_n (the sets are monotone, so their
    sizes find it).

    A stage computes only the parts that can still change it.  It starts
    from F_n | E_n and adds star(F_n), then F_n o F_n, then star(E_n):

    - Once the set holds all m arrows, the remaining parts are skipped.
      The union only grows, so they could add nothing, and exit (a) asks
      only whether the stage holds m arrows.
    - star(E_n) is skipped when E_n lies in F_n: star is monotone, so
      star(E_n) then lies in star(F_n), which the stage already holds (the
      argument of exit (b)).  Each stage puts E_n into F_{n+1}, so star(E_n)
      is computed at most once per distinct set E_n, however many stages
      share it."""
    cat = gens.category
    m, top = len(cat.arrows), gens.top
    chain = [arrow_diagonal(cat)]
    n = 0
    while len(chain[-1]) < m:
        current = chain[-1]
        e_n = gens.at(n)
        nxt = current | e_n
        if len(nxt) < m:
            nxt |= arrow_star(cat, current)
        if len(nxt) < m:
            nxt |= arrow_compose_sets(cat, current, current)
        if len(nxt) < m and not e_n <= current:
            nxt |= arrow_star(cat, e_n)
        n += 1
        if nxt != current:
            chain.append(nxt)
        elif top <= current:
            break
        else:
            grows = bisect_right(gens.sets, len(e_n), lo=n, key=len)
            chain.extend([current] * (grows - n + 1))
            n = grows
    chain.extend([chain[-1]] * (gens.constant_from + 1 - len(chain)))
    return chain


def metrize(gens: CoarseGenerators) -> Metric1Space:
    """Weights from a generating family: w(psi) = least n with psi in F_n
    along the staged closure (infinite if psi never enters).

    Identities, and only identities, get weight 0.  The restricted
    triangle inequality always holds for the output; the lower (full)
    half can fail for families that do not dominate the structure they
    generate, so callers who need a valid metric 1-space should
    re-validate.

    Only the members new at each stage are read, and the scan ends at the
    chain's final set: the stages past it repeat that set.
    """
    cat = gens.category
    chain = metrize_chain(gens)
    final = chain[-1]
    weights = [INF] * len(cat.arrows)
    seen: frozenset[int] = frozenset()
    for stage, members in enumerate(chain):
        weight = Weight(stage)  # one per stage: a Weight is immutable
        for a in members - seen:
            weights[a] = weight
        if members is final:
            break
        seen = members
    return Metric1Space(cat, tuple(weights))


def dominated_by(a: CoarseGenerators, b: CoarseGenerators) -> bool:
    """Every listed generator of `a` is contained in some generator of `b`.
    Monotone families make this a containment of a's top set in b's."""
    return a.top <= b.top


def coarse_roundtrip_check(space: Metric1Space) -> bool:
    """Bounded generators of the metrization of the bounded generators of a
    space generate the same coarse structure as the bounded generators
    themselves (tested by mutual domination).

    With ``first = bounded_generators(space)`` this is
    ``metrize_chain(first)[-1] == first.top``:

    - `metrize` gives a finite weight (the stage it enters at) exactly to
      the members of the chain's final set, and every other arrow infinity.
      The top set of bounded generators is the set of finite-weight arrows,
      so ``bounded_generators(metrize(first)).top`` is that final set.
    - Both families are monotone, so each dominates the other exactly when
      each top lies in the other (`dominated_by`): when the tops are equal.

    So no weights, no second space and no second family are built."""
    first = bounded_generators(space)
    return metrize_chain(first)[-1] == first.top
