"""Dagger structures and the four-level symmetry hierarchy.

A dagger is an identity-on-objects contravariant involution, that is, an
identity-on-objects functor C -> C^op whose arrow map is an involution; the
search for them runs on `fincat.backtrack` and re-checks every dagger it
finds.  Compatibility with the weights comes in decreasing strength:
weight-preserving (iso), uniformly continuous, continuous; a space whose
category is a groupoid sits above all of these, its inverse map being a
canonical iso dagger.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .errors import Budget, PreconditionError, TheoremViolation
from .continuity import forward_continuous, uniformly_continuous
from .fincat import Functor, ValidationReport, backtrack, is_groupoid, opposite_functor
from .weights import Metric1Space, lawvere, opposite_space


class SymmetryClass(IntEnum):
    NONE = 0
    CONTINUOUS = 1
    UNIFORM = 2
    ISO = 3
    GROUPOIDAL = 4

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Dagger:
    """An arrow involution on one category; validate before trusting."""

    mapping: tuple[int, ...]  # arrow id -> arrow id

    def apply(self, aid: int) -> int:
        return self.mapping[aid]


def validate_dagger(space: Metric1Space, dag: Dagger) -> ValidationReport:
    """The three dagger laws, exhaustively: identity on objects (each image
    swaps dom and cod, identities map to themselves), contravariance over
    every composable pair, and involutivity."""
    report = ValidationReport(subject="dagger")
    cat = space.category
    m = len(cat.arrows)
    if len(dag.mapping) != m or any(not (0 <= v < m) for v in dag.mapping):
        report.fatal.append("dagger table does not cover the arrows")
        return report
    out = report.violations
    for a in cat.arrows:
        img = cat.arrows[dag.apply(a.id)]
        if img.dom != a.cod or img.cod != a.dom:
            out.append(f"image of {a} is {img}; a dagger only swaps endpoints")
    for x, ida in cat.identity.items():
        if dag.apply(ida) != ida:
            out.append(f"identity of object {x} is not fixed")
    for a in cat.arrows:
        if dag.apply(dag.apply(a.id)) != a.id:
            out.append(f"involution fails at arrow {a.id}")
    if out:
        return report
    for f, g in cat.composable_pairs():
        # (g after f)^dagger == f^dagger after g^dagger
        lhs = dag.apply(cat.compose(f, g))
        rhs = cat.compose(dag.apply(g), dag.apply(f))
        if lhs != rhs:
            out.append(f"contravariance fails on pair ({f},{g})")
    return report


def canonical_groupoid_dagger(space: Metric1Space) -> Dagger:
    """psi -> psi^{-1}; only defined on groupoids."""
    inv = is_groupoid(space.category)
    if inv is None:
        raise PreconditionError("category is not a groupoid; no canonical dagger")
    return Dagger(tuple(inv[a] for a in range(len(space.category.arrows))))


def dagger_functor(space: Metric1Space, dag: Dagger) -> tuple[Functor, Metric1Space]:
    """The dagger as a functor into the opposite space (arrow ids are
    stable under opposition, so the arrow table is the involution itself)."""
    op_space = opposite_space(space)
    fun = Functor(
        space.category,
        op_space.category,
        {o.index: o.index for o in space.category.objects},
        {a.id: dag.apply(a.id) for a in space.category.arrows},
    )
    return fun, op_space


def classify_dagger(space: Metric1Space, dag: Dagger) -> SymmetryClass:
    """Strongest satisfied tier: iso, uniform, continuous, or none.

    Also exercises the observation that one-sided weight decrease under the
    dagger already forces iso (apply the dagger twice).
    """
    wpres = all(space.w[dag.apply(a.id)] == space.w[a.id] for a in space.category.arrows)
    decreasing = all(space.w[dag.apply(a.id)] <= space.w[a.id] for a in space.category.arrows)
    if decreasing and not wpres:
        raise TheoremViolation("w(psi^dagger) <= w(psi) everywhere must already force equality")
    if wpres:
        return SymmetryClass.ISO
    fun, op_space = dagger_functor(space, dag)
    if uniformly_continuous(fun, space, op_space).holds:
        return SymmetryClass.UNIFORM
    # backward continuity is forward continuity of the opposite functor,
    # which runs from op_space to the opposite of op_space, i.e. to space
    if (
        forward_continuous(fun, space, op_space).holds
        and forward_continuous(opposite_functor(fun), op_space, space).holds
    ):
        return SymmetryClass.CONTINUOUS
    return SymmetryClass.NONE


def enumerate_daggers(space: Metric1Space, guard: int | Budget | None = None) -> list[Dagger]:
    """All valid daggers, in deterministic order.

    A dagger is an identity-on-objects functor C -> C^op whose arrow map is
    an involution.  The variables are the arrows block by block, hom(x, y)
    then hom(y, x) for x <= y.  An identity maps to itself.  An arrow that
    an earlier arrow took as its image maps back to it; any other arrow
    takes a non-identity arrow with swapped endpoints that is not yet set
    and not yet taken (itself included).  Contravariance is checked once per
    composable pair, when the last of its arrows is set, and every dagger
    found is re-checked with `validate_dagger`.  Raises SizeGuardError past
    the work budget `guard` (`errors.DEFAULT_BUDGET` when None).
    """
    cat = space.category
    n = len(cat.objects)
    order = [
        a
        for x in range(n)
        for y in range(x, n)
        for a in (cat.hom(x, y) + cat.hom(y, x) if x != y else cat.hom(x, x))
    ]
    pos = {a: i for i, a in enumerate(order)}
    identities = set(cat.identity.values())

    def domain(a: int):
        if a in identities:
            return lambda values: (a,)
        i, arrow = pos[a], cat.arrows[a]
        partners = cat.hom(arrow.cod, arrow.dom)
        earlier = [(b, pos[b]) for b in partners if pos[b] < i]
        taking = [pos[b] for b in cat.hom(arrow.dom, arrow.cod) if pos[b] < i]
        later = [c for c in partners if pos[c] >= i and c not in identities]

        def candidates(values):
            for b, j in earlier:
                if values[j] == a:
                    return (b,)
            taken = {values[j] for j in taking}
            return [c for c in later if c not in taken]

        return candidates

    table = cat.composition
    checks = []
    for f, g in cat.composable_pairs():
        f, g, h = pos[f], pos[g], pos[table[(f, g)]]
        # (g after f)^dagger == f^dagger after g^dagger
        checks.append(((f, g, h), lambda v, f=f, g=g, h=h: table[(v[g], v[f])] == v[h]))

    found = []
    for values in backtrack([domain(a) for a in order], checks, guard, "dagger search"):
        dag = Dagger(tuple(values[pos[a]] for a in range(len(cat.arrows))))
        validate_dagger(space, dag).require_ok("enumerated dagger")
        found.append(dag)
    return found


def symmetry_hierarchy(space: Metric1Space, guard: int | Budget | None = None) -> SymmetryClass:
    """Best symmetry tier of the space itself.

    Groupoids win outright (their canonical dagger is iso), with no dagger
    search; otherwise the best class over all daggers, or none when no
    dagger exists.  Whenever the tier reaches iso, the induced point
    distances must come out symmetric; that implication is re-checked here
    because downstream code relies on it.
    """
    if is_groupoid(space.category) is not None:
        return _groupoidal(space)
    return classified_daggers(space, guard)[0]


def classified_daggers(
    space: Metric1Space, guard: int | Budget | None = None
) -> tuple[SymmetryClass, list[tuple[Dagger, SymmetryClass]]]:
    """The tier of `symmetry_hierarchy` and every dagger with its own tier,
    in `enumerate_daggers` order, from one dagger search."""
    classified = [(dag, classify_dagger(space, dag)) for dag in enumerate_daggers(space, guard)]
    if is_groupoid(space.category) is not None:
        return _groupoidal(space), classified
    best = max((cls for _, cls in classified), default=SymmetryClass.NONE)
    if best >= SymmetryClass.ISO:
        _assert_lawvere_symmetric(space)
    return best, classified


def _groupoidal(space: Metric1Space) -> SymmetryClass:
    if classify_dagger(space, canonical_groupoid_dagger(space)) < SymmetryClass.ISO:
        raise TheoremViolation("the canonical dagger of a groupoid must be iso")
    _assert_lawvere_symmetric(space)
    return SymmetryClass.GROUPOIDAL


def _assert_lawvere_symmetric(space: Metric1Space) -> None:
    if not lawvere(space).is_symmetric():
        raise TheoremViolation(
            "a space with an iso dagger must induce symmetric point distances"
        )
