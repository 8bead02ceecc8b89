"""Dagger structures and the four-level symmetry hierarchy.

A dagger is an identity-on-objects functor C -> C^op whose arrow map is an
involution, and it is validated and searched as one: `validate_functor`,
then the involution law; `backtrack` on the plan of `composition_checks`
into C^op.  Every step reads the opposite C keeps (`FiniteCategory.opposite`),
built once.
Compatibility with the weights comes in decreasing strength: weight-
preserving (iso), uniformly continuous, continuous; a space whose category
is a groupoid sits above all of these, its inverse map being a canonical
iso dagger.
"""
from __future__ import annotations

from enum import IntEnum
from typing import NamedTuple

from .errors import Budget, PreconditionError, TheoremViolation
from .continuity import _forward_at_arrow, _uniformly_continuous
from .fincat import (
    Functor, ValidationReport, backtrack, composition_checks, is_groupoid, opposite,
    opposite_functor, require_functor, validate_functor,
)
from .weights import Metric1Space, lawvere, opposite_space


class SymmetryClass(IntEnum):
    NONE = 0
    CONTINUOUS = 1
    UNIFORM = 2
    ISO = 3
    GROUPOIDAL = 4

    def __str__(self) -> str:
        return self.name.lower()


class Dagger(NamedTuple):
    """An arrow involution on one category; validate before trusting."""

    mapping: tuple[int, ...]  # arrow id -> arrow id

    def apply(self, aid: int) -> int:
        return self.mapping[aid]


_UNCOVERED = "dagger table does not cover the arrows"


def _covers(space: Metric1Space, dag: Dagger) -> bool:
    """The table has one entry per arrow, each the id of an arrow."""
    m = len(space.category.arrows)
    return len(dag.mapping) == m and all(0 <= v < m for v in dag.mapping)


def validate_dagger(space: Metric1Space, dag: Dagger) -> ValidationReport:
    """The dagger laws, exhaustively: the table covers the arrows, the
    identity-on-objects functor into the opposite category it defines
    (`dagger_functor`) passes `validate_functor`, and its arrow map is an
    involution."""
    if not _covers(space, dag):
        return ValidationReport("dagger", [_UNCOVERED])
    report = validate_functor(dagger_functor(space, dag)[0])
    report.subject = "dagger"
    mapping = dag.mapping
    report.violations += [f"involution fails at arrow {a}" for a, b in enumerate(mapping)
                          if mapping[b] != a]
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
    dagger already forces iso (apply the dagger twice).  Raises
    PreconditionError on a table that does not cover the arrows, and on
    one whose functor has the wrong shape once the weights do not decide.
    """
    if not _covers(space, dag):
        raise PreconditionError(_UNCOVERED)
    w, arrows = space.w, range(len(dag.mapping))
    wpres = all(w[dag.mapping[a]] == w[a] for a in arrows)
    decreasing = all(w[dag.mapping[a]] <= w[a] for a in arrows)
    if decreasing and not wpres:
        raise TheoremViolation("w(psi^dagger) <= w(psi) everywhere must already force equality")
    if wpres:
        return SymmetryClass.ISO
    fun, op_space = dagger_functor(space, dag)
    require_functor(fun)  # and so of its opposite, which has the same maps
    if _uniformly_continuous(fun, space, op_space).holds:
        return SymmetryClass.UNIFORM
    # backward continuity is forward continuity of the opposite functor,
    # which runs from op_space to the opposite of op_space, i.e. to space
    op_fun = opposite_functor(fun)
    if all(_forward_at_arrow(fun, space, op_space, a).holds for a in arrows) and all(
        _forward_at_arrow(op_fun, op_space, space, a).holds for a in arrows
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
    and not yet taken (itself included).  Composition into the opposite is
    checked once per composable pair, when the last of its arrows is set,
    and every dagger found is re-checked with `validate_dagger`.  Raises SizeGuardError past
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

    # (g after f)^dagger == f^dagger after g^dagger: composition in the opposite
    plan = composition_checks(cat, opposite(cat).after, pos, len(order))
    found = []
    for values in backtrack([domain(a) for a in order], plan, guard, "dagger search"):
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
