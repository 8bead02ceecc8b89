"""Functor and natural-transformation enumeration, and the mapping space.

Both enumerations run on `fincat.backtrack`, in lexicographic order, and
charge their search nodes to a work budget (`errors.Budget`).  A functor's
variables are the objects, then the arrows; identities are forced, and each
composable pair is checked once, when its last arrow is set.  A
transformation's variables are its components; each naturality square is
checked once both are set.  The mapping space [X, Y] collects the uniformly
continuous functors (on finite spaces the forward, backward and uniform
notions agree), all natural transformations between them, their pointwise
composites and the sup-of-component weights.  One budget bounds all of
[X, Y]: the functor search, every transformation search, and the arrows
and composition entries, charged before the table is filled.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import Budget, TheoremViolation
from .fincat import (
    Arrow,
    FiniteCategory,
    Functor,
    NatTransformation,
    Obj,
    backtrack,
    identity_transformation,
    validate_functor,
    validate_transformation,
)
from .weight import ZERO, Weight
from .weights import Metric1Space
from .continuity import uniformly_continuous


def enumerate_functors(
    source: FiniteCategory, target: FiniteCategory, guard: int | Budget | None = None
) -> list[Functor]:
    """All functors source -> target, duplicate-free, ordered
    lexicographically by (object table, arrow table).

    The variables are the objects, then the arrows in id order; an identity
    can only map to the identity of its image object.  Each composable pair
    is checked once, when the last of its two factors and its composite is
    set.  `guard` is a work budget or its limit (`errors.DEFAULT_BUDGET`
    when None); past it the search raises SizeGuardError.
    """
    n = len(source.objects)
    objects = range(len(target.objects))
    forced = {source.identity[x]: x for x in range(n)}
    domains = [lambda values: objects] * n
    for a in source.arrows:
        if a.id in forced:
            domains.append(lambda values, x=forced[a.id]: (target.identity[values[x]],))
        else:
            domains.append(lambda values, x=a.dom, y=a.cod: target.hom(values[x], values[y]))
    table = target.composition
    checks = []
    for f, g in source.composable_pairs():
        f, g, h = n + f, n + g, n + source.compose(f, g)
        checks.append(((f, g, h), lambda v, f=f, g=g, h=h: table[(v[f], v[g])] == v[h]))
    return [
        Functor(source, target, dict(enumerate(values[:n])), dict(enumerate(values[n:])))
        for values in backtrack(domains, checks, guard, "functor enumeration")
    ]


def naturality_search(F: Functor, G: Functor):
    """Variables and checks of the search for transformations F => G: one
    component per object, and one naturality square per arrow, checked once
    both of its components are set."""
    dst = F.target
    domains = [
        lambda values, fx=F.obj_map[x], gx=G.obj_map[x]: dst.hom(fx, gx)
        for x in range(len(F.source.objects))
    ]
    table = dst.composition
    checks = [
        ((a.dom, a.cod),
         lambda v, x=a.dom, y=a.cod, fa=F.arr_map[a.id], ga=G.arr_map[a.id]:
             table[(v[x], ga)] == table[(fa, v[y])])
        for a in F.source.arrows
    ]
    return domains, checks


def enumerate_transformations(
    F: Functor, G: Functor, guard: int | Budget | None = None
) -> list[NatTransformation]:
    """All natural transformations F -> G in component-lexicographic order,
    charged to `guard` as in `enumerate_functors`."""
    return [
        NatTransformation(F, G, dict(enumerate(components)))
        for components in backtrack(*naturality_search(F, G), guard, "transformation enumeration")
    ]


def nat_weight(t: NatTransformation, target_space: Metric1Space) -> Weight:
    """Sup of the component weights; attained as a max on finite data, and
    0 for the empty-source sup."""
    return max(
        (target_space.w[c] for c in t.components.values()),
        default=ZERO,
    )


@dataclass
class MappingSpace:
    """[X, Y]: continuous functors as objects, all natural transformations
    between them as arrows, sup weights."""

    space: Metric1Space
    functors: list[Functor]
    transformations: list[NatTransformation]
    source: Metric1Space
    target: Metric1Space


def mapping_space(
    X: Metric1Space, Y: Metric1Space, guard: int | Budget | None = None
) -> MappingSpace:
    """Construct [X, Y] as a metric 1-space.

    Finite spaces are object, forward, and backward compact, so the single
    uniform-continuity filter is the right notion of continuous here.  An
    enumerated functor or transformation that fails validation raises
    TheoremViolation.  That [X, Y] satisfies the metric 1-space axioms is a
    theorem, re-checked by the validation suite rather than assumed.
    One budget, `guard`, bounds its searches, arrows and composition entries.
    """
    budget = Budget.of(guard)
    funs = []
    for f in enumerate_functors(X.category, Y.category, budget):
        validate_functor(f).require_ok("enumerated functor")
        if uniformly_continuous(f, X, Y).holds:
            funs.append(f)
    transformations: list[NatTransformation] = []
    arrow_meta: list[tuple[int, int]] = []  # (source functor index, target functor index)
    for i, F in enumerate(funs):
        for j, G in enumerate(funs):
            for t in enumerate_transformations(F, G, budget):
                validate_transformation(t).require_ok("enumerated transformation")
                transformations.append(t)
                arrow_meta.append((i, j))

    # one composition entry per arrow into and arrow out of each functor
    into, out = Counter(j for _, j in arrow_meta), Counter(i for i, _ in arrow_meta)
    budget.spend(len(arrow_meta), "mapping space [X, Y]", "arrows")
    budget.spend(sum(into[j] * out[j] for j in into), "mapping space [X, Y]", "composition entries")
    # a transformation's row: its component ids in object order
    n = len(X.category.objects)
    rows = [tuple(t.components[x] for x in range(n)) for t in transformations]
    key_to_id = {(*arrow_meta[k], row): k for k, row in enumerate(rows)}

    objs = tuple(Obj(i, f"F{i}") for i in range(len(funs)))
    arrs = tuple(
        Arrow(k, arrow_meta[k][0], arrow_meta[k][1])
        for k in range(len(transformations))
    )
    identity = {}
    for i, F in enumerate(funs):
        ident = identity_transformation(F).components
        identity[i] = key_to_id[(i, i, tuple(ident[x] for x in range(n)))]
    composition = {}
    cat = FiniteCategory(objs, arrs, identity, composition)
    # The table is filled in place; the index depends on the arrows alone.
    # Components compose pointwise, one table lookup per object; every key
    # belongs to an enumerated, validated transformation, so a found
    # composite is natural.
    lookup = Y.category.composition.__getitem__
    for a, row_a in enumerate(rows):
        i, j = arrow_meta[a]
        for b in cat.arrows_from(j):
            key = (i, arrow_meta[b][1], tuple(map(lookup, zip(row_a, rows[b]))))
            if key not in key_to_id:
                raise TheoremViolation(
                    f"vertical composite of transformations {a} and {b} is not natural"
                )
            composition[(a, b)] = key_to_id[key]
    weights = tuple(nat_weight(t, Y) for t in transformations)
    return MappingSpace(Metric1Space(cat, weights), funs, transformations, X, Y)
