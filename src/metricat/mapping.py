"""Functor and natural-transformation enumeration, and the mapping space.

Enumeration is plain backtracking over tables in lexicographic order with a
step budget; identities are forced, composition constraints prune as soon
as both factors of a pair are assigned.  The mapping space [X, Y] collects
the uniformly continuous functors (on finite spaces the forward, backward
and uniform notions agree), all natural transformations between them,
vertical composition, and the sup-of-component weights.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import SizeGuardError
from .fincat import (
    Arrow,
    FiniteCategory,
    Functor,
    NatTransformation,
    Obj,
    identity_transformation,
    validate_functor,
    validate_transformation,
    vertical_compose,
)
from .weight import ZERO, Weight
from .weights import Metric1Space
from .continuity import uniformly_continuous

DEFAULT_GUARD = 500_000


def enumerate_functors(
    source: FiniteCategory, target: FiniteCategory, guard: int = DEFAULT_GUARD
) -> list[Functor]:
    """All functors source -> target, duplicate-free, ordered
    lexicographically by (object table, arrow table).

    Raises SizeGuardError when the backtracking search would visit more
    than `guard` nodes.
    """
    n_obj = len(source.objects)
    out: list[Functor] = []
    steps = 0

    def bump():
        nonlocal steps
        steps += 1
        if steps > guard:
            raise SizeGuardError(
                f"functor enumeration exceeded its budget of {guard} search nodes"
            )

    target_objects = range(len(target.objects))

    def assign_arrows(obj_map: dict[int, int]):
        arr_ids = [a.id for a in source.arrows]
        arr_map: dict[int, int] = {}
        # identities are forced
        forced = {source.identity[x]: target.identity[obj_map[x]] for x in range(n_obj)}
        free = [a for a in arr_ids if a not in forced]
        arr_map.update(forced)

        def candidates(aid: int) -> tuple[int, ...]:
            a = source.arrows[aid]
            return target.hom(obj_map[a.dom], obj_map[a.cod])

        def consistent(aid: int) -> bool:
            # check every composable pair fully assigned so far
            for f, g in source.composable_pairs():
                if f in arr_map and g in arr_map:
                    h = source.compose(f, g)
                    if h in arr_map and target.compose(arr_map[f], arr_map[g]) != arr_map[h]:
                        return False
            return True

        def rec(i: int):
            bump()
            if i == len(free):
                out.append(Functor(source, target, dict(obj_map), dict(arr_map)))
                return
            aid = free[i]
            for img in candidates(aid):
                arr_map[aid] = img
                if consistent(aid):
                    rec(i + 1)
                del arr_map[aid]

        rec(0)

    def assign_objects(i: int, obj_map: dict[int, int]):
        bump()
        if i == n_obj:
            assign_arrows(obj_map)
            return
        for y in target_objects:
            obj_map[i] = y
            assign_objects(i + 1, obj_map)
            del obj_map[i]

    assign_objects(0, {})
    return out


def enumerate_transformations(
    F: Functor, G: Functor, guard: int = DEFAULT_GUARD
) -> list[NatTransformation]:
    """All natural transformations F -> G in component-lexicographic order."""
    src, dst = F.source, F.target
    n_obj = len(src.objects)
    out: list[NatTransformation] = []
    steps = 0
    arrows = list(src.arrows)

    def rec(x: int, comps: dict[int, int]):
        nonlocal steps
        steps += 1
        if steps > guard:
            raise SizeGuardError(
                f"transformation enumeration exceeded its budget of {guard} search nodes"
            )
        if x == n_obj:
            out.append(NatTransformation(F, G, dict(comps)))
            return
        for c in dst.hom(F.obj_map[x], G.obj_map[x]):
            comps[x] = c
            ok = True
            for a in arrows:
                if a.dom in comps and a.cod in comps:
                    left = dst.compose(comps[a.dom], G.arr_map[a.id])
                    right = dst.compose(F.arr_map[a.id], comps[a.cod])
                    if left != right:
                        ok = False
                        break
            if ok:
                rec(x + 1, comps)
            del comps[x]

    rec(0, {})
    return out


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
    X: Metric1Space, Y: Metric1Space, guard: int = DEFAULT_GUARD
) -> MappingSpace:
    """Construct [X, Y] as a metric 1-space.

    Finite spaces are object, forward, and backward compact, so the single
    uniform-continuity filter is the right notion of continuous here.  That
    the result satisfies the metric 1-space axioms is a theorem, re-checked
    by the validation suite rather than assumed.
    """
    funs = [
        f
        for f in enumerate_functors(X.category, Y.category, guard)
        if validate_functor(f).ok and uniformly_continuous(f, X, Y).holds
    ]
    fun_index = {f.key(): i for i, f in enumerate(funs)}

    transformations: list[NatTransformation] = []
    arrow_meta: list[tuple[int, int]] = []  # (source functor index, target functor index)
    for i, F in enumerate(funs):
        for j, G in enumerate(funs):
            for t in enumerate_transformations(F, G, guard):
                if not validate_transformation(t).ok:
                    continue
                transformations.append(t)
                arrow_meta.append((i, j))

    key_to_id = {
        (arrow_meta[k][0], arrow_meta[k][1], tuple(sorted(t.components.items()))): k
        for k, t in enumerate(transformations)
    }

    objs = tuple(Obj(i, f"F{i}") for i in range(len(funs)))
    arrs = tuple(
        Arrow(k, arrow_meta[k][0], arrow_meta[k][1])
        for k in range(len(transformations))
    )
    identity = {}
    for i, F in enumerate(funs):
        ident = identity_transformation(F)
        identity[i] = key_to_id[(i, i, tuple(sorted(ident.components.items())))]
    composition = {}
    cat = FiniteCategory(objs, arrs, identity, composition)
    # the table is filled in place; the index depends on the arrows alone
    for a, ta in enumerate(transformations):
        for b in cat.arrows_from(arrow_meta[a][1]):
            comp = vertical_compose(ta, transformations[b])
            cid = key_to_id[
                (arrow_meta[a][0], arrow_meta[b][1], tuple(sorted(comp.components.items())))
            ]
            composition[(a, b)] = cid
    weights = tuple(nat_weight(t, Y) for t in transformations)
    return MappingSpace(Metric1Space(cat, weights), funs, transformations, X, Y)
