"""Functor and natural-transformation enumeration, and the mapping space.

Both enumerations run on `fincat.backtrack`, in lexicographic order, and
charge their search nodes to a work budget (`errors.Budget`).  A functor's
variables are the objects, then the arrows; identities are forced, and each
composable pair is checked once, when its last arrow is set.  A
transformation's variables are its components; each naturality square is
checked once both are set.  The mapping space [X, Y] collects the uniformly
continuous functors (on finite spaces the forward, backward and uniform
notions agree), all natural transformations between them, their pointwise
composites and the sup-of-component weights.

[X, Y] runs one transformation search per ordered pair of functors, but
the parts of those searches are built once (`NaturalitySquares`): each
component domain per object and pair of images (F x, G x), each square
check per source arrow and pair of images (F a, G a).  Every found
transformation is then re-checked in one pass over its components'
endpoints and its squares, independent of the shared checks; only a
failure builds a `validate_transformation` report, which raises.  One
budget bounds all of [X, Y]: the functor search, every transformation
search, and the arrows and composition entries, charged pair by pair as
[X, Y] grows, so an [X, Y] too large is refused before its last searches
run.  Every check reads the rows (`FiniteCategory.after`) of the categories
involved.  The table of [X, Y] is filled column-wise: the arrows out of
each functor are held as columns of components, each column is mapped
through one row of the target, and each composite is found by its key
(target functor, components).  The weights are read off the target's
arrows ranked by weight.  [X, Y] is built as rows, and no step derives a
tuple-keyed table.
"""
from __future__ import annotations

from operator import getitem

from .errors import Budget, TheoremViolation
from .fincat import (
    Arrow,
    FiniteCategory,
    Functor,
    NatTransformation,
    Obj,
    backtrack,
    composition_checks,
    validate_functor,
    validate_transformation,
)
from .record import Record
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
    checks = composition_checks(source, target.after, range(n, n + len(source.arrows)))
    return [
        Functor(source, target, dict(enumerate(values[:n])), dict(enumerate(values[n:])))
        for values in backtrack(domains, checks, guard, "functor enumeration")
    ]


class NaturalitySquares:
    """The parts of the searches for transformations between functors
    source -> target, each built once and shared by every pair of functors:
    the domain of a component, per object x and pair of images (F x, G x),
    and the naturality check of a square, per source arrow a and pair of
    images (F a, G a)."""

    __slots__ = ("source", "target", "_objects", "_arrows", "_reads", "_domains", "_checks",
                 "_functors")

    def __init__(self, source: FiniteCategory, target: FiniteCategory):
        self.source, self.target = source, target
        self._objects = range(len(source.objects))
        self._arrows = tuple(a.id for a in source.arrows)
        self._reads = tuple((a.dom, a.cod) for a in source.arrows)
        self._domains: list[dict] = [{} for _ in self._objects]  # x -> F x -> G x -> domain
        self._checks: list[dict] = [{} for _ in self._arrows]  # a -> F a -> G a -> check
        self._functors: dict = {}  # id(F) -> (F, its images, its parts keyed by G's images)

    def _functor(self, F: Functor):
        """The images of F's objects and arrows, and the domains and checks
        of the searches out of F, keyed by the images of the other functor.
        The entry holds F, so its id is not reused while it is cached."""
        entry = self._functors.get(id(F))
        if entry is None or entry[0] is not F:
            objs = tuple(map(F.obj_map.__getitem__, self._objects))
            arrs = tuple(map(F.arr_map.__getitem__, self._arrows))
            entry = self._functors[id(F)] = (
                F, objs, arrs,
                [by_fx.setdefault(fx, {}) for by_fx, fx in zip(self._domains, objs)],
                [by_fa.setdefault(fa, {}) for by_fa, fa in zip(self._checks, arrs)],
            )
        return entry

    def search(self, F: Functor, G: Functor):
        """Variables and checks of the search for transformations F => G: one
        component per object, and one naturality square per arrow, checked
        once both of its components are set."""
        if F.source is not self.source or F.target is not self.target:
            return NaturalitySquares(F.source, F.target).search(F, G)
        _, f_objs, f_arrs, by_gx, by_ga = self._functor(F)
        _, g_objs, g_arrs, _, _ = self._functor(G)
        domains = list(map(dict.get, by_gx, g_objs))
        checks = list(map(dict.get, by_ga, g_arrs))
        if None in domains:
            hom = self.target.hom
            for x, (fx, gx) in enumerate(zip(f_objs, g_objs)):
                if domains[x] is None:
                    domains[x] = by_gx[x][gx] = lambda values, h=hom(fx, gx): h
        if None in checks:
            after = self.target.after
            for i, (fa, ga) in enumerate(zip(f_arrs, g_arrs)):
                if checks[i] is None:
                    reads = x, y = self._reads[i]
                    checks[i] = by_ga[i][ga] = (
                        reads, lambda v, x=x, y=y, f=fa, g=ga: after[v[x]][g] == after[f][v[y]]
                    )
        return domains, checks


def enumerate_transformations(
    F: Functor, G: Functor, guard: int | Budget | None = None,
    squares: NaturalitySquares | None = None,
) -> list[NatTransformation]:
    """All natural transformations F -> G in component-lexicographic order,
    charged to `guard` as in `enumerate_functors`.  `squares` shares the
    parts of the search with the other searches between functors of the
    same source and target."""
    search = (squares or NaturalitySquares(F.source, F.target)).search(F, G)
    return [
        NatTransformation(F, G, dict(enumerate(components)))
        for components in backtrack(*search, guard, "transformation enumeration")
    ]


def nat_weight(t: NatTransformation, target_space: Metric1Space) -> Weight:
    """Sup of the component weights; attained as a max on finite data, and
    0 for the empty-source sup."""
    return max(
        (target_space.w[c] for c in t.components.values()),
        default=ZERO,
    )


class MappingSpace(Record):
    """[X, Y]: continuous functors as objects, all natural transformations
    between them as arrows, sup weights."""

    __slots__ = _fields = ("space", "functors", "transformations", "source", "target")

    def __init__(self, space: Metric1Space, functors: list[Functor],
                 transformations: list[NatTransformation], source: Metric1Space,
                 target: Metric1Space):
        self.space = space
        self.functors = functors
        self.transformations = transformations
        self.source = source
        self.target = target


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
    xs = range(len(X.category.objects))
    squares = NaturalitySquares(X.category, Y.category)
    x_arrows, y_arrows, y_after = X.category.arrows, Y.category.arrows, Y.category.after
    x_ids, x_doms, x_cods = ([a.id for a in x_arrows], [a.dom for a in x_arrows],
                             [a.cod for a in x_arrows])
    y_doms, y_cods = [a.dom for a in y_arrows], [a.cod for a in y_arrows]
    # per functor, the images of the objects and of the arrows, in id order
    images = [(list(map(f.obj_map.__getitem__, xs)), list(map(f.arr_map.__getitem__, x_ids)))
              for f in funs]
    transformations: list[NatTransformation] = []
    rows: list[tuple[int, ...]] = []  # a transformation's component ids in object order
    arrow_meta: list[tuple[int, int]] = []  # (source functor index, target functor index)
    into, out = [0] * len(funs), [0] * len(funs)  # arrows into and out of each functor
    for i, F in enumerate(funs):
        f_objs, f_arrs = images[i]
        f_rows = list(map(y_after.__getitem__, f_arrs))  # the rows of the F a
        for j, G in enumerate(funs):
            found = enumerate_transformations(F, G, budget, squares)
            if not found:
                continue
            g_objs, g_arrs = images[j]
            for t in found:
                # the checks of validate_transformation, run on the row: each
                # component c_x runs F x -> G x, and each square commutes,
                # G a after c_(dom a) == c_(cod a) after F a; only a failure
                # builds the report, which raises with its message
                row = tuple(map(t.components.get, xs))
                if not (t.F is F and t.G is G and None not in row
                        and list(map(y_doms.__getitem__, row)) == f_objs
                        and list(map(y_cods.__getitem__, row)) == g_objs
                        and list(map(getitem, map(y_after.__getitem__, map(row.__getitem__, x_doms)),
                                     g_arrs))
                        == list(map(getitem, f_rows, map(row.__getitem__, x_cods)))):
                    validate_transformation(t).require_ok("enumerated transformation")
                transformations.append(t)
                rows.append(row)
                arrow_meta.append((i, j))
            # one composition entry per arrow into and arrow out of each
            # functor: the k new arrows i -> j add k * out[j] + k * into[i]
            # entries, and k * k more when i == j
            k = len(found)
            budget.spend(k, "mapping space [X, Y]", "arrows")
            budget.spend(k * (out[j] + into[i] + (k if i == j else 0)),
                         "mapping space [X, Y]", "composition entries")
            into[j] += k
            out[i] += k

    # Each transformation out of functor i is keyed by (its target functor,
    # *its components); a composite and an identity are found by their keys.
    keys: list[dict] = [{} for _ in funs]
    for k, ((i, j), row) in enumerate(zip(arrow_meta, rows)):
        keys[i][(j, *row)] = k
    y_identity = Y.category.identity
    identity = {i: keys[i][(i, *map(y_identity.__getitem__, f_objs))]
                for i, (f_objs, _) in enumerate(images)}
    objs = tuple(Obj(i, f"F{i}") for i in range(len(funs)))
    arrs = tuple(Arrow(k, i, j) for k, (i, j) in enumerate(arrow_meta))
    cat = FiniteCategory(objs, arrs, identity, [], {})
    out_of, after = cat.adjacency.out, cat.after
    # The arrows out of functor j (its identity among them) as columns:
    # their targets, and per object x their components at x.  Components
    # compose pointwise through Y's rows: for an arrow a into j, column x
    # maps through the row Y.after[a_x] to the components at x of a then
    # each arrow out of j.
    columns = {j: ([arrow_meta[b][1] for b in bs], list(zip(*map(rows.__getitem__, bs))))
               for j, bs in out_of.items()}
    for a, ((i, j), row_a) in enumerate(zip(arrow_meta, rows)):
        targets, cols = columns[j]
        composites = zip(targets, *[map(y_after[c].__getitem__, col) for c, col in zip(row_a, cols)])
        ids = list(map(keys[i].get, composites))
        if None in ids:
            b = out_of[j][ids.index(None)]
            raise TheoremViolation(f"vertical composite of transformations {a} and {b} is not natural")
        after.append(dict(zip(out_of[j], ids)))
    # sup of the component weights: the component of greatest rank among Y's
    # arrows sorted by weight, and 0 for the empty-source sup
    y_w = Y.w
    by_weight = sorted(range(len(y_w)), key=y_w.__getitem__)
    rank = [0] * len(y_w)
    for r, c in enumerate(by_weight):
        rank[c] = r
    weights = tuple(y_w[by_weight[max(map(rank.__getitem__, row))]] if row else ZERO for row in rows)
    return MappingSpace(Metric1Space(cat, weights), funs, transformations, X, Y)
