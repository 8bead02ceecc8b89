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

[X, Y] runs one transformation search per ordered pair of functors, all on
one plan (`NaturalitySquares`) built once for the source and target: a
component domain per object and one check per variable for the squares it
closes, both reading the pair's images from the search's given values, so
a pair costs no set-up.  Each functor's maps are read once, and its shape
is checked once: `enumerate_transformations` refuses a map that is short,
dangling or incompatible with its object map with PreconditionError, and
in [X, Y] the re-check of each enumerated functor is the only one.  Each
search hands back component rows, and every row is re-checked in one pass
over its components' endpoints and its squares, independent of the plan;
only a failure builds a `validate_transformation` report, which raises.
One budget bounds all of [X, Y]: the functor search, every transformation
search, and the arrows and composition entries, charged pair by pair as
[X, Y] grows, so an [X, Y] too large is refused before its last searches
run.  Every check reads the rows
(`FiniteCategory.after`) of the categories involved.  The table of [X, Y]
is filled column-wise: the arrows out of each functor are held as columns
of components, each column is mapped through one row of the target, and
each composite is found by its key (target functor, components).  The
weights are read off the target's arrows ranked by weight.  [X, Y] is
built as rows, and no step derives a tuple-keyed table.
"""
from __future__ import annotations

from .errors import Budget, PreconditionError, TheoremViolation
from .fincat import (
    Arrow,
    FiniteCategory,
    Functor,
    NatTransformation,
    Obj,
    backtrack,
    composition_checks,
    require_arrow,
    require_functor,
    validate_functor,
    validate_transformation,
)
from .record import Record
from .weight import ZERO, Weight
from .weights import Metric1Space
from .continuity import _uniformly_continuous


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
    plan = composition_checks(source, target.after, range(n, n + len(source.arrows)), len(domains))
    return [
        Functor(source, target, dict(enumerate(values[:n])), dict(enumerate(values[n:])))
        for values in backtrack(domains, plan, guard, "functor enumeration")
    ]


class NaturalitySquares:
    """The plan of the searches for transformations between functors
    source -> target, built once and shared by every pair of functors.

    Component x is variable x and ranges over hom(F x, G x); the square of
    source arrow a, G a after c_(dom a) == c_(cod a) after F a, is checked
    at the later of its two components, and a variable's squares make one
    check.  Domains and checks read the pair from the search's given
    values, the `images` of F then those of G, so a search of a pair costs
    no set-up once each functor's images are read.
    """

    __slots__ = ("source", "target", "domains", "plan")

    def __init__(self, source: FiniteCategory, target: FiniteCategory):
        self.source, self.target = source, target
        n, m = len(source.objects), len(source.arrows)
        # the given values past the n components: F x at n + x, F a at
        # 2n + a, G x at 2n + m + x and G a at 3n + m + a
        hom = target.adjacency.hom.get
        self.domains = [lambda v, f=n + x, g=2 * n + m + x: hom((v[f], v[g]), ())
                        for x in range(n)]
        squares: list[list] = [[] for _ in range(n)]
        for a in source.arrows:
            squares[max(a.dom, a.cod)].append((a.dom, a.cod, 2 * n + a.id, 3 * n + m + a.id))
        self.plan = [[_commuting(target.after, sq)] if sq else [] for sq in squares]

    def images(self, F: Functor) -> list[int]:
        """F's object images, then its arrow images, in id order: what a
        search out of or into F reads as given values.  Raises
        PreconditionError unless F runs between the plan's categories with
        maps that are total, in range and compatible."""
        if F.source != self.source or F.target != self.target:
            raise PreconditionError("functors do not share source and target")
        require_functor(F)
        return _images(F)


def _images(F: Functor) -> list[int]:
    """`NaturalitySquares.images` of a functor already checked."""
    return [*map(F.obj_map.__getitem__, range(len(F.source.objects))),
            *map(F.arr_map.__getitem__, range(len(F.source.arrows)))]


def _commuting(after: list[dict], squares: list[tuple[int, int, int, int]]):
    """One check for the squares (x, y, F a, G a) of a variable's arrows."""
    def commuting(v) -> bool:
        for x, y, f, g in squares:
            if after[v[x]][v[g]] != after[v[f]][v[y]]:
                return False
        return True

    return commuting


def enumerate_transformations(
    F: Functor, G: Functor, guard: int | Budget | None = None
) -> list[NatTransformation]:
    """All natural transformations F -> G in component-lexicographic order,
    charged to `guard` as in `enumerate_functors`.  Raises
    PreconditionError on a map that is short, out of range or incompatible
    with the object map."""
    squares = NaturalitySquares(F.source, F.target)
    rows = backtrack(squares.domains, squares.plan, guard, "transformation enumeration",
                     squares.images(F) + squares.images(G))
    return [NatTransformation(F, G, dict(enumerate(row))) for row in rows]


def nat_weight(t: NatTransformation, target_space: Metric1Space) -> Weight:
    """Sup of the component weights; attained as a max on finite data, and
    0 for the empty-source sup.  Raises PreconditionError unless both
    functors pass the shape check and every component is an arrow id of
    the target space."""
    require_functor(t.F)
    require_functor(t.G)
    for c in t.components.values():
        require_arrow(target_space.category, c)
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
        # the re-check checks f's shape; the continuity test and the
        # images below read f unchecked
        validate_functor(f).require_ok("enumerated functor")
        if _uniformly_continuous(f, X, Y).holds:
            funs.append(f)
    n = len(X.category.objects)
    squares = NaturalitySquares(X.category, Y.category)
    x_arrows, y_arrows, y_after = X.category.arrows, Y.category.arrows, Y.category.after
    x_squares = [(a.dom, a.cod, a.id) for a in x_arrows]
    y_doms, y_cods = [a.dom for a in y_arrows], [a.cod for a in y_arrows]
    # per functor, the images of the objects then of the arrows, in id order
    images = list(map(_images, funs))
    domains, plan = squares.domains, squares.plan
    transformations: list[NatTransformation] = []
    rows: list[tuple[int, ...]] = []  # a transformation's component ids in object order
    arrow_meta: list[tuple[int, int]] = []  # (source functor index, target functor index)
    into, out = [0] * len(funs), [0] * len(funs)  # arrows into and out of each functor
    for i, F in enumerate(funs):
        f_image = images[i]
        f_objs = f_image[:n]
        f_rows = list(map(y_after.__getitem__, f_image[n:]))  # the rows of the F a
        for j, G in enumerate(funs):
            found = backtrack(domains, plan, budget, "transformation enumeration", f_image + images[j])
            if not found:
                continue
            g_objs, g_arrs = images[j][:n], images[j][n:]
            for row in found:
                # the checks of validate_transformation, run on the row apart
                # from the plan: each component c_x runs F x -> G x, and each
                # square commutes, G a after c_(dom a) == c_(cod a) after F a;
                # only a failure builds the report, which raises
                t = NatTransformation(F, G, dict(enumerate(row)))
                natural = (list(map(y_doms.__getitem__, row)) == f_objs
                           and list(map(y_cods.__getitem__, row)) == g_objs)
                if natural:
                    for x, y, a in x_squares:
                        if y_after[row[x]][g_arrs[a]] != f_rows[a][row[y]]:
                            natural = False
                            break
                if not natural:
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
    identity = {i: keys[i][(i, *map(y_identity.__getitem__, image[:n]))]
                for i, image in enumerate(images)}
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
