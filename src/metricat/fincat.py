"""Finite categories, functors, and natural transformations as explicit tables.

A category is stored as dense object/arrow lists, an identity assignment and
a composition table on composable pairs.  The stored order is diagrammatic:
the composite of f then g is the arrow "g after f", rendered as g∘f.

The table has one form, its rows.  The row index `after` maps each arrow f
to a row holding each arrow g out of cod f, in arrow order, with g∘f, or
None where the table has no entry.  The entries no row can hold (on pairs
that do not compose, or naming an id outside the arrows) sit in a side
record, in table order.  `FiniteCategory.from_triples` reads a table given
as (f, g, h) triples into both in one pass; `jsonio.category_from_json` and
`build_category` build through it, while `indiscrete`, `opposite` and the
mapping-space and geometry constructors build their rows directly.  Every
reader in the library reads the rows; the tuple-keyed ``composition[(f, g)]
= g∘f`` is a read-only view derived on first read, for readers outside it.
Beside the rows sits one adjacency index over the arrow tuple: the arrows
out of and into each object and the hom-sets.  It depends on the arrows
alone, so it never goes stale.  Every pair scan walks it: composable pairs
are found as (f, each arrow out of cod f), never all m² pairs.  The
structural errors (dangling ids, non-dense indices) are cached on first
use too, so the validators of one category share one scan of the table.
All validators stay exhaustive and list their findings in lexicographic
arrow-id order.

Associativity is checked by Light's test (Clifford & Preston, The Algebraic
Theory of Semigroups, vol. 1, 1961, §1.2): only the triples whose middle
lies in a generating set.  Writing f;g for g∘f, call g a good middle when
(f;g);h = f;(g;h) for all composable f and h.  Identities are good once
neutrality holds, and good middles are closed under composition: for good
a and b, four uses of their goodness give (f;(a;b));h = ((f;a);b);h =
(f;a);(b;h) = f;(a;(b;h)) = f;((a;b);h).  So if every generator is good,
every arrow is.  When some generator is not, or neutrality already failed,
the full scan over composable triples runs and lists every failure.

`backtrack` is the one search over functor-shaped tables (functors,
transformations, natural contractions, daggers): one variable at a time,
each check run once, when the last variable it reads is set, and its search
nodes charged to the caller's `errors.Budget`.  It takes a plan, the checks
already grouped by the variable they run at, built once per source:
`composition_checks` builds the plan of a functor's arrow table, and of a
dagger's, which is a functor into the opposite; `mapping.NaturalitySquares`
builds one for every search between functors of one source and target,
each search handing over its pair of functors as given values.  A category
builds its opposite once and keeps it, and the opposite's opposite is the
category itself.
"""
from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from types import MappingProxyType

from .errors import Budget, PreconditionError, TheoremViolation
from .record import FrozenRecord, Record


class Obj(FrozenRecord):
    """An object: a dense index within its category plus an optional label."""

    __slots__ = _fields = ("index", "label")

    def __init__(self, index: int, label: str | None = None):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "label", label)

    def __str__(self) -> str:
        return self.label if self.label is not None else f"o{self.index}"


class Arrow(FrozenRecord):
    """An arrow with a dense id and object indices for its endpoints."""

    __slots__ = _fields = ("id", "dom", "cod", "label")

    def __init__(self, id: int, dom: int, cod: int, label: str | None = None):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "label", label)

    def __str__(self) -> str:
        name = self.label if self.label is not None else f"a{self.id}"
        return f"{name}:{self.dom}->{self.cod}"


class ValidationReport(Record):
    """Outcome of an exhaustive axiom check.

    ``fatal`` lists structural malformations (dangling ids and the like)
    that made the axiom checks meaningless; ``violations`` lists every
    individual axiom failure found.  Empty report == the axioms hold.
    """

    __slots__ = _fields = ("subject", "fatal", "violations")

    def __init__(self, subject: str, fatal: list[str] | None = None,
                 violations: list[str] | None = None):
        self.subject = subject
        self.fatal = [] if fatal is None else fatal
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.fatal and not self.violations

    def all_messages(self) -> list[str]:
        return list(self.fatal) + list(self.violations)

    def require_ok(self, what: str) -> None:
        """Raise TheoremViolation unless the report is empty: `what` names
        a result that a theorem or a search guarantees to pass."""
        if not self.ok:
            raise TheoremViolation(f"{what} failed validation: " + self.summary())

    def summary(self) -> str:
        if self.ok:
            return f"{self.subject}: ok"
        lines = [f"{self.subject}: {len(self.fatal)} fatal, {len(self.violations)} violations"]
        lines += [f"  fatal: {m}" for m in self.fatal]
        lines += [f"  {m}" for m in self.violations]
        return "\n".join(lines)


class Adjacency(FrozenRecord):
    """Arrow ids grouped by endpoint, each group in arrow order."""

    __slots__ = _fields = ("out", "into", "hom")

    def __init__(
        self,
        out: dict[int, tuple[int, ...]],  # object -> arrows with that domain
        into: dict[int, tuple[int, ...]],  # object -> arrows with that codomain
        hom: dict[tuple[int, int], tuple[int, ...]],  # (dom, cod) -> sorted arrow ids
    ):
        object.__setattr__(self, "out", out)
        object.__setattr__(self, "into", into)
        object.__setattr__(self, "hom", hom)

    @classmethod
    def of(cls, arrows: tuple[Arrow, ...]) -> "Adjacency":
        out: dict[int, list[int]] = {}
        into: dict[int, list[int]] = {}
        hom: dict[tuple[int, int], list[int]] = {}
        for a in arrows:
            out.setdefault(a.dom, []).append(a.id)
            into.setdefault(a.cod, []).append(a.id)
            hom.setdefault((a.dom, a.cod), []).append(a.id)
        return cls(
            {x: tuple(v) for x, v in out.items()},
            {y: tuple(v) for y, v in into.items()},
            {k: tuple(sorted(v)) for k, v in hom.items()},
        )


class FiniteCategory(FrozenRecord):
    """Objects, arrows, identities, and a composition table kept as rows.

    ``after[i]`` maps each arrow g out of the codomain of ``arrows[i]``, in
    arrow order, to the composite g∘f of f = ``arrows[i]``, or to None where
    the table has no entry; every id in a row is an arrow's position.  The
    side record `side` holds, in table order, the entries no row can hold:
    those on pairs that do not compose and those naming an id outside the
    arrows (all of them when the arrow ids are not their positions).

    No ``__slots__``: the ``cached_property`` indices and the opposite live
    in the instance ``__dict__``, past the frozen ``__setattr__``; equality,
    repr, copy and pickle read ``_fields`` only, so they never see them."""

    _fields = ("objects", "arrows", "identity", "after", "side")

    def __init__(
        self,
        objects: tuple[Obj, ...],
        arrows: tuple[Arrow, ...],
        identity: dict[int, int],  # object index -> identity arrow id
        after: list[dict[int, int | None]],  # after[f][g] = g∘f
        side: dict[tuple[int, int], int],  # (f, g) -> "g after f", off the rows
    ):
        self.__dict__.update(objects=objects, arrows=arrows, identity=identity,
                             after=after, side=side)

    @classmethod
    def from_triples(cls, objects, arrows, identity, triples) -> "FiniteCategory":
        """The category whose table holds h = g∘f for each (f, g, h) of
        `triples`, read in one pass into the rows and the side record.
        Raises ValueError on an id that is not a non-negative int, and on
        a pair given twice."""
        cat = cls(objects, arrows, identity, [], {})
        # the rows are filled through the category's own adjacency index
        out, rows, side = cat.adjacency.out, cat.after, cat.side
        rows += [dict.fromkeys(out.get(a.cod, ())) for a in arrows]
        # ids below m fill the rows, by position; with arrow ids that are not
        # their positions, m is 0 and the whole table goes to the side record
        m = len(arrows) if all(a.id == i for i, a in enumerate(arrows)) else 0
        for f, g, h in triples:
            if (type(f) is not int or type(g) is not int or type(h) is not int
                    or f < 0 or g < 0 or h < 0):
                raise ValueError(f"composition entry {[f, g, h]} holds a non-index id")
            if f < m and h < m:
                row = rows[f]
                if row.get(g, 0) is None and not (side and (f, g) in side):
                    row[g] = h  # a composable pair, not yet filled
                    continue
            # a repeat is in the side record already, or fills its row slot
            if (f, g) in side or (f < m and rows[f].get(g) is not None):
                raise ValueError(f"composition table names the pair {(f, g)} twice")
            side[f, g] = h
        return cat

    def compose(self, first: int, second: int) -> int:
        """Arrow id of "second after first" (second∘first).  Raises KeyError
        on a pair that does not compose or has no entry in the rows."""
        after = self.after
        h = after[first].get(second) if 0 <= first < len(after) else None
        if h is None:
            raise KeyError((first, second))
        return h

    def is_identity(self, aid: int) -> bool:
        a = self.arrows[aid]
        return a.dom == a.cod and self.identity.get(a.dom) == aid

    @cached_property
    def composition(self) -> MappingProxyType:
        """The table keyed by pairs, ``composition[(f, g)] = g∘f``: a
        read-only view derived on first read, the row entries in arrow
        order and then the side record.  The library reads the rows."""
        table = {(f, g): h for f, row in enumerate(self.after) for g, h in row.items()
                 if h is not None}
        table.update(self.side)
        return MappingProxyType(table)

    @cached_property
    def adjacency(self) -> Adjacency:
        """Built on first use."""
        return Adjacency.of(self.arrows)

    @cached_property
    def opposite(self) -> "FiniteCategory":
        """The opposite category, built on first read and kept, with this
        category kept as its own opposite: every arrow reversed, the ids
        preserved, so data indexed by id (weights, sequences) transfers
        verbatim; the rows and the side record transpose, g∘f in the row
        of f becoming f∘g in the row of g, whose keys are the arrows into
        dom g.  Like `adjacency` it is read off the tables once, so it must
        not be read before they are complete: `from_triples` and
        `mapping.mapping_space` fill ``after`` in place right after they
        construct a category, and nothing reads the opposite in between."""
        arrows = tuple(Arrow(a.id, a.cod, a.dom, a.label) for a in self.arrows)
        into = self.adjacency.into
        after = [dict.fromkeys(into.get(a.dom, ())) for a in self.arrows]
        for f, row in enumerate(self.after):
            for g, h in row.items():
                if h is not None:
                    after[g][f] = h
        side = {(g, f): h for (f, g), h in self.side.items()}
        op = FiniteCategory(self.objects, arrows, dict(self.identity), after, side)
        op.__dict__["opposite"] = self
        return op

    def hom(self, x: int, y: int) -> tuple[int, ...]:
        return self.adjacency.hom.get((x, y), ())

    def arrows_from(self, x: int) -> tuple[int, ...]:
        return self.adjacency.out.get(x, ())

    def arrows_to(self, y: int) -> tuple[int, ...]:
        return self.adjacency.into.get(y, ())

    def composable_pairs(self):
        """All (f, g) with cod f == dom g, in lexicographic id order."""
        out = self.adjacency.out
        for f in self.arrows:
            fid = f.id
            for g in out.get(f.cod, ()):
                yield fid, g

    def structural_errors(self) -> list[str]:
        """Dangling ids and non-dense indices, in table order; a fresh list
        on every call, so a caller may extend it."""
        return list(self._structural_errors)

    @cached_property
    def _structural_errors(self) -> tuple[str, ...]:
        """Scanned once, like `adjacency`: the tables of a frozen category
        never change."""
        errs: list[str] = []
        n, m = len(self.objects), len(self.arrows)
        for i, o in enumerate(self.objects):
            if o.index != i:
                errs.append(f"object at position {i} has index {o.index}; indices must be dense")
        for i, a in enumerate(self.arrows):
            if a.id != i:
                errs.append(f"arrow at position {i} has id {a.id}; ids must be dense")
            if not (0 <= a.dom < n) or not (0 <= a.cod < n):
                errs.append(f"arrow {a.id} references missing object ({a.dom}->{a.cod})")
        for x in range(n):
            if x not in self.identity:
                errs.append(f"object {x} has no identity arrow assigned")
            elif not (0 <= self.identity[x] < m):
                errs.append(f"identity of object {x} is a dangling arrow id {self.identity[x]}")
        for x in self.identity:
            if not (0 <= x < n):
                errs.append(f"identity table mentions missing object {x}")
        # a row holds in-range ids only: the dangling ones sit in the side record
        for (f, g), h in self.side.items():
            for aid in (f, g, h):
                if not (0 <= aid < m):
                    errs.append(f"composition entry ({f},{g})->{h} has dangling arrow id {aid}")
                    break
        return tuple(errs)


def validate_category(cat: FiniteCategory) -> ValidationReport:
    """Exhaustively check the category axioms.

    Structural malformations are fatal and skip the axiom checks.  The
    violations list then covers: identity endpoints, the composition table
    being defined exactly on composable pairs, endpoint compatibility of
    composites, neutrality of identities, and associativity.  Associativity
    is first checked at the middles in `generating_set` alone; if one
    fails, or neutrality did, every composable triple is scanned and each
    failing one reported.
    """
    report = ValidationReport(subject="category")
    report.fatal = cat.structural_errors()
    if report.fatal:
        return report
    out = report.violations

    for x in range(len(cat.objects)):
        ida = cat.arrows[cat.identity[x]]
        if ida.dom != x or ida.cod != x:
            out.append(f"identity of object {x} is {ida}, not an endomorphism of {x}")

    # Past the structural checks, ids are dense (an id is its position) and
    # every id in the table is in range.  The rows hold every composable
    # pair once; an entry on a non-composable pair sits in the side record.
    arrows, out_of, after = cat.arrows, cat.adjacency.out, cat.after
    composites = [tuple(row.values()) for row in after]
    if any(None in hs for hs in composites) or cat.side:
        stray: dict[int, list[int]] = {}  # f -> g for table entries with cod f != dom g
        for f, g in cat.side:
            stray.setdefault(f, []).append(g)
        for f in arrows:
            following = out_of.get(f.cod, ())
            if f.id in stray:
                following = sorted((*following, *stray[f.id]))
            _pair_errors(cat, f, following, out)
        # neutrality/associativity below would chase missing table entries
        return report
    doms, cods = [a.dom for a in arrows], [a.cod for a in arrows]
    ends = {y: _reader(gs)(cods) for y, gs in out_of.items()}
    for f, hs in zip(arrows, composites):
        # the composites of row f must all run from dom f to cod g
        read = _reader(hs)
        if read(cods) != ends.get(f.cod, ()) or read(doms).count(f.dom) != len(hs):
            _pair_errors(cat, f, out_of.get(f.cod, ()), out)
    if out:
        return report

    for a in arrows:
        left = after[cat.identity[a.dom]][a.id]
        right = after[a.id][cat.identity[a.cod]]
        if left != a.id:
            out.append(f"neutrality fails: {a} after id_{a.dom} is arrow {left}")
        if right != a.id:
            out.append(f"neutrality fails: id_{a.cod} after {a} is arrow {right}")

    # after[f] maps each g out of cod f to g∘f.  The keys of after[g] and
    # after[g∘f] are both the arrows out of cod g, in the same order, so one
    # tuple comparison settles all h for a pair (f, g) at once: (h∘g)∘f
    # against h∘(g∘f), the latter read off the row of f by the reader of
    # the composites h∘g.  With neutrality holding, only the middles g of a
    # generating set need the comparison (see the module docstring).
    into = cat.adjacency.into
    if not out:
        for g in generating_set(cat):
            read = _reader(composites[g])
            rows = map(after.__getitem__, into.get(arrows[g].dom, ()))
            if any(composites[row[g]] != read(row) for row in rows):
                break
        else:
            return report
    # Some middle fails, or neutrality does: scan every composable triple
    # (f, g, h) in lexicographic order.
    readers = [*map(_reader, composites)]
    for f in arrows:
        row_f = after[f.id]
        for g, fg in row_f.items():
            if composites[fg] != readers[g](row_f):
                for h, gh in after[g].items():
                    left, right = after[fg][h], row_f[gh]
                    if left != right:
                        out.append(f"associativity fails on ({f.id},{g},{h}): {left} != {right}")
    return report


def _reader(keys):
    """The function that maps a sequence or a mapping to the tuple of its
    entries at `keys`, for any number of keys: ``itemgetter`` alone returns
    a bare entry for one key and takes no call for none."""
    if len(keys) > 1:
        return itemgetter(*keys)
    if keys:
        key, = keys
        return lambda row: (row[key],)
    return lambda row: ()


def _pair_errors(cat: FiniteCategory, f: Arrow, following, out: list[str]) -> None:
    """Append the table findings of the pairs (f, g), g in `following`: an
    entry on a non-composable pair, a missing entry, or a composite with
    the wrong endpoints.  The composable pairs are read off the row of f."""
    arrows, row = cat.arrows, cat.after[f.id]
    for gid in following:
        g = arrows[gid]
        if f.cod != g.dom:
            out.append(f"composition table defined on non-composable pair ({f}, {g})")
        elif row[gid] is None:
            out.append(f"composable pair ({f}, {g}) missing from composition table")
        else:
            h = arrows[row[gid]]
            if h.dom != f.dom or h.cod != g.cod:
                out.append(f"composite of ({f}, {g}) is {h}; endpoints must be {f.dom}->{g.cod}")


def generating_set(cat: FiniteCategory) -> list[int]:
    """Arrow ids that, with the identities, generate `cat` under composition.

    The non-identity arrows that are no composite of two non-identity
    arrows come first, then the others, each group in id order: every
    generating set holds the first group, so a chain gives its steps.  Each
    arrow the closure of the earlier generators and the identities does not
    hold becomes a generator, and the closure grows by composing each new
    member with every held arrow on both sides, read off the rows
    `cat.after`.  The table must be that of a category that passed the
    endpoint and neutrality checks: the row of f holds f once as the
    composite with the identity of cod f, and any further f is the
    composite of two non-identity arrows."""
    arrows, into, after = cat.arrows, cat.adjacency.into, cat.after
    held = [False] * len(arrows)
    for i in cat.identity.values():
        held[i] = True
    # the composites of f with the arrows out of cod f but its identity,
    # read by one reader per codomain
    identity, out = cat.identity, cat.adjacency.out
    others = {x: _reader([g for g in gs if g != identity[x]]) for x, gs in out.items()}
    composite: set[int] = set()
    for f, row in enumerate(after):
        if not held[f]:
            composite.update(others[arrows[f].cod](row))
    found = []
    for a in sorted(range(len(arrows)), key=composite.__contains__):
        if held[a]:
            continue
        found.append(a)
        held[a] = True
        stack = [a]
        while stack:
            x = stack.pop()
            new = [xy for y, xy in after[x].items() if held[y]]
            new += [after[y][x] for y in into.get(arrows[x].dom, ()) if held[y]]
            for z in new:
                if not held[z]:
                    held[z] = True
                    stack.append(z)
    return found


def indiscrete(n: int, labels: list[str] | None = None) -> FiniteCategory:
    """The category with exactly one arrow per ordered pair of n objects."""
    if n < 0:
        raise ValueError("object count must be non-negative")
    if labels is not None and len(labels) != n:
        raise ValueError("label count must match object count")
    objects = tuple(Obj(i, labels[i] if labels else None) for i in range(n))
    # the arrow x -> y has id x * n + y
    arrows = tuple(Arrow(x * n + y, x, y) for x in range(n) for y in range(n))
    identity = {x: x * n + x for x in range(n)}
    # the row of x -> y maps each y -> z to x -> z
    after = [{y * n + z: x * n + z for z in range(n)} for x in range(n) for y in range(n)]
    return FiniteCategory(objects, arrows, identity, after, {})


def terminal_category() -> FiniteCategory:
    return indiscrete(1)


def require_arrow(cat: FiniteCategory, aid) -> None:
    """Raise PreconditionError unless `aid` is the id of one of the arrows
    of `cat` (a negative id would read an arrow from the end)."""
    if not (isinstance(aid, int) and 0 <= aid < len(cat.arrows)):
        raise PreconditionError(f"arrow {aid!r} is not one of the {len(cat.arrows)} arrows of the category")


def opposite(cat: FiniteCategory) -> FiniteCategory:
    """The opposite category, `FiniteCategory.opposite`: built once per
    category, and ``opposite(opposite(cat)) is cat``."""
    return cat.opposite


def opposite_functor(fun: Functor) -> Functor:
    """The same object and arrow maps between the opposite categories (each
    category's cached one); an endofunctor stays an endofunctor of a single
    opposite category."""
    return Functor(fun.source.opposite, fun.target.opposite, fun.obj_map, fun.arr_map)


class Functor(Record):
    __slots__ = _fields = ("source", "target", "obj_map", "arr_map")

    def __init__(self, source: FiniteCategory, target: FiniteCategory,
                 obj_map: dict[int, int], arr_map: dict[int, int]):
        self.source = source
        self.target = target
        self.obj_map = obj_map
        self.arr_map = arr_map

    def key(self) -> tuple:
        """Deterministic identity among functors with the same endpoints."""
        return (
            tuple(self.obj_map[i] for i in range(len(self.source.objects))),
            tuple(self.arr_map[a] for a in range(len(self.source.arrows))),
        )


def identity_functor(cat: FiniteCategory) -> Functor:
    return Functor(cat, cat, {o.index: o.index for o in cat.objects}, {a.id: a.id for a in cat.arrows})


def shape_errors(fun: Functor) -> list[str]:
    """The fatal findings of `validate_functor`, in O(n + m): an object or
    arrow map missing or dangling somewhere, else every arrow image whose
    endpoints disagree with the object map.  Empty when the maps are total,
    in range and compatible, which is what a search over the functor's
    images reads."""
    src, dst, obj_map, arr_map = fun.source, fun.target, fun.obj_map, fun.arr_map
    errs = [f"object map missing or dangling at object {x}" for x in range(len(src.objects))
            if x not in obj_map or not (0 <= obj_map[x] < len(dst.objects))]
    errs += [f"arrow map missing or dangling at arrow {a.id}" for a in src.arrows
             if a.id not in arr_map or not (0 <= arr_map[a.id] < len(dst.arrows))]
    if errs:
        return errs
    images = [(a, dst.arrows[arr_map[a.id]]) for a in src.arrows]
    return [f"arrow {a} maps to {img}, incompatible with the object map" for a, img in images
            if img.dom != obj_map[a.dom] or img.cod != obj_map[a.cod]]


def require_functor(fun: Functor) -> None:
    """Raise PreconditionError with the first of `shape_errors(fun)`, if
    any: the entry check of a function that reads a functor's maps."""
    errs = shape_errors(fun)
    if errs:
        raise PreconditionError(f"not a functor: {errs[0]}")


def validate_functor(fun: Functor) -> ValidationReport:
    """Check endpoint compatibility (fatal), identity and composition
    preservation (violations), exhaustively."""
    report = ValidationReport(subject="functor", fatal=shape_errors(fun))
    if report.fatal:
        return report
    src, dst = fun.source, fun.target
    out = report.violations
    for x in range(len(src.objects)):
        if fun.arr_map[src.identity[x]] != dst.identity[fun.obj_map[x]]:
            out.append(f"identity of object {x} is not preserved")
    # the pairs (f, g) in lexicographic order, from the rows of both sides
    arr_map, dst_after = fun.arr_map, dst.after
    for f, row in zip(src.arrows, src.after):
        image_row = dst_after[arr_map[f.id]]
        for g, fg in row.items():
            lhs, rhs = arr_map[fg], image_row[arr_map[g]]
            if lhs != rhs:
                out.append(f"composition not preserved on pair ({f.id},{g}): {lhs} != {rhs}")
    return report


def backtrack(domains, plan, guard: int | Budget | None, what: str, given=()) -> list[tuple]:
    """Every assignment of the variables that passes all checks, as a tuple
    of values, in lexicographic order of the domains.

    Variable i takes the values ``domains[i](values)`` in order, where
    ``values`` holds the variables before it and, past the n variables,
    the constants `given`.  The plan is the checks grouped by variable:
    ``plan[i]`` lists the predicates that read variable i and no later one,
    so each ``predicate(values)`` runs exactly once, when that variable is
    set, in a plain loop that stops at the first one that fails.  A source
    builds its plan once; `given` carries what differs between searches on
    one plan (the functors of a pair, in `mapping.NaturalitySquares`).
    One search node is one candidate value tried.  The loop counts them and
    charges the work budget ``guard`` (see `Budget.of`) once, when the
    search ends or passes the budget and raises ``SizeGuardError``.  The
    loop keeps an explicit stack, so the depth is not bounded by the
    interpreter's recursion limit.
    """
    budget = Budget.of(guard)
    n = len(domains)
    if n == 0:
        return [()]
    found = []
    values: list = [None] * n
    values += given
    candidates = [iter(())] * n
    candidates[0] = iter(domains[0](values))
    nodes, room = 0, budget.limit - budget.used
    i = 0
    while i >= 0:
        here = plan[i]
        for value in candidates[i]:
            nodes += 1
            if nodes > room:
                budget.spend(nodes, what, "search nodes")
            values[i] = value
            for predicate in here:
                if not predicate(values):
                    break
            else:
                break  # every check passed: the value stays
        else:
            i -= 1
            continue
        if i + 1 == n:
            found.append(tuple(values[:n]))
        else:
            i += 1
            candidates[i] = iter(domains[i](values))
    budget.spend(nodes, what, "search nodes")
    return found


def composition_checks(source: FiniteCategory, after: list[dict], var, size: int) -> list[list]:
    """The `backtrack` plan of `size` variables whose checks say that the
    images of `source`'s arrows, the image of arrow a being variable
    ``var[a]``, preserve composition: per composable pair (f, g),
    ``after[image f][image g] == image(g∘f)``, where `after` is the rows of
    the target (of its opposite, for a dagger).  A variable's pairs, those
    whose last variable it is, make one predicate."""
    triples: list[list] = [[] for _ in range(size)]
    for f, row in enumerate(source.after):
        for g, h in row.items():
            fv, gv, hv = var[f], var[g], var[h]
            triples[max(fv, gv, hv)].append((fv, gv, hv))
    return [[_preserved(after, ts)] if ts else [] for ts in triples]


def _preserved(after: list[dict], triples: list[tuple[int, int, int]]):
    def preserved(v) -> bool:
        for f, g, h in triples:
            if after[v[f]][v[g]] != v[h]:
                return False
        return True

    return preserved


def is_groupoid(cat: FiniteCategory) -> dict[int, int] | None:
    """The two-sided inverse of every arrow, or None if some arrow has none.

    Inverses in a category are unique when they exist, so the returned map
    is canonical.
    """
    inverse: dict[int, int] = {}
    for a in cat.arrows:
        found = None
        for b in cat.hom(a.cod, a.dom):
            if (
                cat.compose(a.id, b) == cat.identity[a.dom]
                and cat.compose(b, a.id) == cat.identity[a.cod]
            ):
                found = b
                break
        if found is None:
            return None
        inverse[a.id] = found
    return inverse


class NatTransformation(Record):
    """A family of target arrows indexed by source objects."""

    __slots__ = _fields = ("F", "G", "components")

    def __init__(self, F: Functor, G: Functor, components: dict[int, int]):
        self.F = F
        self.G = G
        self.components = components


def validate_transformation(t: NatTransformation) -> ValidationReport:
    report = ValidationReport(subject="natural transformation")
    src = t.F.source
    dst = t.F.target
    if t.F.source != t.G.source or t.F.target != t.G.target:
        report.fatal.append("functors do not share source and target")
        return report
    for x in range(len(src.objects)):
        if x not in t.components:
            report.fatal.append(f"no component at object {x}")
            continue
        comp = dst.arrows[t.components[x]]
        if comp.dom != t.F.obj_map[x] or comp.cod != t.G.obj_map[x]:
            report.fatal.append(
                f"component at object {x} is {comp}; must go F({x}) -> G({x})"
            )
    if report.fatal:
        return report
    after, comps, f_map, g_map = dst.after, t.components, t.F.arr_map, t.G.arr_map
    for a in src.arrows:
        # naturality square: G(a) after component(dom) == component(cod) after F(a)
        left = after[comps[a.dom]][g_map[a.id]]
        right = after[f_map[a.id]][comps[a.cod]]
        if left != right:
            report.violations.append(f"naturality square fails at arrow {a.id}")
    return report


def identity_transformation(fun: Functor) -> NatTransformation:
    comps = {x: fun.target.identity[fun.obj_map[x]] for x in range(len(fun.source.objects))}
    return NatTransformation(fun, fun, comps)


def vertical_compose(alpha: NatTransformation, beta: NatTransformation) -> NatTransformation:
    """beta after alpha: components compose pointwise in the target."""
    if alpha.G != beta.F:
        raise ValueError("middle functors do not match")
    dst = alpha.F.target
    comps = {
        x: dst.compose(alpha.components[x], beta.components[x])
        for x in alpha.components
    }
    result = NatTransformation(alpha.F, beta.G, comps)
    validate_transformation(result).require_ok("vertical composite of natural transformations")
    return result


def build_category(
    objects: list[str | None] | int,
    arrows: list[tuple[int, int, str | None] | tuple[int, int]],
    compose_pairs: dict[tuple[int, int], int] | None = None,
    identities: dict[int, int] | None = None,
) -> FiniteCategory:
    """Convenience constructor used in tests and demos.

    ``arrows`` lists non-identity arrows as (dom, cod[, label]); identity
    arrows are created first (arrow id i is id of object i) unless an
    explicit identity table is supplied.  ``compose_pairs`` only needs the
    non-forced entries; identity compositions are filled in automatically,
    and the whole table is read into rows by `FiniteCategory.from_triples`.
    """
    if isinstance(objects, int):
        obj_labels: list[str | None] = [None] * objects
    else:
        obj_labels = list(objects)
    n = len(obj_labels)
    objs = tuple(Obj(i, obj_labels[i]) for i in range(n))
    arrow_list: list[Arrow] = []
    if identities is None:
        for i in range(n):
            arrow_list.append(Arrow(i, i, i, f"id{i}"))
        identity = {i: i for i in range(n)}
    else:
        identity = dict(identities)
    for spec in arrows:
        dom, cod = spec[0], spec[1]
        label = spec[2] if len(spec) > 2 else None
        arrow_list.append(Arrow(len(arrow_list), dom, cod, label))
    arrs = tuple(arrow_list)
    comp: dict[tuple[int, int], int] = dict(compose_pairs or {})
    for a in arrs:
        comp.setdefault((identity[a.dom], a.id), a.id)
        comp.setdefault((a.id, identity[a.cod]), a.id)
    triples = [(f, g, h) for (f, g), h in comp.items()]
    return FiniteCategory.from_triples(objs, arrs, identity, triples)
