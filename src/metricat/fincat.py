"""Finite categories, functors, and natural transformations as explicit tables.

A category is stored as dense object/arrow lists, an identity assignment and
a composition table keyed by composable pairs.  The stored order is
diagrammatic: ``composition[(f, g)]`` is the arrow "g after f", rendered as
g∘f.

A category is frozen, and on first use it builds one adjacency index over
its arrow tuple: the arrows out of and into each object and the hom-sets.
The index depends on the arrows alone, so it never goes stale.  Every pair
scan walks it: composable pairs are found as (f, each arrow out of cod f),
never all m² pairs.  All validators stay exhaustive and list their findings
in lexicographic arrow-id order.

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
nodes charged to the caller's `errors.Budget`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import Budget, TheoremViolation


@dataclass(frozen=True)
class Obj:
    """An object: a dense index within its category plus an optional label."""

    index: int
    label: str | None = None

    def __str__(self) -> str:
        return self.label if self.label is not None else f"o{self.index}"


@dataclass(frozen=True)
class Arrow:
    """An arrow with a dense id and object indices for its endpoints."""

    id: int
    dom: int
    cod: int
    label: str | None = None

    def __str__(self) -> str:
        name = self.label if self.label is not None else f"a{self.id}"
        return f"{name}:{self.dom}->{self.cod}"


@dataclass
class ValidationReport:
    """Outcome of an exhaustive axiom check.

    ``fatal`` lists structural malformations (dangling ids and the like)
    that made the axiom checks meaningless; ``violations`` lists every
    individual axiom failure found.  Empty report == the axioms hold.
    """

    subject: str
    fatal: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

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


@dataclass(frozen=True)
class Adjacency:
    """Arrow ids grouped by endpoint, each group in arrow order."""

    out: dict[int, tuple[int, ...]]  # object -> arrows with that domain
    into: dict[int, tuple[int, ...]]  # object -> arrows with that codomain
    hom: dict[tuple[int, int], tuple[int, ...]]  # (dom, cod) -> sorted arrow ids

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


@dataclass(frozen=True)
class FiniteCategory:
    """Objects, arrows, identities, and a total table on composable pairs."""

    objects: tuple[Obj, ...]
    arrows: tuple[Arrow, ...]
    identity: dict[int, int]  # object index -> identity arrow id
    composition: dict[tuple[int, int], int]  # (f, g) -> "g after f"

    def compose(self, first: int, second: int) -> int:
        """Arrow id of "second after first" (second∘first)."""
        return self.composition[(first, second)]

    def is_identity(self, aid: int) -> bool:
        a = self.arrows[aid]
        return a.dom == a.cod and self.identity.get(a.dom) == aid

    @cached_property
    def adjacency(self) -> Adjacency:
        """Built on first use; ``cached_property`` stores it past the frozen
        ``__setattr__``."""
        return Adjacency.of(self.arrows)

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
        for (f, g), h in self.composition.items():
            for aid in (f, g, h):
                if not (0 <= aid < m):
                    errs.append(f"composition entry ({f},{g})->{h} has dangling arrow id {aid}")
                    break
        return errs


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
    # every id in the table is in range.
    arrows = cat.arrows
    out_of = cat.adjacency.out
    comp = cat.composition
    stray: dict[int, list[int]] = {}  # f -> g for table entries with cod f != dom g
    for f, g in comp:
        if arrows[f].cod != arrows[g].dom:
            stray.setdefault(f, []).append(g)
    for f in arrows:
        following = out_of.get(f.cod, ())
        if f.id in stray:
            following = sorted((*following, *stray[f.id]))
        for gid in following:
            g = arrows[gid]
            key = (f.id, gid)
            if f.cod != g.dom:
                out.append(f"composition table defined on non-composable pair ({f}, {g})")
            elif key not in comp:
                out.append(f"composable pair ({f}, {g}) missing from composition table")
            else:
                h = arrows[comp[key]]
                if h.dom != f.dom or h.cod != g.cod:
                    out.append(f"composite of ({f}, {g}) is {h}; endpoints must be {f.dom}->{g.cod}")
    if out:
        # neutrality/associativity below would chase missing table entries
        return report

    for a in arrows:
        lid = cat.identity[a.dom]
        rid = cat.identity[a.cod]
        if comp[(lid, a.id)] != a.id:
            out.append(f"neutrality fails: {a} after id_{a.dom} is arrow {comp[(lid, a.id)]}")
        if comp[(a.id, rid)] != a.id:
            out.append(f"neutrality fails: id_{a.cod} after {a} is arrow {comp[(a.id, rid)]}")

    # after[f] maps each g out of cod f to g∘f.  The keys of after[g] and
    # after[g∘f] are both the arrows out of cod g, in the same order, so one
    # tuple comparison settles all h for a pair (f, g) at once: (h∘g)∘f
    # against h∘(g∘f).  With neutrality holding, only the middles g of a
    # generating set need the comparison (see the module docstring).
    after = [{g: comp[(f.id, g)] for g in out_of.get(f.cod, ())} for f in arrows]
    composites = [tuple(row.values()) for row in after]
    into = cat.adjacency.into
    if not out and all(
        composites[after[f][g]] == tuple(map(after[f].__getitem__, composites[g]))
        for g in generating_set(cat, after) for f in into.get(arrows[g].dom, ())
    ):
        return report
    # Some middle fails, or neutrality does: scan every composable triple
    # (f, g, h) in lexicographic order.
    for f in arrows:
        row_f = after[f.id]
        for g, fg in row_f.items():
            if composites[fg] != tuple(map(row_f.__getitem__, composites[g])):
                for h, gh in after[g].items():
                    left, right = after[fg][h], row_f[gh]
                    if left != right:
                        out.append(f"associativity fails on ({f.id},{g},{h}): {left} != {right}")
    return report


def generating_set(cat: FiniteCategory, after: list[dict[int, int]]) -> list[int]:
    """Arrow ids that, with the identities, generate `cat` under composition.

    The arrows are walked in id order; each one the closure of the earlier
    generators and the identities does not hold becomes a generator, and
    the closure grows by composing each new member with every held arrow on
    both sides.  `after[f]` maps each g out of cod f to g∘f, the table of a
    category that passed the endpoint checks."""
    arrows, into = cat.arrows, cat.adjacency.into
    held = [False] * len(arrows)
    for i in cat.identity.values():
        held[i] = True
    found = []
    for a in range(len(arrows)):
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
    composition = {
        (x * n + y, y * n + z): x * n + z for x in range(n) for y in range(n) for z in range(n)
    }
    return FiniteCategory(objects, arrows, identity, composition)


def terminal_category() -> FiniteCategory:
    return indiscrete(1)


def opposite(cat: FiniteCategory) -> FiniteCategory:
    """Reverse every arrow.  Arrow ids are preserved, so data indexed by id
    (weights, sequences) transfers between a category and its opposite
    verbatim; the composition table transposes."""
    arrows = tuple(Arrow(a.id, a.cod, a.dom, a.label) for a in cat.arrows)
    composition = {(g, f): h for (f, g), h in cat.composition.items()}
    return FiniteCategory(cat.objects, arrows, dict(cat.identity), composition)


def opposite_functor(fun: Functor) -> Functor:
    """The same object and arrow maps between the opposite categories; an
    endofunctor stays an endofunctor of a single opposite category."""
    src = opposite(fun.source)
    dst = src if fun.target is fun.source else opposite(fun.target)
    return Functor(src, dst, fun.obj_map, fun.arr_map)


@dataclass(eq=True)
class Functor:
    source: FiniteCategory
    target: FiniteCategory
    obj_map: dict[int, int]
    arr_map: dict[int, int]

    def key(self) -> tuple:
        """Deterministic identity among functors with the same endpoints."""
        return (
            tuple(self.obj_map[i] for i in range(len(self.source.objects))),
            tuple(self.arr_map[a] for a in range(len(self.source.arrows))),
        )


def identity_functor(cat: FiniteCategory) -> Functor:
    return Functor(cat, cat, {o.index: o.index for o in cat.objects}, {a.id: a.id for a in cat.arrows})


def validate_functor(fun: Functor) -> ValidationReport:
    """Check endpoint compatibility (fatal), identity and composition
    preservation (violations), exhaustively."""
    report = ValidationReport(subject="functor")
    src, dst = fun.source, fun.target
    for x in range(len(src.objects)):
        if x not in fun.obj_map or not (0 <= fun.obj_map[x] < len(dst.objects)):
            report.fatal.append(f"object map missing or dangling at object {x}")
    for a in src.arrows:
        if a.id not in fun.arr_map or not (0 <= fun.arr_map[a.id] < len(dst.arrows)):
            report.fatal.append(f"arrow map missing or dangling at arrow {a.id}")
    if report.fatal:
        return report
    for a in src.arrows:
        img = dst.arrows[fun.arr_map[a.id]]
        if img.dom != fun.obj_map[a.dom] or img.cod != fun.obj_map[a.cod]:
            report.fatal.append(
                f"arrow {a} maps to {img}, incompatible with the object map"
            )
    if report.fatal:
        return report
    out = report.violations
    for x in range(len(src.objects)):
        if fun.arr_map[src.identity[x]] != dst.identity[fun.obj_map[x]]:
            out.append(f"identity of object {x} is not preserved")
    for f, g in src.composable_pairs():
        lhs = fun.arr_map[src.compose(f, g)]
        rhs = dst.compose(fun.arr_map[f], fun.arr_map[g])
        if lhs != rhs:
            out.append(f"composition not preserved on pair ({f},{g}): {lhs} != {rhs}")
    return report


def backtrack(domains, checks, guard: int | Budget | None, what: str):
    """Yield every assignment of the variables that passes all checks, as a
    tuple of values, in lexicographic order of the domains.

    Variable i takes the values ``domains[i](values)`` in order, where
    ``values`` holds the variables before it.  A check is a pair
    ``(reads, predicate)``: it is attached to the last variable it reads,
    so ``predicate(values)`` runs exactly once, when that variable is set.
    One search node is one candidate value tried.  The loop counts them and
    charges the work budget ``guard`` (see `Budget.of`) once, when the
    search ends or passes the budget and raises ``SizeGuardError``.  The
    loop keeps an explicit stack, so the depth is not bounded by the
    interpreter's recursion limit.
    """
    budget = Budget.of(guard)
    n = len(domains)
    if n == 0:
        yield ()
        return
    attached: list[list] = [[] for _ in range(n)]
    for reads, predicate in checks:
        attached[max(reads)].append(predicate)
    values: list = [None] * n
    candidates = [iter(())] * n
    candidates[0] = iter(domains[0](values))
    nodes, room = 0, budget.limit - budget.used
    i = 0
    while i >= 0:
        here = attached[i]
        for value in candidates[i]:
            nodes += 1
            if nodes > room:
                budget.spend(nodes, what, "search nodes")
            values[i] = value
            if all(predicate(values) for predicate in here):
                break
        else:
            i -= 1
            continue
        if i + 1 == n:
            yield tuple(values)
        else:
            i += 1
            candidates[i] = iter(domains[i](values))
    budget.spend(nodes, what, "search nodes")


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


@dataclass(eq=True)
class NatTransformation:
    """A family of target arrows indexed by source objects."""

    F: Functor
    G: Functor
    components: dict[int, int]


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
    table, comps, f_map, g_map = dst.composition, t.components, t.F.arr_map, t.G.arr_map
    for a in src.arrows:
        # naturality square: G(a) after component(dom) == component(cod) after F(a)
        left = table[(comps[a.dom], g_map[a.id])]
        right = table[(f_map[a.id], comps[a.cod])]
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
    non-forced entries; identity compositions are filled in automatically.
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
    return FiniteCategory(objs, arrs, identity, comp)
