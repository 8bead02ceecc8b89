"""The indexed kernel scans against the plain loops they replaced.

Each reference below is the unindexed loop: all m² arrow pairs for
composable pairs, pairs × m for associativity, `Weight` arithmetic for the
triangle inequality, all m × |e| pairs for the arrow calculus and every
arrow against every threshold for the bounded generators.  On seeded random
categories, their opposites and deliberately broken tables, the library
must give the same pair sequences, the same reports (same messages, same
order) and the same sets.

Associativity checked at the middles of a generating set is compared with
the full triple scan on max-monoids (every non-identity arrow a generator),
chains, cyclic groupoids, random spaces and a 729-arrow [X, Y], each also
with composites moved within their hom-sets: defects of associativity alone
and defects of neutrality.  The generating set itself is compared with a
closure computed by rescanning every composable pair.  The row index those
checks read is compared with a lookup of each composable pair, holes of
broken tables included, and the rows that [X, Y] is built with are compared
with the rows a fresh category reads from the same tables.

The metrization chain, which stops once it can no longer change, is
compared with the stage-by-stage loop it replaced (kept verbatim), which
runs every stage up to the first unchanged one past `constant_from`: the
same list of sets and the same weights, on kernel-shaped spaces with and
without a wrong composite, on infinite weights, on a chain F never fills
and on explicit families that stall below their top set, for one stage or
for 10^5, and on the kernel benchmark's largest sizes.  That loop runs on
copies of the star and composition scans as they were before they stopped
at a full result, and those copies are compared with the library's scans.

The backward continuity criteria and the backward natural-contraction
search are likewise compared with the hand-written backward loops that the
forward code run in the opposite space replaced: same verdicts, a valid
witness on every failure, and the same contractions in the same order.

The pruned Gromov-Hausdorff routes are compared with the exhaustive scans
of every pair (f, g), and the branch-and-bound Lipschitz distance with the
least factor of the bi-Lipschitz slice: the same exact values.

The functor, transformation, natural-contraction and dagger searches on
the one backtracking engine are compared with the four hand-written
searches they replaced (kept verbatim, the candidate product of involutions
included): the same results in the same order, since the order reaches the
CLI output.  The mapping space's pointwise composites are compared with
`vertical_compose`, which re-checks naturality.

The limit checks that keep one body for eventually periodic and bounded
data are compared with the two-body versions they replaced (kept
verbatim): partial compositions, Cauchy windows, truncations, mediating
arrows, weak pushouts, and the leg loops of `series_converges` and
`banach_iterate`.  On seeded series and cones over indiscrete spaces with
1 to 4 objects (zero weights, horizons up to 7, periods that do not close,
entries that do not compose, legs that miss the apex), each call must
return the same value or raise the same exception with the same message.
Two bare errors of the replaced versions are the exception: a leg that
misses the apex (`KeyError`) and an empty bounded series (`IndexError`)
now raise `PreconditionError`.
"""
import hashlib
import itertools
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from metricat import (
    ZERO,
    FiniteCategory,
    FiniteMetricSpace,
    Functor,
    Metric1Space,
    NatTransformation,
    PreconditionError,
    SizeGuardError,
    TheoremViolation,
    Weight,
    from_metric_space,
    identity_functor,
    indiscrete,
    opposite_functor,
    validate_category,
    validate_functor,
    validate_metric1,
    validate_transformation,
    vertical_compose,
)
from metricat.coarse import (
    CoarseGenerators, arrow_compose_sets, arrow_diagonal, arrow_star, bounded_generators,
    coarse_roundtrip_check, dominated_by, metrize, metrize_chain,
)
from metricat.continuity import (
    BACKWARD, FORWARD, factorizations, forward_continuous_at_arrow, object_continuity, uniformly_continuous,
)
from metricat.fincat import Arrow, ValidationReport, generating_set, opposite
from metricat.dagger import Dagger, enumerate_daggers, validate_dagger
from metricat.fixedpoint import NaturalContraction, find_natural_contractions
from metricat.limits import (
    EXACT_NO, EXACT_YES, TO_HORIZON, BoundedDescription, EssentialCone, EventuallyPeriodic,
    ForwardSequence, ForwardSeries, LimitCertificate, MediatingReport, _exact_window, check_cauchy,
    check_weak_pushout, find_mediating_arrows, legs_before, partial_compositions, require_series,
    truncate_cone, truncate_series,
)
from metricat.geometry import (
    _eccentricity_floor,
    _gh_correspondences,
    _gh_gluings,
    bilip_slice,
    bimetric_space,
    gh_distance,
    lipschitz_distance,
)
from metricat import jsonio, mapping
from metricat.cli import main
from metricat.errors import Budget, InputFormatError
from metricat.fincat import Obj, identity_transformation
from metricat.mapping import enumerate_functors, enumerate_transformations, mapping_space, nat_weight
from metricat.metricspace import line_metric, shortest_path_repair
from metricat.weights import is_backward, opposite_space

import support


# --- references -----------------------------------------------------------------

def ref_composable_pairs(cat):
    return [(f.id, g.id) for f in cat.arrows for g in cat.arrows if f.cod == g.dom]


def ref_validate_category(cat) -> ValidationReport:
    report = ValidationReport(subject="category")
    report.fatal = cat.structural_errors()
    if report.fatal:
        return report
    out = report.violations
    for x in range(len(cat.objects)):
        ida = cat.arrows[cat.identity[x]]
        if ida.dom != x or ida.cod != x:
            out.append(f"identity of object {x} is {ida}, not an endomorphism of {x}")
    comp = cat.composition
    for f in cat.arrows:
        for g in cat.arrows:
            key = (f.id, g.id)
            if f.cod == g.dom:
                if key not in comp:
                    out.append(f"composable pair ({f}, {g}) missing from composition table")
                else:
                    h = cat.arrows[comp[key]]
                    if h.dom != f.dom or h.cod != g.cod:
                        out.append(f"composite of ({f}, {g}) is {h}; endpoints must be {f.dom}->{g.cod}")
            elif key in comp:
                out.append(f"composition table defined on non-composable pair ({f}, {g})")
    if out:
        return report
    for a in cat.arrows:
        lid = cat.identity[a.dom]
        rid = cat.identity[a.cod]
        if comp[(lid, a.id)] != a.id:
            out.append(f"neutrality fails: {a} after id_{a.dom} is arrow {comp[(lid, a.id)]}")
        if comp[(a.id, rid)] != a.id:
            out.append(f"neutrality fails: id_{a.cod} after {a} is arrow {comp[(a.id, rid)]}")
    for f in cat.arrows:
        for g in cat.arrows:
            if f.cod != g.dom:
                continue
            fg = comp[(f.id, g.id)]
            for h in cat.arrows:
                if g.cod != h.dom:
                    continue
                gh = comp[(g.id, h.id)]
                if comp[(fg, h.id)] != comp[(f.id, gh)]:
                    out.append(
                        f"associativity fails on ({f.id},{g.id},{h.id}): "
                        f"{comp[(fg, h.id)]} != {comp[(f.id, gh)]}"
                    )
    return report


def full_triangle_violation(a: Weight, b: Weight, c: Weight) -> str | None:
    """None, or which half of |b - a| <= c <= a + b fails; both legs
    infinite means no lower bound."""
    if c > a + b:
        return "upper"
    if a.is_infinite and b.is_infinite:
        return None
    if Weight.abs_diff(a, b) > c:
        return "lower"
    return None


def ref_validate_metric1(space) -> ValidationReport:
    """Weight arithmetic pair by pair; a missing composite is fatal, and an
    entry on a pair that does not compose is a violation."""
    report = ValidationReport(subject="metric 1-space")
    cat = space.category
    report.fatal = cat.structural_errors()
    if len(space.w) != len(cat.arrows):
        report.fatal.append("weight table does not cover the arrows")
    if report.fatal:
        return report
    for x in range(len(cat.objects)):
        wid = space.w[cat.identity[x]]
        if wid != Weight(0):
            report.violations.append(f"reflexivity: w(id_{x}) = {wid} != 0")
    for f in cat.arrows:
        for g in cat.arrows:
            if f.cod != g.dom and (f.id, g.id) in cat.composition:
                report.violations.append(f"composition table defined on non-composable pair ({f}, {g})")
    for f, g in ref_composable_pairs(cat):
        if (f, g) not in cat.composition:
            report.fatal.append(f"composable pair {(f, g)} missing from composition table")
            continue
        a, b = space.w[f], space.w[g]
        c = space.w[cat.composition[(f, g)]]
        side = full_triangle_violation(a, b, c)
        if side == "upper":
            report.violations.append(f"full triangle (upper) on ({f},{g}): w = {c} > {a} + {b}")
        elif side == "lower":
            report.violations.append(f"full triangle (lower) on ({f},{g}): |{b} - {a}| > w = {c}")
    return report


def ref_arrow_compose_sets(cat, e1, e2):
    return frozenset(
        cat.compose(f2, f1) for f2 in e2 for f1 in e1
        if cat.arrows[f1].dom == cat.arrows[f2].cod
    )


def ref_arrow_star(cat, e):
    out = set()
    for psi in range(len(cat.arrows)):
        pa = cat.arrows[psi]
        for phi in e:
            ph = cat.arrows[phi]
            if ph.cod == pa.dom and cat.compose(phi, psi) in e:
                out.add(psi)
                break
            if pa.cod == ph.dom and cat.compose(psi, phi) in e:
                out.add(psi)
                break
    return frozenset(out)


def parent_arrow_compose_sets(cat, e1, e2):
    """`arrow_compose_sets` before it stopped at a full result."""
    after = cat.after
    out = set()
    for f2 in e2:
        out.update([h for f1, h in after[f2].items() if f1 in e1])
    return frozenset(out)


def parent_arrow_star(cat, e):
    """`arrow_star` before it stopped at a full result and read large sets
    holding every identity from the arrows outside them."""
    arrows, into, after = cat.arrows, cat.adjacency.into, cat.after
    out = set()
    for phi in e:
        out.update([psi for psi, h in after[phi].items() if psi not in out and h in e])
        out.update([psi for psi in into.get(arrows[phi].dom, ())
                    if psi not in out and after[psi][phi] in e])
    return frozenset(out)


def ref_bounded_sets(space):
    finite = [w.finite for w in space.w if not w.is_infinite]
    last = max((math.ceil(f) for f in finite), default=0)
    return [
        frozenset(a.id for a in space.category.arrows if space.w[a.id] <= Weight(Fraction(n)))
        for n in range(last + 1)
    ], last


def ref_metrize_chain(gens: CoarseGenerators) -> list[frozenset[int]]:
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
            parent_arrow_star(cat, current)
            | parent_arrow_compose_sets(cat, current, current)
            | e_n
            | parent_arrow_star(cat, e_n)
            | current
        )
        n += 1
        if nxt == current and n > gens.constant_from:
            return chain
        chain.append(nxt)


def ref_metrize_weights(gens: CoarseGenerators) -> tuple[Weight, ...]:
    cat = gens.category
    entered: dict[int, int] = {}
    for stage, members in enumerate(ref_metrize_chain(gens)):
        for a in members:
            entered.setdefault(a, stage)
    return tuple(
        Weight(entered[a.id]) if a.id in entered else Weight.infinite()
        for a in cat.arrows
    )


def ref_coarse_roundtrip_check(space: Metric1Space) -> bool:
    first = bounded_generators(space)
    rebuilt = bounded_generators(metrize(first))
    return dominated_by(first, rebuilt) and dominated_by(rebuilt, first)


def ref_backward_continuous_at_arrow(fun, src, dst, psi):
    """(holds, witness): first legs of factorizations instead of second."""
    for rho, _ in factorizations(src, psi):
        if src.w[rho] == ZERO and dst.w[fun.arr_map[rho]] != ZERO:
            return False, (psi, rho)
    return True, None


def ref_backward_object_continuity(fun, src, dst, x0):
    """(holds, witness) over the zero-weight arrows out of x0."""
    for a in src.category.arrows_from(x0):
        if src.w[a] == ZERO and dst.w[fun.arr_map[a]] != ZERO:
            return False, (x0, a)
    return True, None


def ref_backward_natural_contractions(space, fun):
    """Components F(c) -> c, naturality F(a) then c_cod == c_dom then a."""
    cat = space.category
    n = len(cat.objects)
    pools = [cat.hom(fun.obj_map[x], x) for x in range(n)]
    if not all(pools):
        return []
    out = []

    def naturality_ok(comps, upto):
        for a in cat.arrows:
            if a.dom < upto and a.cod < upto:
                left = cat.compose(fun.arr_map[a.id], comps[a.cod])
                right = cat.compose(comps[a.dom], a.id)
                if left != right:
                    return False
        return True

    def rec(x, comps):
        if x == n:
            if all(fun.arr_map[comps[c]] == comps[fun.obj_map[c]] for c in range(n)):
                out.append(NaturalContraction(BACKWARD, fun, tuple(comps)))
            return
        for c in pools[x]:
            comps.append(c)
            if naturality_ok(comps, x + 1):
                rec(x + 1, comps)
            comps.pop()

    rec(0, [])
    ident = identity_functor(fun.source)
    for nc in out:
        assert validate_transformation(NatTransformation(fun, ident, dict(enumerate(nc.components)))).ok
    return out


# --- seeded inputs ----------------------------------------------------------------

def with_table(cat, table) -> FiniteCategory:
    triples = [(f, g, h) for (f, g), h in table.items()]
    return FiniteCategory.from_triples(cat.objects, cat.arrows, dict(cat.identity), triples)


def random_weight(rng):
    return rng.choice(["inf", 0, Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 7)))])


def base_spaces(rng):
    """Valid spaces of every shape, some with infinite weights."""
    spaces = [support.rand_space(rng) for _ in range(12)]
    spaces.append(from_metric_space(support.rand_metric(rng, rng.randint(4, 5))))
    spaces.append(support.chain_space([rng.choice(["inf", 1, Fraction(3, 2)]) for _ in range(3)]))
    spaces.append(support.free_arrow_space("inf"))
    spaces.append(support.parallel_pair_space("inf", rng.randint(0, 4)))
    return spaces


def broken_tables(rng, cat):
    """The table with one defect each: a missing entry, an entry on a
    non-composable pair, a wrong composite, both of the first two in one
    row, and a composite swapped within its hom-set (which keeps endpoints
    and breaks neutrality or associativity)."""
    pairs = ref_composable_pairs(cat)
    out = []
    missing = dict(cat.composition)
    del missing[rng.choice(pairs)]
    out.append(("missing", with_table(cat, missing)))
    strays = [(f.id, g.id) for f in cat.arrows for g in cat.arrows if f.cod != g.dom]
    if strays:
        stray = dict(cat.composition)
        stray[rng.choice(strays)] = rng.randrange(len(cat.arrows))
        out.append(("stray", with_table(cat, stray)))
    wrong = dict(cat.composition)
    wrong[rng.choice(pairs)] = rng.randrange(len(cat.arrows))
    out.append(("wrong", with_table(cat, wrong)))
    rows = [(f, g, g2) for f, g in strays for f2, g2 in pairs if f2 == f]
    if rows:
        # one row with a stray entry and a missing one, either order by id
        f, g, g2 = rng.choice(rows)
        crowded = dict(cat.composition)
        crowded[(f, g)] = f
        del crowded[(f, g2)]
        out.append(("crowded row", with_table(cat, crowded)))
    swappable = [
        (f, g) for f, g in pairs
        if len(cat.hom(cat.arrows[f].dom, cat.arrows[g].cod)) > 1
    ]
    if swappable:
        f, g = rng.choice(swappable)
        others = [h for h in cat.hom(cat.arrows[f].dom, cat.arrows[g].cod)
                  if h != cat.composition[(f, g)]]
        swapped = dict(cat.composition)
        swapped[(f, g)] = rng.choice(others)
        out.append(("swapped", with_table(cat, swapped)))
    return out


def non_associative():
    # one object, arrows {id, a, b}: a*a = b, a*b = id, b*a = a, b*b = b
    arrows = (Arrow(0, 0, 0, "id"), Arrow(1, 0, 0, "a"), Arrow(2, 0, 0, "b"))
    comp = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (0, 2, 2), (2, 0, 2),
            (1, 1, 2), (1, 2, 0), (2, 1, 1), (2, 2, 2)]
    return FiniteCategory.from_triples(indiscrete(1).objects, arrows, {0: 0}, comp)


def cases(seed: int):
    """(name, space) pairs: valid spaces, perturbed weights, broken tables,
    a non-associative and a dangling table, and the opposite of each."""
    rng = random.Random(seed)
    out = []
    for i, space in enumerate(base_spaces(rng)):
        out.append((f"space {i}", space))
        w = list(space.w)
        w[rng.randrange(len(w))] = Weight.parse(random_weight(rng))
        out.append((f"space {i} perturbed", Metric1Space(space.category, tuple(w))))
        for kind, cat in broken_tables(rng, space.category):
            out.append((f"space {i} {kind}", Metric1Space(cat, space.w)))
    out.append(("non-associative", Metric1Space(non_associative(), (Weight(0),) * 3)))
    dangling = FiniteCategory.from_triples(indiscrete(1).objects, (Arrow(0, 0, 0), Arrow(1, 0, 5)),
                                           {0: 0}, [(0, 0, 0)])
    out.append(("dangling", Metric1Space(dangling, (Weight(0), Weight(1)))))
    return out + [(f"opposite of {name}", opposite_space(sp)) for name, sp in out]


def total(cat) -> bool:
    return all(pair in cat.composition for pair in ref_composable_pairs(cat))


# --- comparisons ------------------------------------------------------------------

def test_composable_pairs_match_the_pair_scan():
    for name, space in cases(101):
        assert list(space.category.composable_pairs()) == ref_composable_pairs(space.category), name


def test_validate_category_matches_the_unindexed_scan():
    kinds = set()
    for name, space in cases(102):
        got, want = validate_category(space.category), ref_validate_category(space.category)
        assert (got.fatal, got.violations) == (want.fatal, want.violations), name
        kinds.update(m.split()[0] for m in got.all_messages())
    # every kind of finding is exercised
    assert {"composable", "composition", "composite", "neutrality", "associativity",
            "arrow"} <= kinds


def short_row_tables():
    """Tables whose rows hold one entry or none: the terminal category, a
    free arrow and a two-step chain (each also with every broken table),
    and identities that are not endomorphisms, which leave an object with
    no arrow out, one of them also with a composite of wrong endpoints."""
    rng = random.Random(111)
    cats = [indiscrete(1), support.free_arrow_category(), support.chain_space([1, 2]).category]
    cats += [broken for cat in cats for _, broken in broken_tables(rng, cat)]
    objs = indiscrete(2).objects
    cats += [
        FiniteCategory.from_triples(objs, (Arrow(0, 0, 0), Arrow(1, 0, 1)), {0: 0, 1: 1},
                                    [(0, 0, 0), (0, 1, 1)]),
        FiniteCategory.from_triples(objs, (Arrow(0, 0, 0), Arrow(1, 0, 1)), {0: 0, 1: 1},
                                    [(0, 0, 0), (0, 1, 0)]),
        FiniteCategory.from_triples(objs, (Arrow(0, 0, 1), Arrow(1, 1, 1)), {0: 0, 1: 1},
                                    [(0, 1, 0), (1, 1, 1)]),
        FiniteCategory.from_triples(objs, (Arrow(0, 0, 1), Arrow(1, 0, 0)), {0: 0, 1: 1},
                                    [(1, 0, 0), (1, 1, 1)]),
    ]
    return cats + [opposite(cat) for cat in cats]


def test_validate_category_matches_the_unindexed_scan_on_rows_of_one_entry_or_none():
    cats = short_row_tables()
    assert {0, 1} <= {len(row) for cat in cats for row in cat.after}
    kinds = set()
    for i, cat in enumerate(cats):
        got, want = validate_category(cat), ref_validate_category(cat)
        assert (got.fatal, got.violations) == (want.fatal, want.violations), i
        kinds.update(m.split()[0] for m in got.all_messages())
    assert {"composable", "composite", "identity"} <= kinds
    assert sum(validate_category(cat).ok for cat in cats) >= 6


def ref_closure(cat, held: set[int]) -> set[int]:
    """`held` closed under composition, by rescanning every composable pair
    until nothing is added."""
    pairs = ref_composable_pairs(cat)
    held = set(held)
    new = held
    while new:
        new = {cat.compose(f, g) for f, g in pairs if f in held and g in held} - held
        held |= new
    return held


def ref_generating_set(cat) -> list[int]:
    """Each arrow outside the closure of the identities and the earlier
    generators, walking first the non-identity arrows that are no composite
    of two non-identity arrows, then the others, each group in id order."""
    identities = set(cat.identity.values())
    composite = {cat.compose(f, g) for f, g in ref_composable_pairs(cat)
                 if f not in identities and g not in identities}
    order = [a.id for a in cat.arrows if a.id not in composite]
    order += [a.id for a in cat.arrows if a.id in composite]
    held = identities
    found = []
    for a in order:
        if a not in held:
            found.append(a)
            held = ref_closure(cat, held | {a})
    return found


def after_rows(cat):
    table = cat.composition
    return [{g: table[(f.id, g)] for g in cat.arrows_from(f.cod)} for f in cat.arrows]


def test_row_index_matches_the_pair_lookups():
    holes = 0
    for name, space in cases(107):
        cat = space.category
        missing = {pair for pair in ref_composable_pairs(cat) if pair not in cat.composition}
        if not missing:
            assert cat.after == after_rows(cat), name
        found = {(f.id, g) for f, row in zip(cat.arrows, cat.after) for g, h in row.items() if h is None}
        assert found == missing, name
        holes += bool(missing)
    assert holes > 10


def test_mapping_space_hands_over_the_rows_of_its_table():
    rng = random.Random(108)
    y = from_metric_space(support.rand_metric(rng, 3))
    sources = {
        "2->3": from_metric_space(support.rand_metric(rng, 2)),
        "3->3": from_metric_space(support.rand_metric(rng, 3)),
        "pseudo3->3": support.indiscrete_space([[0, 2, 0], [2, 0, 2], [0, 2, 0]]),
        "chain2->3": support.chain_space([3]),
    }
    for name, x in sources.items():
        cat = mapping_space(x, y).space.category
        assert {"adjacency", "after"} <= vars(cat).keys(), name
        fresh = with_table(cat, cat.composition)
        assert (cat.after, cat.adjacency) == (fresh.after, fresh.adjacency), name
        assert len(cat.arrows) > 9 and validate_category(cat).ok, name


def moved_composites(rng, cat, pairs, count):
    """Up to `count` tables, each with the composite of one pair from
    `pairs` moved to another arrow of its hom-set: the endpoints stay
    right."""
    out = []
    movable = [(f, g) for f, g in pairs
               if len(cat.hom(cat.arrows[f].dom, cat.arrows[g].cod)) > 1]
    for f, g in rng.sample(movable, min(count, len(movable))):
        table = dict(cat.composition)
        table[(f, g)] = rng.choice([h for h in cat.hom(cat.arrows[f].dom, cat.arrows[g].cod)
                                    if h != table[(f, g)]])
        out.append(with_table(cat, table))
    return out


def associativity_defects(rng, cat, count=4):
    """Tables whose only defect is associativity: a composite of two
    non-identity arrows moved within its hom-set keeps the endpoints and
    the neutrality entries, and the reference scan finds a failing triple."""
    pairs = [(f, g) for f, g in ref_composable_pairs(cat)
             if not cat.is_identity(f) and not cat.is_identity(g)]
    return [t for t in moved_composites(rng, cat, pairs, count)
            if ref_validate_category(t).violations]


def neutrality_defects(rng, cat, count=3):
    """Tables with a composite with an identity moved within its hom-set."""
    pairs = [(f, g) for f, g in ref_composable_pairs(cat)
             if cat.is_identity(f) != cat.is_identity(g)]
    return moved_composites(rng, cat, pairs, count)


def cyclic_with_composite_middle():
    """Z/5 on one object is generated by arrow 1 alone; moving 1∘1 from 2 to
    3 breaks triples whose middle is a composite as well as the generator."""
    cat = support.cyclic_groupoid_space(1, 5).category
    table = dict(cat.composition)
    table[(1, 1)] = 3
    return with_table(cat, table)


def generator_spaces(rng):
    """Max-monoids (every non-identity arrow is a generator), chains, cyclic
    groupoids, null products, the one-sided space and random spaces."""
    spaces = [support.max_monoid_space(k) for k in (2, 3, 5, 8)]
    spaces += [support.chain_space([1] * k) for k in (1, 2, 3, 4)]
    spaces += [support.cyclic_groupoid_space(n, m) for n, m in ((1, 3), (1, 6), (2, 2), (2, 3), (3, 2))]
    spaces += [support.null_product_space(k) for k in (3, 5)]
    spaces.append(support.one_sided_space())
    return spaces + [support.rand_space(rng) for _ in range(10)]


def test_generating_set_matches_the_closure_scan():
    rng = random.Random(112)
    cats = [sp.category for sp in generator_spaces(rng)]
    cats += [opposite_space(sp).category for sp in generator_spaces(rng)]
    for cat in cats:
        gens = generating_set(cat)
        assert gens == ref_generating_set(cat)
        assert ref_closure(cat, set(cat.identity.values()) | set(gens)) == {a.id for a in cat.arrows}
    mono = support.max_monoid_space(8).category
    assert generating_set(mono) == list(range(1, 8))
    chain = support.chain_space([1, 1, 1]).category  # the steps [0,1), [1,2), [2,3)
    assert generating_set(chain) == [4, 7, 9]
    cyclic = support.cyclic_groupoid_space(1, 6).category
    assert generating_set(cyclic) == [1]
    square = indiscrete(5)  # the arrows out of 0, then one into 0 per object
    assert generating_set(square) == [1, 2, 3, 4, 5, 10, 15, 20]


def test_generating_set_associativity_matches_the_triple_scan():
    rng = random.Random(113)
    broken = {"associativity": 0, "neutrality": 0}
    tables = [("composite middle", cyclic_with_composite_middle())]
    for i, sp in enumerate(generator_spaces(rng)):
        cat = sp.category
        tables.append((f"space {i}", cat))
        for kind, defects in (("associativity", associativity_defects), ("neutrality", neutrality_defects)):
            for j, table in enumerate(defects(rng, cat)):
                tables.append((f"space {i} {kind} {j}", table))
                broken[kind] += 1
    X = Metric1Space.from_weights(indiscrete(3), [0 if a % 4 == 0 else 1 + a % 3 for a in range(9)])
    Y = Metric1Space.from_weights(indiscrete(3), [0 if a % 4 == 0 else 2 + a for a in range(9)])
    xy = mapping_space(X, Y).space.category
    assert len(xy.arrows) == 729
    tables.append(("map 3->3", xy))
    tables += [(f"opposite of {name}", opposite(cat)) for name, cat in tables if len(cat.arrows) < 100]
    failing = 0
    for name, cat in tables:
        got, want = validate_category(cat), ref_validate_category(cat)
        assert (got.fatal, got.violations) == (want.fatal, want.violations), name
        failing += any(m.startswith("associativity") for m in got.violations)
    assert broken["associativity"] > 30 and broken["neutrality"] > 30 and failing > 60
    # the fallback reports the triples whose middle is a composite too
    cat = cyclic_with_composite_middle()
    middles = {int(m.split("(")[1].split(",")[1]) for m in validate_category(cat).violations}
    assert generating_set(cat) == [1] and middles - {1}


def test_validate_metric1_matches_weight_arithmetic():
    seen_fatal = seen_upper = seen_lower = seen_stray = 0
    for name, space in cases(103):
        got, want = validate_metric1(space), ref_validate_metric1(space)
        assert (got.fatal, got.violations) == (want.fatal, want.violations), name
        seen_fatal += bool(got.fatal)
        seen_upper += any("(upper)" in v for v in got.violations)
        seen_lower += any("(lower)" in v for v in got.violations)
        seen_stray += any("non-composable" in v for v in got.violations)
    assert seen_fatal and seen_upper and seen_lower and seen_stray


def test_arrow_calculus_matches_the_pair_scans():
    rng = random.Random(104)
    compared = 0
    for name, space in cases(104):
        cat = space.category
        if cat.structural_errors() or not total(cat):
            continue
        m = len(cat.arrows)
        for _ in range(6):
            e = frozenset(rng.sample(range(m), rng.randint(0, m)))
            e2 = frozenset(rng.sample(range(m), rng.randint(0, m)))
            assert arrow_star(cat, e) == ref_arrow_star(cat, e), name
            assert arrow_compose_sets(cat, e, e2) == ref_arrow_compose_sets(cat, e, e2), name
            compared += 1
    assert compared > 100


def test_arrow_calculus_matches_the_parent_bodies():
    """The scans that stop at a full result, and the star read from the
    arrows outside a large set holding every identity, against the bodies
    they replaced: random subsets, those with every identity added, the
    full arrow set and the full set less one arrow."""
    rng = random.Random(107)
    spaces = [sp for _, sp in cases(107) if not sp.category.structural_errors() and total(sp.category)]
    spaces += kernel_sized(rng)
    seen = Counter()
    for space in spaces:
        cat = space.category
        m, ids = len(cat.arrows), arrow_diagonal(cat)
        every = frozenset(range(m))
        subsets = [every, every - {rng.randrange(m)}]
        for _ in range(4):
            e = frozenset(rng.sample(range(m), rng.randint(0, m)))
            subsets += [e, e | ids]
        for e in subsets:
            e2 = rng.choice(subsets)
            star = arrow_star(cat, e)
            assert star == parent_arrow_star(cat, e)
            assert arrow_compose_sets(cat, e, e2) == parent_arrow_compose_sets(cat, e, e2)
            seen["outside" if 2 * len(e) > m and ids <= e else "members"] += 1
            seen["full"] += len(star) == m
    assert len(spaces) > 100 and min(seen.values()) > 300, seen


def test_bounded_generators_match_threshold_comparisons():
    for name, space in cases(105):
        gens = bounded_generators(space)
        sets, last = ref_bounded_sets(space)
        assert (list(gens.sets), gens.constant_from) == (sets, last), name


def wrong_composite(rng, cat) -> FiniteCategory:
    """The kernel benchmark's defect: the composite of one pair f: x -> y,
    g: y -> z (x != z, neither an identity) redirected to the identity of x."""
    idents = set(cat.identity.values())
    pairs = [
        (f, g) for f, g in ref_composable_pairs(cat)
        if f not in idents and g not in idents and cat.arrows[f].dom != cat.arrows[g].cod
    ]
    f, g = rng.choice(pairs)
    table = dict(cat.composition)
    table[(f, g)] = cat.identity[cat.arrows[f].dom]
    return with_table(cat, table)


def kernel_bimetric(rng, n: int) -> Metric1Space:
    """A bi-metric space drawn as the kernel benchmark draws them."""
    d = support.rand_metric(rng, n).d
    c = Fraction(rng.randint(0, 4), 2)
    low = min(d[x][y] for x in range(n) for y in range(n) if x != y)
    t1 = {(x, y): d[x][y] for x in range(n) for y in range(n) if x != y}
    t2 = {k: v + c for k, v in t1.items()}
    return bimetric_space(n, t1, t2, c + 2 * low * Fraction(rng.randint(0, 4), 4))


def kernel_chain(rng, n: int) -> Metric1Space:
    return support.chain_space([Fraction(rng.randint(1, 9), rng.choice((1, 2))) for _ in range(n - 1)])


def kernel_shaped(rng):
    """Indiscrete, bi-metric and chain spaces of the kernel benchmark's shapes
    and sizes, each also with one wrong composite."""
    spaces = [from_metric_space(support.rand_metric(rng, n)) for n in (3, 8, 12)]
    spaces += [kernel_bimetric(rng, n) for n in (3, 5)]
    spaces += [kernel_chain(rng, n) for n in (6, 10, 16)]
    return spaces + [Metric1Space(wrong_composite(rng, sp.category), sp.w) for sp in spaces]


def perturbed_weight(rng, space: Metric1Space) -> Metric1Space:
    """The kernel benchmark's other defect: one arrow between distinct
    objects raised by twice the largest weight and one."""
    cat, w = space.category, list(space.w)
    a = rng.choice([a.id for a in cat.arrows if a.dom != a.cod])
    w[a] = w[a] + Weight(2 * max(x.finite for x in w) + 1)
    return Metric1Space(cat, tuple(w))


def kernel_sized(rng):
    """The kernel benchmark's largest indiscrete spaces (20 and 30 objects),
    its bi-metric spaces (3 to 7 points) and its chains (6 to 16 objects),
    each also with one perturbed weight."""
    spaces = [from_metric_space(support.rand_metric(rng, n)) for n in (20, 30)]
    spaces += [kernel_bimetric(rng, n) for n in range(3, 8)]
    spaces += [kernel_chain(rng, n) for n in (6, 8, 10, 13, 16)]
    return spaces + [perturbed_weight(rng, sp) for sp in spaces]


def counted_stages(monkeypatch) -> list[int]:
    """Count the stages `metrize_chain` computes: each reads its generator
    set E_n once, while a stage may skip either star."""
    calls = [0]
    original = CoarseGenerators.at

    def counting(gens, n):
        calls[0] += 1
        return original(gens, n)

    monkeypatch.setattr(CoarseGenerators, "at", counting)
    return calls


def test_metrize_chain_matches_the_stage_by_stage_loop():
    rng = random.Random(106)
    spaces = kernel_shaped(rng) + [
        sp for _, sp in cases(106) if not sp.category.structural_errors() and total(sp.category)
    ]
    unfilled = infinite = 0
    for space in spaces:
        gens = bounded_generators(space)
        chain = metrize_chain(gens)
        assert chain == ref_metrize_chain(gens)
        assert metrize(gens).w == ref_metrize_weights(gens)
        again = bounded_generators(metrize(gens))
        assert metrize_chain(again) == ref_metrize_chain(again)
        unfilled += len(chain[-1]) < len(space.category.arrows)
        infinite += any(w.is_infinite for w in space.w)
    assert len(spaces) > 100 and unfilled and infinite


def test_metrize_chain_matches_the_stage_by_stage_loop_at_kernel_sizes():
    """Stages that stop once full and skip a star(E_n) inside F_n, on the
    kernel benchmark's sizes, and on the metrization of each."""
    compared = 0
    for space in kernel_sized(random.Random(108)):
        for gens in (bounded_generators(space), bounded_generators(metrize(bounded_generators(space)))):
            assert metrize_chain(gens) == ref_metrize_chain(gens)
            assert metrize(gens).w == ref_metrize_weights(gens)
            compared += 1
    assert compared == 48


def test_metrize_chain_exit_a_skips_the_stages_after_every_arrow_entered(monkeypatch):
    # points 0..8 on a line: the unit steps are in F_2, and star and
    # composition reach further by more than one unit a stage, so all 81
    # arrows are in F_4 while E_n goes constant only at 8
    gens = bounded_generators(support.line_space(range(9)))
    want = ref_metrize_chain(gens)
    full = next(i for i, s in enumerate(want) if len(s) == 81)
    assert (full, gens.constant_from, len(want)) == (4, 8, 9)
    calls = counted_stages(monkeypatch)
    assert metrize_chain(gens) == want
    assert calls[0] == full
    assert metrize(gens).w == ref_metrize_weights(gens)


def test_metrize_chain_exit_b_stops_when_a_stage_adds_nothing_over_top(monkeypatch):
    # E_n = identities and [0,1) throughout: F_1 = F_2 holds top, and [1,2)
    # and [0,2) never enter, so exit (a) cannot fire
    cat = support.chain_space([1, 1]).category
    top = arrow_diagonal(cat) | {cat.hom(0, 1)[0]}
    gens = CoarseGenerators(cat, (top,) * 6, 5)
    want = ref_metrize_chain(gens)
    assert len(want) == 6 and want[-1] == top
    calls = counted_stages(monkeypatch)
    assert metrize_chain(gens) == want
    assert calls[0] == 2  # F_1, then F_2 = F_1
    assert metrize(gens).w == ref_metrize_weights(gens)
    assert metrize(gens).w[cat.hom(1, 2)[0]].is_infinite


def test_metrize_chain_runs_on_when_a_stage_stalls_below_top():
    # on the chain 0 -> 1 -> 2, E_0 = E_1 = E_2 = identities and E_n adds
    # [0,1) from n = 3 on: F_1 = F_0 lies below top, and [0,1) still enters
    cat = support.chain_space([1, 1]).category
    ids = arrow_diagonal(cat)
    first = cat.hom(0, 1)[0]
    gens = CoarseGenerators(cat, (ids,) * 3 + (ids | {first},) * 3, 3)
    chain = metrize_chain(gens)
    assert chain[1] == chain[0] and not gens.top <= chain[0]
    assert chain == ref_metrize_chain(gens)
    assert metrize(gens).w == ref_metrize_weights(gens)
    assert metrize(gens).w[first] == Weight(4)


def test_metrize_chain_jumps_over_stages_that_repeat(monkeypatch):
    # two arrows of weight w: E_n holds the identities alone below w, so
    # F_1 = F_0 lies below top and the stage repeats until E_w grows
    small = bounded_generators(support.indiscrete_space([[0, 50], [50, 0]]))
    assert metrize_chain(small) == ref_metrize_chain(small)
    assert metrize(small).w == ref_metrize_weights(small)
    gens = bounded_generators(support.indiscrete_space([[0, 10**5], [10**5, 0]]))
    calls = counted_stages(monkeypatch)
    chain = metrize_chain(gens)
    assert calls[0] == 2  # F_1 = F_0, then F_{10^5 + 1} holds every arrow
    assert len(chain) == 10**5 + 2 and chain[10**5] == chain[0] and len(chain[-1]) == 4
    assert [w.to_json() for w in metrize(gens).w] == ["0", "100001", "100001", "0"]


def ci_metrize_spaces():
    """The 60-point indiscrete space and the 40-step chain of the CI step
    that pins metrization beyond the kernel sizes."""
    rng = random.Random(21)
    return [
        from_metric_space(support.rand_metric(rng, 60)),
        support.chain_space([Fraction(rng.randint(1, 9), rng.choice((1, 2))) for _ in range(40)]),
    ]


def test_coarse_roundtrip_check_matches_the_metrizing_round_trip():
    """The final set of the chain against the bounded generators of the
    metrization, compared by mutual domination."""
    rng = random.Random(109)
    spaces = [sp for _, sp in cases(109) if not sp.category.structural_errors() and total(sp.category)]
    spaces += kernel_shaped(rng) + kernel_sized(rng) + ci_metrize_spaces()
    spaces += [reweighted(rng, sp) for sp in spaces[:120]]
    verdicts, infinite, infinite_identity = Counter(), 0, 0
    for space in spaces:
        got = coarse_roundtrip_check(space)
        assert got == ref_coarse_roundtrip_check(space)
        verdicts[got] += 1
        infinite += any(w.is_infinite for w in space.w)
        infinite_identity += any(space.w[i].is_infinite for i in space.category.identity.values())
    assert verdicts[True] > 100 and verdicts[False] > 40 and infinite > 100, (verdicts, infinite)
    assert infinite_identity > 10, infinite_identity


def reweighted(rng, space: Metric1Space) -> Metric1Space:
    """The category of `space` with random weights in {0, ..., 5, inf} on
    every arrow, identities included: small, since the reference builds
    one generator set per integer up to the largest."""
    w = [Weight(None) if rng.random() < 0.3 else Weight(rng.randint(0, 5)) for _ in space.w]
    return Metric1Space(space.category, tuple(w))


def fixture_spaces(seed: int):
    rng = random.Random(seed)
    fixed = [
        support.z2_space(1), support.z2_space(0),
        support.indiscrete_space([[0, 0], [0, 0]]), support.indiscrete_space([[0, 1], [2, 0]]),
        support.free_arrow_space(0), support.free_arrow_space(1),
        support.parallel_pair_space(0, 1), support.chain_space([0, 2]), support.one_sided_space(),
    ]
    return fixed + [support.rand_space(rng) for _ in range(8)]


def functors_between(src, dst, limit):
    found = [f for f in enumerate_functors(src.category, dst.category) if validate_functor(f).ok]
    return found[:limit]


def test_backward_continuity_matches_the_first_leg_scans():
    spaces = fixture_spaces(106)
    rng = random.Random(106)
    pairs = [(a, b) for a in spaces for b in spaces if rng.random() < 0.25]
    verdicts = failures = 0
    for src, dst in pairs:
        for fun in functors_between(src, dst, 6):
            op = (opposite_functor(fun), opposite_space(src), opposite_space(dst))
            cat = src.category
            for a in cat.arrows:
                got = forward_continuous_at_arrow(*op, a.id)
                holds, _ = ref_backward_continuous_at_arrow(fun, src, dst, a.id)
                assert got.holds == holds
                verdicts += 1
                if not got.holds:
                    psi, rho = got.witness
                    assert psi == a.id
                    assert any(first == rho for first, _ in factorizations(src, psi))
                    assert src.w[rho] == ZERO and dst.w[fun.arr_map[rho]] > ZERO
                    failures += 1
            for x in range(len(cat.objects)):
                got = object_continuity(fun, src, dst, x, BACKWARD)
                assert (got.holds, got.witness) == ref_backward_object_continuity(fun, src, dst, x)
                assert got.kind == "backward-at-object"
                if not got.holds:
                    rho = got.witness[1]
                    assert cat.arrows[rho].dom == x
                    assert src.w[rho] == ZERO and dst.w[fun.arr_map[rho]] > ZERO
                    failures += 1
                verdicts += 1
    assert verdicts > 2000 and failures > 100


def test_backward_natural_contractions_match_the_backward_search():
    rng = random.Random(107)
    endofunctors = [(sp, f) for sp in fixture_spaces(107) for f in functors_between(sp, sp, 12)]
    for _ in range(30):
        sp, f, _ = support.rand_contraction(rng)
        endofunctors.append((sp, f))
    found = 0
    for sp, fun in endofunctors:
        got = find_natural_contractions(sp, fun, BACKWARD)
        assert got == ref_backward_natural_contractions(sp, fun)
        found += len(got)
    assert found > 80


# --- geometry: the exhaustive scans -------------------------------------------------

def ref_gh_correspondences(dx: list[list[int]], dy: list[list[int]]) -> int:
    """Minimal distortion over correspondences, in the integer scale.

    Scans pairs (f: X -> Y, g: Y -> X); the induced correspondence is
    graph(f) union transposed graph(g), and this family realises the
    minimum (see the `geometry` module docstring).
    """
    n, m = len(dx), len(dy)
    f_choices = []
    for f in itertools.product(range(m), repeat=n):
        dis_f = 0
        for i in range(n):
            for j in range(i + 1, n):
                dis_f = max(dis_f, abs(dx[i][j] - dy[f[i]][f[j]]))
        f_choices.append((dis_f, f))
    f_choices.sort()
    best = None
    for dis_f, f in f_choices:
        if best is not None and dis_f >= best:
            break
        for g in itertools.product(range(n), repeat=m):
            dis = dis_f
            if best is not None and dis >= best:
                continue
            for j in range(m):
                for j2 in range(j + 1, m):
                    dis = max(dis, abs(dx[g[j]][g[j2]] - dy[j][j2]))
            for i in range(n):
                for j in range(m):
                    dis = max(dis, abs(dx[i][g[j]] - dy[f[i]][j]))
            if best is None or dis < best:
                best = dis
    if best is None:
        raise TheoremViolation("no correspondence between non-empty spaces was scanned")
    return best


def ref_grid(dx: list[list[int]], dy: list[list[int]]):
    """Shortest distances between the cells (x, y) = x * m + y of the grid,
    by Floyd-Warshall over its edges, and the lower-bound constraints
    (p, q, v): r_p + r_q >= v."""
    n, m = len(dx), len(dy)
    cells = n * m

    def cell(x: int, y: int) -> int:
        return x * m + y

    big = max(max(max(r) for r in dx), max(max(r) for r in dy), 0) * (cells + 1) + 1
    sp = [[big] * cells for _ in range(cells)]
    for x in range(n):
        for y in range(m):
            sp[cell(x, y)][cell(x, y)] = 0
    for y in range(m):
        for x in range(n):
            for x2 in range(n):
                if x != x2:
                    sp[cell(x, y)][cell(x2, y)] = dx[x][x2]
    for x in range(n):
        for y in range(m):
            for y2 in range(m):
                if y != y2:
                    c1, c2 = cell(x, y), cell(x, y2)
                    sp[c1][c2] = min(sp[c1][c2], dy[y][y2])
    for k in range(cells):
        spk = sp[k]
        for i in range(cells):
            dik = sp[i][k]
            row = sp[i]
            for j in range(cells):
                via = dik + spk[j]
                if via < row[j]:
                    row[j] = via

    # lower-bound constraints (p, q, v): r_p + r_q >= v
    lower: list[tuple[int, int, int]] = []
    for y in range(m):
        for x in range(n):
            for x2 in range(x + 1, n):
                lower.append((cell(x, y), cell(x2, y), dx[x][x2]))
    for x in range(n):
        for y in range(m):
            for y2 in range(y + 1, m):
                lower.append((cell(x, y), cell(x, y2), dy[y][y2]))
    return sp, lower


def ref_pattern_value(dx: list[list[int]], dy: list[list[int]], designated) -> Fraction:
    """h* of the pattern that designates the cells (x, y), in the integer
    scale: max(0, max over lower triangles (v - sp(D, p) - sp(D, q)) / 2)."""
    m = len(dy)
    sp, lower = ref_grid(dx, dy)
    near = [min(sp[x * m + y][p] for x, y in designated) for p in range(len(sp))]
    return Fraction(max([0, *(v - near[p] - near[q] for p, q, v in lower)]), 2)


def ref_gh_gluings(dx: list[list[int]], dy: list[list[int]]) -> Fraction:
    """Infimum of the Hausdorff distance over semimetric gluings, in the
    integer scale, via the per-pattern closed form explained in the
    `geometry` module docstring.  Returns the exact optimum (possibly half-integral)."""
    n, m = len(dx), len(dy)
    cells = n * m
    sp, lower = ref_grid(dx, dy)

    def cell(x: int, y: int) -> int:
        return x * m + y

    # designated-set shortest distances, partial per f and per g
    f_rows = []
    for f in itertools.product(range(m), repeat=n):
        row = [min(sp[cell(x, f[x])][p] for x in range(n)) for p in range(cells)]
        f_rows.append(row)
    g_rows = []
    for g in itertools.product(range(n), repeat=m):
        row = [min(sp[cell(g[y], y)][p] for y in range(m)) for p in range(cells)]
        g_rows.append(row)

    best2 = None  # twice the optimal h, integer scale
    for frow in f_rows:
        for grow in g_rows:
            worst = 0
            for p, q, v in lower:
                slack = v - min(frow[p], grow[p]) - min(frow[q], grow[q])
                if slack > worst:
                    worst = slack
                    if best2 is not None and worst >= best2:
                        break
            if best2 is None or worst < best2:
                best2 = worst
    if best2 is None:
        raise TheoremViolation("no gluing pattern between non-empty spaces was scanned")
    return Fraction(best2, 2)


def ref_lipschitz_distance(x, y) -> Fraction:
    return bilip_slice([x, y]).lawvere_factor(0, 1)


def permuted(space, rng):
    order = list(range(len(space.points)))
    rng.shuffle(order)
    return FiniteMetricSpace.from_matrix(
        [space.points[i] for i in order], [[space.d[i][j] for j in order] for i in order]
    )


def equilateral(n, c):
    return FiniteMetricSpace.from_matrix(
        [f"e{i}" for i in range(n)], [[0 if i == j else c for j in range(n)] for i in range(n)]
    )


def mixed_line(rng, n):
    """Points on the line at rationals over denominators up to 7."""
    coords = set()
    while len(coords) < n:
        coords.add(Fraction(rng.randint(0, 30), rng.choice((1, 2, 3, 5, 7))))
    return line_metric(sorted(coords))


def int_metric(rng, n, top):
    """Integer distances up to `top`, repaired to a metric: many exact ties
    and unit gaps between the values of different patterns."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = rng.randint(1, top)
    return FiniteMetricSpace.from_matrix([f"p{i}" for i in range(n)], shortest_path_repair(m))


# (seed, top) of 4-point integer pairs, found by a seeded search, whose
# value lies below every onto pattern: the scans, their cut-offs and the
# diameter bound decide it (the first one reaches the bound)
SCAN_DECIDED = [(10, 8), (20, 6), (29, 3)]


def scan_decided_pairs():
    out = []
    for seed, top in SCAN_DECIDED:
        rng = random.Random(seed)
        out.append((int_metric(rng, 4, top), int_metric(rng, 4, top)))
    return out


def geometry_pairs(seed, sizes):
    """(x, y) pairs for each size pair: random spaces, points on the line
    at mixed denominators, all-equal distances (many ties) against each
    other and against a random space, and an isometric copy with its points
    permuted when the sizes agree."""
    rng = random.Random(seed)
    pairs = []
    for n, m in sizes:
        pairs.append((support.rand_metric(rng, n), support.rand_metric(rng, m)))
        pairs.append((mixed_line(rng, n), mixed_line(rng, m)))
        pairs.append((equilateral(n, 2), equilateral(m, rng.choice((2, Fraction(7, 3))))))
        pairs.append((equilateral(n, 3), support.rand_metric(rng, m, 4)))
        if n == m:
            x = support.rand_metric(rng, n)
            pairs.append((x, permuted(x, rng)))
    return pairs


def test_gh_routes_match_the_exhaustive_scans():
    sizes = [(n, m) for n in range(1, 5) for m in range(1, 5)]
    values = set()
    for x, y in geometry_pairs(108, sizes) + scan_decided_pairs():
        scale = math.lcm(x.scale, y.scale)
        dx, dy = x.scaled(scale), y.scaled(scale)
        distortion, _ = _gh_correspondences(dx, dy)
        assert distortion == ref_gh_correspondences(dx, dy), (x, y)
        assert _gh_gluings(dx, dy) == ref_gh_gluings(dx, dy), (x, y)
        assert gh_distance(x, y) == Fraction(distortion, 2 * scale)
        values.add(Fraction(distortion, 2 * scale))
    assert len(values) > 20


def test_eccentricity_floor_never_exceeds_the_correspondence_value():
    sizes = [(n, m) for n in range(1, 5) for m in range(1, 5)]
    raised = 0
    for x, y in geometry_pairs(110, sizes) + scan_decided_pairs():
        scale = math.lcm(x.scale, y.scale)
        dx, dy = x.scaled(scale), y.scaled(scale)
        floor = _eccentricity_floor([max(row) for row in dx], [max(row) for row in dy])
        assert floor <= ref_gh_correspondences(dx, dy), (x, y)
        raised += floor > abs(max(map(max, dx)) - max(map(max, dy)))
    assert raised > 10  # the floor often lies above the diameter bound


def ref_distortion(dx, dy, cells) -> int:
    """dis R of the correspondence R with the given cells (x, y)."""
    return max(abs(dx[x][x2] - dy[y][y2]) for x, y in cells for x2, y2 in cells)


def test_correspondence_witness_attains_the_correspondence_value():
    # the witness is a correspondence of distortion d, and the gluing
    # pattern designating its cells has 2 h* = d (Burago-Burago-Ivanov,
    # Thm 7.3.25, gives 2 h* <= dis R; the gluing minimum is d)
    sizes = [(n, m) for n in range(1, 6) for m in range(1, 6)]
    pairs = geometry_pairs(112, sizes) + scan_decided_pairs()
    isometric = 0
    for x, y in pairs:
        scale = math.lcm(x.scale, y.scale)
        dx, dy = x.scaled(scale), y.scaled(scale)
        d, cells = _gh_correspondences(dx, dy)
        assert {a for a, _ in cells} == set(range(len(dx))), (x, y, cells)
        assert {b for _, b in cells} == set(range(len(dy))), (x, y, cells)
        assert ref_distortion(dx, dy, cells) == d, (x, y, cells)
        assert ref_pattern_value(dx, dy, cells) == Fraction(d, 2), (x, y, cells)
        isometric += d == 0 and len(dx) > 1
    assert len(pairs) > 100 and isometric >= 5


def random_correspondence(rng, n, m):
    """graph(f) union transposed graph(g) for random f and g, with a few
    random cells added."""
    cells = {(x, rng.randrange(m)) for x in range(n)} | {(rng.randrange(n), y) for y in range(m)}
    cells |= {(rng.randrange(n), rng.randrange(m)) for _ in range(rng.randint(0, 3))}
    return tuple(cells)


def test_gluing_route_started_from_any_correspondence():
    # the start only sets the first incumbent: from the witness, from
    # random correspondences and from the whole grid the route returns the
    # exhaustive minimum, also when the start lies above it
    rng = random.Random(111)
    sizes = [(n, m) for n in range(1, 5) for m in range(1, 5)]
    above = 0
    for x, y in geometry_pairs(111, sizes) + scan_decided_pairs():
        scale = math.lcm(x.scale, y.scale)
        dx, dy = x.scaled(scale), y.scaled(scale)
        n, m = len(dx), len(dy)
        value = ref_gh_gluings(dx, dy)
        assert _gh_gluings(dx, dy) == value, (x, y)
        starts = [_gh_correspondences(dx, dy)[1], tuple(itertools.product(range(n), range(m)))]
        starts += [random_correspondence(rng, n, m) for _ in range(4)]
        for start in starts:
            assert _gh_gluings(dx, dy, start=start) == value, (x, y, start)
            above += ref_pattern_value(dx, dy, start) > value
        if n > 1:
            with pytest.raises(TheoremViolation, match="not a correspondence"):
                _gh_gluings(dx, dy, start=[(0, y) for y in range(m)])
    assert above > 100


def test_gh_and_lipschitz_values_of_seeded_pairs_are_pinned():
    # digest of the 480 values computed before the eccentricity bound and
    # the capped gluing route
    values = []
    for seed in range(400):
        rng = random.Random(seed)
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        x, y = support.rand_metric(rng, a), support.rand_metric(rng, b)
        values.append(gh_distance(x, y))
        if a == b:
            values.append(lipschitz_distance(x, y))
    assert len(values) == 480
    digest = hashlib.sha256(" ".join(map(str, values)).encode()).hexdigest()
    assert digest.startswith("d8e41c1e7fa57b61")


def test_lipschitz_branch_and_bound_matches_the_slice():
    sizes = [(n, n) for n in range(1, 6)]
    values = set()
    for x, y in geometry_pairs(109, sizes) + scan_decided_pairs():
        value = lipschitz_distance(x, y)
        assert value == ref_lipschitz_distance(x, y), (x, y)
        values.add(value)
    assert len(values) > 8


def test_gh_5x5_value_is_pinned():
    # computed once with the exhaustive scans above (about 210 s on a 2-CPU host)
    rng = random.Random(56)
    x, y = support.rand_metric(rng, 5), support.rand_metric(rng, 5)
    assert gh_distance(x, y) == Fraction(13, 6)


@pytest.mark.parametrize("seed, n, m, value", [
    (61, 6, 6, Fraction(5, 3)),
    (62, 6, 6, Fraction(13, 6)),
    (63, 6, 6, Fraction(2, 3)),
    (64, 4, 6, Fraction(3, 2)),
])
def test_gh_values_past_the_exhaustive_scans_are_pinned(seed, n, m, value):
    # computed once with the searches that bounded only complete half maps
    # (about 5 s per 6x6 pair on a 2-CPU host)
    rng = random.Random(seed)
    x, y = support.rand_metric(rng, n), support.rand_metric(rng, m)
    assert gh_distance(x, y) == value


# --- functor-shaped searches: the hand-written loops ----------------------------


def ref_enumerate_functors(
    source: FiniteCategory, target: FiniteCategory, guard: int = 500_000
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


def ref_enumerate_transformations(
    F: Functor, G: Functor, guard: int = 500_000
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


def ref_find_natural_contractions(
    space: Metric1Space, fun: Functor, direction: str = FORWARD, guard: int = 200_000
) -> list[NaturalContraction]:
    """Exhaustive search over per-object component choices, filtered by
    naturality and the coherence law, in lexicographic order.  Backward
    contractions are the forward ones of the opposite functor."""
    if is_backward(direction):
        found = ref_find_natural_contractions(opposite_space(space), opposite_functor(fun), FORWARD, guard)
        return [NaturalContraction(BACKWARD, fun, nc.components) for nc in found]
    cat = space.category
    n = len(cat.objects)
    pools = []
    total = 1
    for x in range(n):
        pool = cat.hom(x, fun.obj_map[x])
        pools.append(pool)
        total *= max(1, len(pool))
        if total > guard:
            raise SizeGuardError(f"natural-contraction search would try {total}+ candidates")
        if not pool:
            return []

    out: list[NaturalContraction] = []

    def naturality_ok(comps: list[int], upto: int) -> bool:
        for a in cat.arrows:
            if a.dom < upto and a.cod < upto:
                left = cat.compose(comps[a.dom], fun.arr_map[a.id])
                right = cat.compose(a.id, comps[a.cod])
                if left != right:
                    return False
        return True

    def rec(x: int, comps: list[int]):
        if x == n:
            if all(fun.arr_map[comps[c]] == comps[fun.obj_map[c]] for c in range(n)):
                out.append(NaturalContraction(FORWARD, fun, tuple(comps)))
            return
        for c in pools[x]:
            comps.append(c)
            if naturality_ok(comps, x + 1):
                rec(x + 1, comps)
            comps.pop()

    rec(0, [])
    ident = identity_functor(fun.source)
    for nc in out:
        rep = validate_transformation(NatTransformation(ident, fun, dict(enumerate(nc.components))))
        if not rep.ok:
            raise TheoremViolation("enumerated contraction failed validation: " + rep.summary())
    return out


def ref_enumerate_daggers(space: Metric1Space, guard: int = 100_000) -> list[Dagger]:
    """All valid daggers, in deterministic order.

    Candidates pair hom(x, y) with hom(y, x) bijectively (an involution can
    do nothing else) and restrict to involutions fixing the identity on the
    diagonal hom-sets; contravariance is then checked exhaustively.
    """
    cat = space.category
    n = len(cat.objects)
    m = len(cat.arrows)

    blocks: list[list[dict[int, int]]] = []
    total = 1
    for x in range(n):
        for y in range(x, n):
            fwd = cat.hom(x, y)
            bwd = cat.hom(y, x)
            if x == y:
                ident = cat.identity[x]
                rest = [a for a in fwd if a != ident]
                choices = []
                for pairing in _involutions(rest):
                    table = dict(pairing)
                    table[ident] = ident
                    choices.append(table)
            else:
                if len(fwd) != len(bwd):
                    return []
                choices = []
                for perm in itertools.permutations(bwd):
                    table = {a: b for a, b in zip(fwd, perm)}
                    table.update({b: a for a, b in zip(fwd, perm)})
                    choices.append(table)
            if not choices:
                return []
            blocks.append(choices)
            total *= len(choices)
            if total > guard:
                raise SizeGuardError(
                    f"dagger enumeration would try {total}+ candidates (budget {guard})"
                )

    found = []
    for combo in itertools.product(*blocks):
        table: dict[int, int] = {}
        for block in combo:
            table.update(block)
        dag = Dagger(tuple(table[a] for a in range(m)))
        if checked_dagger(space, dag):
            found.append(dag)
    return found


def ref_validate_dagger(space: Metric1Space, dag: Dagger) -> ValidationReport:
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
    after, mapping = cat.after, dag.mapping
    for f, row in enumerate(after):
        for g, h in row.items():
            # (g after f)^dagger == f^dagger after g^dagger
            if mapping[h] != after[mapping[g]][mapping[f]]:
                out.append(f"contravariance fails on pair ({f},{g})")
    return report


def checked_dagger(space: Metric1Space, dag: Dagger) -> bool:
    """Whether `dag` is a dagger of the space, once `validate_dagger` (the
    functor laws into the opposite, then the involution) and the three-law
    scan agree on it."""
    ok = ref_validate_dagger(space, dag).ok
    assert validate_dagger(space, dag).ok == ok, (space, dag)
    return ok


def _involutions(elements: list[int]) -> list[dict[int, int]]:
    """All involutive self-pairings of a list (fixed points allowed)."""
    if not elements:
        return [{}]
    first, rest = elements[0], elements[1:]
    out = []
    for sub in _involutions(rest):
        fixed = dict(sub)
        fixed[first] = first
        out.append(fixed)
    for i, other in enumerate(rest):
        remaining = rest[:i] + rest[i + 1 :]
        for sub in _involutions(remaining):
            d = dict(sub)
            d[first] = other
            d[other] = first
            out.append(d)
    return out


def search_spaces(seed: int):
    rng = random.Random(seed)
    return fixture_spaces(seed) + [support.rand_space(rng) for _ in range(60)]


def test_functor_and_transformation_searches_match_the_loops():
    spaces = search_spaces(108)
    lists = functors = transformations = 0
    # each space into itself and into the next one
    for src, dst in [(sp, sp) for sp in spaces] + list(zip(spaces, spaces[1:])):
        got = enumerate_functors(src.category, dst.category)
        assert got == ref_enumerate_functors(src.category, dst.category)
        lists += 1
        functors += len(got)
        for F in got[:5]:
            for G in got[:5]:
                found = enumerate_transformations(F, G)
                assert found == ref_enumerate_transformations(F, G)
                lists += 1
                transformations += len(found)
    assert lists > 2000 and functors > 1000 and transformations > 2000


def test_natural_contraction_search_matches_the_loops():
    rng = random.Random(109)
    endofunctors = [(sp, f) for sp in search_spaces(109) for f in enumerate_functors(sp.category, sp.category)]
    for _ in range(40):
        sp, f, _ = support.rand_contraction(rng)
        endofunctors.append((sp, f))
    lists = found = 0
    for sp, fun in endofunctors:
        for direction in (FORWARD, BACKWARD):
            got = find_natural_contractions(sp, fun, direction)
            assert got == ref_find_natural_contractions(sp, fun, direction)
            lists += 1
            found += len(got)
    assert lists > 1500 and found > 1200


def test_dagger_search_matches_the_candidate_product():
    spaces = search_spaces(110) + [
        make(k) for k in range(4, 12) for make in (support.max_monoid_space, support.null_product_space)
    ] + [support.cyclic_groupoid_space(n, m) for n, m in ((1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 3))]
    with_daggers = 0
    for sp in spaces:
        got = enumerate_daggers(sp)
        assert got == ref_enumerate_daggers(sp)
        with_daggers += bool(got)
    assert with_daggers > 60


def test_dagger_check_matches_the_three_law_scan_off_the_candidates():
    """Arrow maps the candidate product never tries: random ones, ones that
    swap every arrow's endpoints, and tables of the wrong length or naming
    a missing arrow."""
    rng = random.Random(112)
    seen = Counter()
    for sp in search_spaces(112):
        cat = sp.category
        m = len(cat.arrows)
        swapping = [cat.hom(a.cod, a.dom) for a in cat.arrows]
        maps = [tuple(rng.randrange(m) for _ in range(m)) for _ in range(10)]
        if all(swapping):
            maps += [tuple(map(rng.choice, swapping)) for _ in range(30)]
        maps += [tuple(range(m - 1)), tuple(range(m + 1)), (m, *range(1, m)), (-1, *range(1, m))]
        for mapping in maps:
            seen[checked_dagger(sp, Dagger(mapping))] += 1
    assert seen[True] > 20 and seen[False] > 1000, seen


def test_mapping_space_composes_like_vertical_compose():
    spaces = fixture_spaces(111)[:9]
    composites = 0
    for X in spaces[:5]:
        for Y in spaces:
            ms = mapping_space(X, Y)
            ts = ms.transformations
            for (a, b), c in ms.space.category.composition.items():
                assert vertical_compose(ts[a], ts[b]) == ts[c]
                composites += 1
    assert composites > 500


# --- the search plan: the engine with per-call check attachment --------------------


def ref_backtrack(domains, checks, guard, what: str):
    """`fincat.backtrack` as it was before it took a plan (kept verbatim):
    a check is a pair ``(reads, predicate)``, attached on every call to the
    last variable it reads with ``max(reads)``, and the assignments are
    yielded one by one."""
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
            for predicate in here:
                if not predicate(values):
                    break
            else:
                break  # every check passed: the value stays
        else:
            i -= 1
            continue
        if i + 1 == n:
            yield tuple(values)
        else:
            i += 1
            candidates[i] = iter(domains[i](values))
    budget.spend(nodes, what, "search nodes")


def ref_composition_checks(source, after, var) -> list:
    checks = []
    for f, row in enumerate(source.after):
        for g, h in row.items():
            fv, gv, hv = var[f], var[g], var[h]
            checks.append(((fv, gv, hv), lambda v, f=fv, g=gv, h=hv: after[v[f]][v[g]] == v[h]))
    return checks


def ref_search_functors(source, target, guard=None) -> list[Functor]:
    n = len(source.objects)
    objects = range(len(target.objects))
    forced = {source.identity[x]: x for x in range(n)}
    domains = [lambda values: objects] * n
    for a in source.arrows:
        if a.id in forced:
            domains.append(lambda values, x=forced[a.id]: (target.identity[values[x]],))
        else:
            domains.append(lambda values, x=a.dom, y=a.cod: target.hom(values[x], values[y]))
    checks = ref_composition_checks(source, target.after, range(n, n + len(source.arrows)))
    return [
        Functor(source, target, dict(enumerate(values[:n])), dict(enumerate(values[n:])))
        for values in ref_backtrack(domains, checks, guard, "functor enumeration")
    ]


def ref_search_transformations(F, G, guard=None) -> list[NatTransformation]:
    return [NatTransformation(F, G, dict(enumerate(components)))
            for components in ref_backtrack(*ref_naturality_search(F, G), guard,
                                            "transformation enumeration")]


def ref_search_natural_contractions(space, fun, guard=None) -> list[NaturalContraction]:
    """Forward natural contractions, as `find_natural_contractions` found them."""
    ident = identity_functor(space.category)
    domains, checks = ref_naturality_search(ident, fun)
    for x, fx in fun.obj_map.items():
        checks.append(((x, fx), lambda v, x=x, fx=fx: fun.arr_map[v[x]] == v[fx]))
    out = [NaturalContraction(FORWARD, fun, components)
           for components in ref_backtrack(domains, checks, guard, "natural-contraction search")]
    for nc in out:
        t = NatTransformation(ident, fun, dict(enumerate(nc.components)))
        validate_transformation(t).require_ok("enumerated contraction")
    return out


def ref_search_daggers(space, guard=None) -> list[Dagger]:
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

    checks = ref_composition_checks(cat, opposite(cat).after, pos)
    found = []
    for values in ref_backtrack([domain(a) for a in order], checks, guard, "dagger search"):
        dag = Dagger(tuple(values[pos[a]] for a in range(len(cat.arrows))))
        validate_dagger(space, dag).require_ok("enumerated dagger")
        found.append(dag)
    return found


def searched(search, *args, guard=None):
    """A search's result and the budget it used, or its refusal."""
    budget = Budget(guard)
    try:
        return search(*args, budget), budget.used
    except SizeGuardError as exc:
        return "refused", str(exc)


def test_searches_on_a_plan_match_the_engine_that_attaches_checks_per_call():
    """The four functor-shaped searches on a plan built once per source give
    the lists, the budget use and the refusals of the same searches on the
    engine that attached each check with ``max(reads)`` on every call: with
    the default budget, at exactly the nodes a search visits, one node
    short and at half of them."""
    rng = random.Random(116)
    spaces = fixture_spaces(116) + [support.rand_space(rng) for _ in range(40)]
    spaces += [support.max_monoid_space(6), support.null_product_space(5),
               support.cyclic_groupoid_space(2, 3)]
    calls = Counter()

    def agree(search, ref, *args):
        got = searched(search, *args)
        assert got == searched(ref, *args)
        if got[0] != "refused" and got[1] > 0:
            for guard in {got[1], got[1] - 1, got[1] // 2}:
                assert searched(search, *args, guard=guard) == searched(ref, *args, guard=guard), guard
                calls["refused"] += guard < got[1]
        calls[search.__name__] += 1

    def find_forward(space, fun, guard):
        return find_natural_contractions(space, fun, FORWARD, guard)

    for X, Y in [(sp, sp) for sp in spaces] + list(zip(spaces, spaces[1:])):
        agree(enumerate_functors, ref_search_functors, X.category, Y.category)
        funs = enumerate_functors(X.category, Y.category)[:4]
        for F in funs:
            for G in funs:
                agree(enumerate_transformations, ref_search_transformations, F, G)
    for sp in spaces:
        agree(enumerate_daggers, ref_search_daggers, sp)
        for fun in enumerate_functors(sp.category, sp.category)[:6]:
            agree(find_forward, ref_search_natural_contractions, sp, fun)
    assert calls["enumerate_functors"] > 90 and calls["enumerate_transformations"] > 900, calls
    assert calls["enumerate_daggers"] > 50 and calls["find_forward"] > 150, calls
    assert calls["refused"] > 1000, calls


# --- [X, Y]: the pair-by-pair build ------------------------------------------------


def ref_naturality_search(F, G):
    dst = F.target
    domains = [
        lambda values, fx=F.obj_map[x], gx=G.obj_map[x]: dst.hom(fx, gx)
        for x in range(len(F.source.objects))
    ]
    after = dst.after
    checks = [
        ((a.dom, a.cod),
         lambda v, x=a.dom, y=a.cod, fa=F.arr_map[a.id], ga=G.arr_map[a.id]:
             after[v[x]][ga] == after[fa][v[y]])
        for a in F.source.arrows
    ]
    return domains, checks


def ref_mapping_space(X, Y, guard=None):
    """[X, Y] as built before the searches shared their parts (kept
    verbatim): fresh closures and one `validate_transformation` per pair of
    functors, the arrows and composition entries charged once every search
    is done, one tuple key per composition entry and `nat_weight` per
    arrow."""
    budget = Budget.of(guard)
    funs = []
    for f in enumerate_functors(X.category, Y.category, budget):
        validate_functor(f).require_ok("enumerated functor")
        if uniformly_continuous(f, X, Y).holds:
            funs.append(f)
    transformations = []
    arrow_meta = []
    for i, F in enumerate(funs):
        for j, G in enumerate(funs):
            for components in ref_backtrack(*ref_naturality_search(F, G), budget,
                                            "transformation enumeration"):
                t = NatTransformation(F, G, dict(enumerate(components)))
                validate_transformation(t).require_ok("enumerated transformation")
                transformations.append(t)
                arrow_meta.append((i, j))

    into, out = Counter(j for _, j in arrow_meta), Counter(i for i, _ in arrow_meta)
    budget.spend(len(arrow_meta), "mapping space [X, Y]", "arrows")
    budget.spend(sum(into[j] * out[j] for j in into), "mapping space [X, Y]", "composition entries")
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
    cat = FiniteCategory(objs, arrs, identity, [], {})
    out_of, after = cat.adjacency.out, cat.after
    y_after, getitem = Y.category.after, dict.__getitem__
    for a, row_a in enumerate(rows):
        i, j = arrow_meta[a]
        cols = [y_after[c] for c in row_a]
        after_a = {}
        for b in out_of.get(j, ()):
            c = key_to_id.get((i, arrow_meta[b][1], tuple(map(getitem, cols, rows[b]))))
            if c is None:
                raise TheoremViolation(
                    f"vertical composite of transformations {a} and {b} is not natural"
                )
            after_a[b] = c
        after.append(after_a)
    weights = tuple(nat_weight(t, Y) for t in transformations)
    return mapping.MappingSpace(Metric1Space(cat, weights), funs, transformations, X, Y)


def built(build, X, Y, guard=None):
    """What a build of [X, Y] hands over, with the budget it used; or its
    refusal or theorem violation."""
    budget = Budget(guard)
    try:
        ms = build(X, Y, budget)
    except SizeGuardError:
        return "refused"
    except TheoremViolation as exc:
        return str(exc)
    cat, ts = ms.space.category, ms.transformations
    assert all(w == nat_weight(t, Y) for w, t in zip(ms.space.w, ts))
    return (cat.after, cat.identity, cat.side, [(a.id, a.dom, a.cod) for a in cat.arrows],
            [(t.F.key(), t.G.key(), t.components) for t in ts], ms.space.w, budget.used)


def test_mapping_space_matches_the_pair_by_pair_build():
    rng = random.Random(114)
    spaces = fixture_spaces(114)
    pairs = [(X, Y) for X in spaces for Y in spaces if rng.random() < 0.3]
    pairs += [(support.rand_space(rng), support.rand_space(rng)) for _ in range(20)]
    arrows = 0
    for X, Y in pairs:
        got = built(mapping_space, X, Y)
        assert got == built(ref_mapping_space, X, Y)
        arrows += len(got[3])
    assert len(pairs) > 90 and arrows > 1500
    # indiscrete 3 -> 3: 729 arrows, and the same guards refuse it
    X = support.indiscrete_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    Y = support.indiscrete_space([[0, 3, 1], [3, 0, 2], [1, 2, 0]])
    for guard in (None, 1000, 5000, 22880, 22881):
        got = built(mapping_space, X, Y, guard)
        assert got == built(ref_mapping_space, X, Y, guard), guard
        assert (got == "refused") == (guard == 1000 or guard == 5000 or guard == 22880), guard
    assert len(built(mapping_space, X, Y)[3]) == 729


def test_a_corrupted_target_row_fails_as_in_the_pair_by_pair_build():
    """Every composite in the rows of two targets moved to another arrow of
    its hom-set: the functor search, the transformation searches and the
    fill all read the corrupted rows, and the new build ends as the old one
    does.  Some corruptions leave a vertical composite that no enumerated
    transformation matches, which raises TheoremViolation."""
    sources = fixture_spaces(115)[:5]
    raised = 0
    for Y in (support.one_sided_space(), support.parallel_pair_space(0, 1)):
        cat = Y.category
        for f, row in enumerate(cat.after):
            for g, h in row.items():
                for moved in cat.hom(cat.arrows[f].dom, cat.arrows[g].cod):
                    if moved == h:
                        continue
                    rows = [dict(r) for r in cat.after]
                    rows[f][g] = moved
                    bad = Metric1Space(FiniteCategory(cat.objects, cat.arrows, cat.identity, rows, {}), Y.w)
                    for X in sources:
                        got = built(mapping_space, X, bad)
                        assert got == built(ref_mapping_space, X, bad)
                        raised += isinstance(got, str) and "is not natural" in got
    assert raised > 10


# --- limits: one body per kind of description --------------------------------------

def ref_partial_compositions(space: Metric1Space, series: ForwardSeries) -> ForwardSequence:
    """The sequence n -> (entry n after ... after entry 0).

    In a finite category the accumulated arrows must eventually cycle:
    the pair (position inside the series' period, accumulated arrow) ranges
    over a finite set.
    """
    cat = space.category
    arr = series.arrows
    require_series(space, series, arr.stable_from + arr.cycle + 1 if arr.is_exact else arr.horizon)
    if not arr.is_exact:
        accs = []
        acc = None
        for n in range(arr.horizon):
            a = arr.at(n)
            acc = a if acc is None else cat.compose(acc, a)
            accs.append(acc)
        base = cat.arrows[arr.at(0)].dom
        return ForwardSequence(base, BoundedDescription(tuple(accs)))

    base_len = arr.stable_from
    accs: list[int] = []
    seen: dict[tuple[int, int], int] = {}
    acc = None
    n = 0
    while True:
        a = arr.at(n)
        acc = a if acc is None else cat.compose(acc, a)
        accs.append(acc)
        nxt = n + 1
        if nxt >= base_len:
            state = ((nxt - base_len) % arr.cycle, acc)
            if state in seen:
                j = seen[state]
                desc = EventuallyPeriodic(tuple(accs[: j + 1]), tuple(accs[j + 1 :]))
                base = cat.arrows[arr.at(0)].dom
                return ForwardSequence(base, desc)
            seen[state] = n
        n += 1


def ref_check_cauchy(space: Metric1Space, series: ForwardSeries) -> LimitCertificate:
    """Exact Cauchy decision for eventually periodic series.

    The occurring weights form a finite set, so "for every epsilon" forces
    every window composition (entry n after ... after entry m, n > m) past
    some N to weigh exactly 0.  Window behaviour from index m depends only
    on m's position in the period once m is past the preperiod, and every
    position recurs beyond every N, so the series is Cauchy iff every start
    position only generates weight-0 windows.
    """
    cat = space.category
    arr = series.arrows
    require_series(space, series, arr.stable_from + arr.cycle + 1 if arr.is_exact else arr.horizon)
    if not arr.is_exact:
        bad = None
        for m in range(arr.horizon):
            acc = arr.at(m)
            for n in range(m + 1, arr.horizon):
                acc = cat.compose(acc, arr.at(n))
                if space.w[acc] != ZERO:
                    bad = (m, n)
                    break
            if bad:
                break
        detail = (
            f"window ({bad[0]},{bad[1]}) weighs nonzero within the horizon"
            if bad
            else f"all windows within horizon {arr.horizon} weigh 0"
        )
        return LimitCertificate(TO_HORIZON, detail=detail)

    base_len = arr.stable_from
    for p in range(arr.cycle):
        m = base_len + p
        acc = arr.at(m)
        seen: set[tuple[int, int]] = set()
        n = m
        while True:
            n += 1
            acc = cat.compose(acc, arr.at(n))
            if space.w[acc] != ZERO:
                return LimitCertificate(
                    EXACT_NO, witness_index=m,
                    detail=f"window ({m},{n}) weighs {space.w[acc]}; its start position recurs forever",
                )
            state = ((n + 1 - base_len) % arr.cycle, acc)
            if state in seen:
                break
            seen.add(state)
    return LimitCertificate(EXACT_YES, detail="every window past the preperiod weighs 0")


def ref_truncate_series(series: ForwardSeries, k: int) -> ForwardSeries:
    """The shifted series n -> entry n + k."""
    if k < 0:
        raise PreconditionError("truncation index must be non-negative")
    if not series.arrows.is_exact:
        return ForwardSeries(BoundedDescription(series.arrows.entries[k:]))
    return ForwardSeries(series.arrows.drop(k))


def ref_truncate_cone(cone: EssentialCone, k: int) -> EssentialCone:
    """Legs from index k re-indexed to certify the k-truncated series."""
    if not cone.legs.is_exact:
        return EssentialCone(cone.start_index, cone.apex, BoundedDescription(cone.legs.entries[k:]))
    return EssentialCone(cone.start_index, cone.apex, cone.legs.drop(k))


def ref_find_mediating_arrows(
    space: Metric1Space,
    seq: ForwardSequence,
    cone_a: EssentialCone,
    cone_b: EssentialCone,
) -> tuple[int, ...]:
    """Arrows apex_a -> apex_b making the compatibility triangle commute for
    infinitely many indices.

    For eventually periodic data "infinitely many" is read as "all tail
    indices in some residue class", so one representative per class in a
    stabilised window decides it.
    """
    cat = space.category
    if not (seq.arrows.is_exact and cone_a.legs.is_exact and cone_b.legs.is_exact):
        raise PreconditionError("mediating-arrow search needs eventually periodic data")
    K0, L = _exact_window(
        seq.arrows, cone_a.legs, cone_b.legs,
        starts=(
            cone_a.start_index + cone_a.legs.stable_from,
            cone_b.start_index + cone_b.legs.stable_from,
        ),
    )
    start = max(K0, cone_a.start_index, cone_b.start_index)
    window = range(start, start + L)
    found = []
    for h in cat.hom(cone_a.apex, cone_b.apex):
        if any(cat.compose(cone_a.leg(k), h) == cone_b.leg(k) for k in window):
            found.append(h)
    return tuple(found)


def ref_check_weak_pushout(
    space: Metric1Space,
    seq: ForwardSequence | ForwardSeries,
    cone: EssentialCone,
    other_cones: list[EssentialCone],
    require_unique: bool = False,
) -> MediatingReport:
    """Does the cone mediate into each supplied competitor cone?

    Test scaffolding for the categorical (weak) pushout of a forward
    sequence, and for the weak transfinite composition of a series (whose
    cocones carry legs from index 0), on finite data: a mediating arrow h
    must satisfy h after leg(n) == other_leg(n) for every n where both
    cones are defined.  `require_unique` asks for exactly one such h per
    competitor.
    """
    cat = space.category
    mediators = []
    for other in other_cones:
        descs = [seq.arrows, cone.legs, other.legs]
        if not all(d.is_exact for d in descs):
            raise PreconditionError("pushout checks need eventually periodic data")
        K0, L = _exact_window(
            *descs,
            starts=(
                cone.start_index + cone.legs.stable_from,
                other.start_index + other.legs.stable_from,
            ),
        )
        first = max(cone.start_index, other.start_index)
        window = range(first, max(first, K0) + L)
        hs = []
        for h in cat.hom(cone.apex, other.apex):
            if all(cat.compose(cone.leg(n), h) == other.leg(n) for n in window):
                hs.append(h)
        mediators.append(tuple(hs))
    ok = all(len(hs) == 1 if require_unique else len(hs) >= 1 for hs in mediators)
    kind = "unique mediating arrow" if require_unique else "mediating arrow"
    return MediatingReport(ok, tuple(mediators), f"{kind} per competitor cone: {[len(h) for h in mediators]}")


def ref_converging_legs(cat, arr, n0: int, a0: int) -> tuple[int, ...]:
    """The leg loop of `series_converges`: the legs before the cycle's
    entry index n0, whose leg is a0."""
    legs_before: list[int] = [0] * n0
    nxt = a0
    for n in range(n0 - 1, -1, -1):
        nxt = cat.compose(arr.at(n), nxt)
        legs_before[n] = nxt
    return tuple(legs_before)


def ref_banach_legs(cat, series, T: int, fixed_obj: int) -> tuple[int, ...]:
    """The leg loop of `banach_iterate`: window compositions into the
    fixed object, reached at step T."""
    legs_before = []
    nxt_leg = cat.identity[fixed_obj]
    for n in range(T - 1, -1, -1):
        nxt_leg = cat.compose(series.arrows.at(n), nxt_leg)
        legs_before.insert(0, nxt_leg)
    return tuple(legs_before)


def limit_spaces(rng):
    """Indiscrete spaces on 1 to 4 objects, weight 0 on about half the arrows."""
    return [
        Metric1Space.from_weights(indiscrete(n), [rng.choice([0, 0, 1, Fraction(1, 2), "inf"])
                                                  for _ in range(n * n)])
        for n in range(1, 5) for _ in range(3)
    ]


def arrow_walk(rng, n: int, length: int) -> list[int]:
    """`length` consecutively composable arrows of indiscrete(n), whose
    arrow x -> y has id x * n + y."""
    x, ids = rng.randrange(n), []
    for _ in range(length):
        y = rng.randrange(n)
        ids.append(x * n + y)
        x = y
    return ids


def random_series(rng, n: int) -> ForwardSeries:
    """Bounded (horizons 0 to 7) or eventually periodic, mostly composable:
    some periods do not close, and one entry in five series is any arrow."""
    if rng.random() < 0.5:
        ids = arrow_walk(rng, n, rng.randint(0, 7))
        pre = None
    else:
        pre = rng.randint(0, 3)
        ids = arrow_walk(rng, n, pre + rng.randint(1, 4))
        if rng.random() < 0.7:  # the period's last entry returns to its first entry's domain
            ids[-1] = ids[-1] // n * n + ids[pre] // n
    if ids and rng.random() < 0.2:
        ids[rng.randrange(len(ids))] = rng.randrange(n * n)
    desc = BoundedDescription(tuple(ids)) if pre is None else EventuallyPeriodic(tuple(ids[:pre]), tuple(ids[pre:]))
    return ForwardSeries(desc)


def random_cone(rng, n: int, seq: ForwardSequence, exact: bool) -> EssentialCone:
    """Legs into a random apex, most from the codomain of the sequence
    entry at their index; one cone in ten has a leg that misses the apex."""
    start, apex = rng.randint(0, 2), rng.randrange(n)
    count = rng.randint(1, 6) if exact else rng.randint(0, 6)
    legs = []
    for k in range(start, start + count):
        x = seq.arrows.at(k) % n if rng.random() < 0.8 else rng.randrange(n)
        legs.append(x * n + apex)
    if legs and rng.random() < 0.1:
        legs[rng.randrange(len(legs))] = rng.randrange(n * n)
    if not exact:
        return EssentialCone(start, apex, BoundedDescription(tuple(legs)))
    pre = rng.randint(0, count - 1)
    return EssentialCone(start, apex, EventuallyPeriodic(tuple(legs[:pre]), tuple(legs[pre:])))


def random_sequence(rng, n: int, exact: bool) -> ForwardSequence:
    base = rng.randrange(n)
    ids = [base * n + rng.randrange(n) for _ in range(rng.randint(1, 5) if exact else 12)]
    if not exact:
        return ForwardSequence(base, BoundedDescription(tuple(ids)))
    pre = rng.randint(0, len(ids) - 1)
    return ForwardSequence(base, EventuallyPeriodic(tuple(ids[:pre]), tuple(ids[pre:])))


# Bare errors of the replaced bodies that the library now raises as a
# PreconditionError with a message of this form.
LEG_OFF_APEX = (KeyError, r"cone leg at \d+ is a\d+:\d+->\d+; must run \d+ -> \d+")
EMPTY_SERIES = (IndexError, r"partial compositions need a series entry; this bounded series has none")


def same_outcome(new, ref, *args, retyped=None):
    """The outcome of both calls, once they return equal values of one
    repr or raise one exception type with one message: the value, or the
    exception type.  Where the reference raises the bare error of
    `retyped`, the library must raise a PreconditionError matching its
    pattern instead, and the outcome is "retyped"."""
    outcomes = []
    for fn in (new, ref):
        try:
            value = fn(*args)
        except Exception as exc:  # any exception is an outcome to compare
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append((value, repr(value)))
    if retyped and outcomes[1][0] is retyped[0]:
        assert outcomes[0][0] is PreconditionError and re.fullmatch(retyped[1], outcomes[0][1]), args
        return "retyped"
    assert outcomes[0] == outcomes[1], args
    return outcomes[0][0]


def kind(outcome) -> str:
    if isinstance(outcome, str):
        return outcome
    return outcome.__name__ if isinstance(outcome, type) else type(outcome).__name__


def test_series_checks_match_the_two_body_scans():
    """Partial compositions, Cauchy windows and truncations of seeded
    series, both kinds: the same results and the same exceptions."""
    rng = random.Random(2020)
    seen = Counter()
    for space in limit_spaces(rng) * 40:
        series = random_series(rng, len(space.category.objects))
        partials = same_outcome(partial_compositions, ref_partial_compositions, space, series,
                                retyped=EMPTY_SERIES)
        cauchy = same_outcome(check_cauchy, ref_check_cauchy, space, series)
        seen[kind(partials)] += 1
        seen[getattr(cauchy, "verdict", "raised")] += 1
        for k in (-1, 0, 1, rng.randint(2, 9)):
            same_outcome(truncate_series, ref_truncate_series, series, k)
    # every verdict, and both kinds of partial compositions, came up
    assert min(seen[v] for v in (EXACT_YES, EXACT_NO, TO_HORIZON, "raised")) > 20, seen
    assert seen["ForwardSequence"] > 200 and seen["PreconditionError"] > 20 and seen["retyped"], seen


def test_cone_checks_match_the_two_body_scans():
    """Truncated cones, mediating arrows and weak pushouts on seeded
    sequences and cones, both kinds: the same results and exceptions."""
    rng = random.Random(2021)
    seen = Counter()
    for space in limit_spaces(rng) * 40:
        n = len(space.category.objects)
        exact = rng.random() < 0.85
        seq = random_sequence(rng, n, exact)
        cones = [random_cone(rng, n, seq, exact or rng.random() < 0.5) for _ in range(4)]
        # the reference slices k = -1 to the last leg; the library refuses it,
        # as truncate_series does
        with pytest.raises(PreconditionError, match="^truncation index must be non-negative$"):
            truncate_cone(cones[0], -1)
        for k in (0, 1, rng.randint(2, 7)):
            same_outcome(truncate_cone, ref_truncate_cone, cones[0], k)
        found = same_outcome(find_mediating_arrows, ref_find_mediating_arrows, space, seq, cones[0], cones[1],
                             retyped=LEG_OFF_APEX)
        seen[f"found {bool(found) if isinstance(found, tuple) else kind(found)}"] += 1
        others = cones[1:rng.randint(1, 4)]
        for unique in (False, True):
            report = same_outcome(check_weak_pushout, ref_check_weak_pushout, space, seq, cones[0], others, unique,
                                  retyped=LEG_OFF_APEX)
            seen[f"holds {getattr(report, 'holds', kind(report))}"] += 1
    assert min(seen[k] for k in ("found True", "found False", "holds True", "holds False")) > 20, seen
    assert seen["found PreconditionError"] and seen["found retyped"], seen


def test_leg_builder_matches_both_leg_loops():
    """The legs below each index n0 of seeded series, from a leg out of the
    entry's domain (series_converges) or from the identity there
    (banach_iterate)."""
    rng = random.Random(2022)
    built = 0
    for space in limit_spaces(rng) * 10:
        cat, n = space.category, len(space.category.objects)
        series = random_series(rng, n)
        arr = series.arrows
        for n0 in range(arr.stable_from + arr.cycle if arr.is_exact else arr.horizon):
            x = arr.at(n0) // n  # the domain of entry n0
            leg = x * n + rng.randrange(n)
            legs = same_outcome(lambda: legs_before(space, series, n0, leg),
                                lambda: ref_converging_legs(cat, arr, n0, leg))
            built += isinstance(legs, tuple)
            same_outcome(lambda: legs_before(space, series, n0, cat.identity[x]),
                         lambda: ref_banach_legs(cat, series, n0, x))
    assert built > 300


# --- weights read from JSON -----------------------------------------------------

def repeated_weights_doc(rng, pool):
    """An indiscrete 5-object document whose weights are drawn from `pool`."""
    cat = indiscrete(5)
    return {"category": jsonio.category_to_json(cat),
            "weights": {str(a.id): rng.choice(pool) for a in cat.arrows}}


def test_space_from_json_parses_each_weight_string_once(monkeypatch):
    rng = random.Random(112)
    pool = ["0", "1", "3/2", "07", "2.5", "inf", " 1", 1, 1.5, 0, "1e1"]
    strings = []
    real = Weight.parse.__func__

    def counting(cls, data):
        if type(data) is str:
            strings.append(data)
        return real(cls, data)

    monkeypatch.setattr(Weight, "parse", classmethod(counting))
    for _ in range(20):
        doc = repeated_weights_doc(rng, pool)
        strings.clear()
        space = jsonio.space_from_json(doc)
        assert sorted(strings) == sorted({v for v in doc["weights"].values() if type(v) is str})
        assert space.w == tuple(real(Weight, doc["weights"][str(a)]) for a in range(25))
        # arrows with one weight string share one Weight
        shared = {v: space.w[int(k)] for k, v in doc["weights"].items() if type(v) is str}
        assert all(space.w[int(k)] is shared[v] for k, v in doc["weights"].items() if type(v) is str)


@pytest.mark.parametrize("bad, message", [
    ("1/0", "Fraction(1, 0)"),
    ("-1", "weights must be non-negative, got -1"),
    ("abc", "Invalid literal for Fraction: 'abc'"),
    (True, "not a weight: True"),
])
def test_malformed_repeated_weights_keep_their_messages(tmp_path, capsys, bad, message):
    doc = repeated_weights_doc(random.Random(113), ["0", "1", "3/2"])
    doc["weights"]["3"] = doc["weights"]["7"] = bad
    with pytest.raises(InputFormatError) as exc:
        jsonio.space_from_json(doc)
    assert str(exc.value) == f"malformed weights: {message}"
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    assert main(["--format", "json", "validate", str(path)]) == 2
    assert capsys.readouterr().err == f"input error: malformed weights: {message}\n"
