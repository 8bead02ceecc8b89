"""The indexed kernel scans against the plain loops they replaced.

Each reference below is the unindexed loop: all m² arrow pairs for
composable pairs, pairs × m for associativity, `Weight` arithmetic for the
triangle inequality, all m × |e| pairs for the arrow calculus and every
arrow against every threshold for the bounded generators.  On seeded random
categories, their opposites and deliberately broken tables, the library
must give the same pair sequences, the same reports (same messages, same
order) and the same sets.

The backward continuity criteria and the backward natural-contraction
search are likewise compared with the hand-written backward loops that the
forward code run in the opposite space replaced: same verdicts, a valid
witness on every failure, and the same contractions in the same order.
"""
import math
import random
from fractions import Fraction

from metricat import (
    ZERO,
    FiniteCategory,
    Metric1Space,
    NatTransformation,
    Weight,
    from_metric_space,
    identity_functor,
    indiscrete,
    opposite_functor,
    validate_category,
    validate_functor,
    validate_metric1,
    validate_transformation,
)
from metricat.coarse import arrow_compose_sets, arrow_star, bounded_generators
from metricat.continuity import BACKWARD, factorizations, forward_continuous_at_arrow, object_continuity
from metricat.fincat import Arrow, ValidationReport
from metricat.fixedpoint import NaturalContraction, find_natural_contractions
from metricat.mapping import enumerate_functors
from metricat.weights import opposite_space

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
    """Weight arithmetic pair by pair; a missing composite is fatal."""
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


def ref_bounded_sets(space):
    finite = [w.finite for w in space.w if not w.is_infinite]
    last = max((math.ceil(f) for f in finite), default=0)
    return [
        frozenset(a.id for a in space.category.arrows if space.w[a.id] <= Weight(Fraction(n)))
        for n in range(last + 1)
    ], last


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
    return FiniteCategory(cat.objects, cat.arrows, dict(cat.identity), table)


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
    comp = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (0, 2): 2, (2, 0): 2,
            (1, 1): 2, (1, 2): 0, (2, 1): 1, (2, 2): 2}
    return FiniteCategory(indiscrete(1).objects, arrows, {0: 0}, comp)


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
    dangling = FiniteCategory(indiscrete(1).objects, (Arrow(0, 0, 0), Arrow(1, 0, 5)), {0: 0},
                              {(0, 0): 0})
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


def test_validate_metric1_matches_weight_arithmetic():
    seen_fatal = seen_upper = seen_lower = 0
    for name, space in cases(103):
        got, want = validate_metric1(space), ref_validate_metric1(space)
        assert (got.fatal, got.violations) == (want.fatal, want.violations), name
        seen_fatal += bool(got.fatal)
        seen_upper += any("(upper)" in v for v in got.violations)
        seen_lower += any("(lower)" in v for v in got.violations)
    assert seen_fatal and seen_upper and seen_lower


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


def test_bounded_generators_match_threshold_comparisons():
    for name, space in cases(105):
        gens = bounded_generators(space)
        sets, last = ref_bounded_sets(space)
        assert (list(gens.sets), gens.constant_from) == (sets, last), name


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
