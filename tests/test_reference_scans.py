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
closure computed by rescanning every composable pair.

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
"""
import itertools
import math
import random
from fractions import Fraction

import pytest

from metricat import (
    ZERO,
    FiniteCategory,
    FiniteMetricSpace,
    Functor,
    Metric1Space,
    NatTransformation,
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
from metricat.coarse import arrow_compose_sets, arrow_star, bounded_generators
from metricat.continuity import BACKWARD, FORWARD, factorizations, forward_continuous_at_arrow, object_continuity
from metricat.fincat import Arrow, ValidationReport, generating_set, opposite
from metricat.dagger import Dagger, enumerate_daggers, validate_dagger
from metricat.fixedpoint import NaturalContraction, find_natural_contractions
from metricat.geometry import (
    _common_scale,
    _gh_correspondences,
    _gh_gluings,
    _int_matrix,
    bilip_slice,
    gh_distance,
    lipschitz_distance,
)
from metricat.mapping import enumerate_functors, enumerate_transformations, mapping_space
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


def ref_generating_set(cat) -> list[int]:
    """Each arrow, in id order, outside the closure of the identities and
    the earlier generators; the closure grows by rescanning every composable
    pair until nothing is added."""
    pairs = ref_composable_pairs(cat)
    held = set(cat.identity.values())
    found = []
    for a in cat.arrows:
        if a.id in held:
            continue
        found.append(a.id)
        held.add(a.id)
        new = {a.id}
        while new:
            new = {cat.compose(f, g) for f, g in pairs if f in held and g in held} - held
            held |= new
    return found


def after_rows(cat):
    return [{g: cat.compose(f.id, g) for g in cat.arrows_from(f.cod)} for f in cat.arrows]


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
        assert generating_set(cat, after_rows(cat)) == ref_generating_set(cat)
    mono = support.max_monoid_space(8).category
    assert generating_set(mono, after_rows(mono)) == list(range(1, 8))
    chain = support.chain_space([1, 1, 1]).category  # [0,2) comes before [1,2)
    assert generating_set(chain, after_rows(chain)) == list(range(4, 10))
    cyclic = support.cyclic_groupoid_space(1, 6).category
    assert generating_set(cyclic, after_rows(cyclic)) == [1]
    square = indiscrete(5)  # the arrows out of 0, then one into 0 per object
    assert generating_set(square, after_rows(square)) == [1, 2, 3, 4, 5, 10, 15, 20]


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
    assert generating_set(cat, after_rows(cat)) == [1] and middles - {1}


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


def ref_gh_gluings(dx: list[list[int]], dy: list[list[int]]) -> Fraction:
    """Infimum of the Hausdorff distance over semimetric gluings, in the
    integer scale, via the per-pattern closed form explained in the
    `geometry` module docstring.  Returns the exact optimum (possibly half-integral)."""
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
        scale = _common_scale(x, y)
        dx, dy = _int_matrix(x, scale), _int_matrix(y, scale)
        distortion = _gh_correspondences(dx, dy)
        assert distortion == ref_gh_correspondences(dx, dy), (x, y)
        assert _gh_gluings(dx, dy) == ref_gh_gluings(dx, dy), (x, y)
        assert gh_distance(x, y) == Fraction(distortion, 2 * scale)
        values.add(Fraction(distortion, 2 * scale))
    assert len(values) > 20


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
        if validate_dagger(space, dag).ok:
            found.append(dag)
    return found


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
