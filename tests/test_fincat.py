import copy
import pickle
import random

import pytest

from metricat import (
    Arrow,
    FiniteCategory,
    Functor,
    Metric1Space,
    NatTransformation,
    Obj,
    build_category,
    identity_functor,
    identity_transformation,
    indiscrete,
    is_groupoid,
    opposite,
    TheoremViolation,
    terminal_category,
    validate_category,
    validate_functor,
    validate_metric1,
    validate_transformation,
    vertical_compose,
    Weight,
)

import support


def test_indiscrete_counts():
    assert len(indiscrete(0).objects) == 0 and len(indiscrete(0).arrows) == 0
    assert len(indiscrete(1).objects) == 1 and len(indiscrete(1).arrows) == 1
    c3 = indiscrete(3)
    assert len(c3.objects) == 3 and len(c3.arrows) == 9
    for n in (0, 1, 3):
        assert validate_category(indiscrete(n)).ok


def test_terminal_category_validates():
    assert validate_category(terminal_category()).ok


def _assoc_counterexample() -> FiniteCategory:
    # one object, arrows {id, a, b}; a*a = b, a*b = id, b*a = a, b*b = b
    objs = (Obj(0),)
    arrows = (Arrow(0, 0, 0, "id"), Arrow(1, 0, 0, "a"), Arrow(2, 0, 0, "b"))
    comp = {(0, 0): 0}
    for x in (1, 2):
        comp[(0, x)] = x
        comp[(x, 0)] = x
    comp[(1, 1)] = 2
    comp[(1, 2)] = 0
    comp[(2, 1)] = 1
    comp[(2, 2)] = 2
    return FiniteCategory.from_triples(objs, arrows, {0: 0},
                                       [(f, g, h) for (f, g), h in comp.items()])


def test_associativity_violation_found_by_brute_force_and_validator():
    cat = _assoc_counterexample()
    # independent oracle: scan all 27 triples directly off the raw table
    mism = [
        (f, g, h)
        for f in range(3)
        for g in range(3)
        for h in range(3)
        if cat.composition[(cat.composition[(f, g)], h)]
        != cat.composition[(f, cat.composition[(g, h)])]
    ]
    assert mism, "oracle expected at least one non-associative triple"
    report = validate_category(cat)
    assert not report.ok
    assert any("associativity" in v for v in report.violations)


def test_structural_malformation_is_fatal_and_skips_axioms():
    cat = FiniteCategory.from_triples((Obj(0),), (Arrow(0, 0, 5),), {0: 0}, [])
    report = validate_category(cat)
    assert report.fatal and not report.violations


def test_structural_errors_are_cached_and_returned_as_fresh_lists():
    arrows = (Arrow(0, 0, 5), Arrow(7, 0, 0))
    cat = FiniteCategory.from_triples((Obj(0),), arrows, {0: 0}, [(0, 9, 0)])
    first, second = cat.structural_errors(), cat.structural_errors()
    assert first == second and len(first) == 3
    assert first is not second
    first.append("appended by a caller")
    assert cat.structural_errors() == second
    for _ in range(2):
        fatal = validate_metric1(Metric1Space(cat, (Weight(0),))).fatal
        assert fatal.count("weight table does not cover the arrows") == 1
    assert cat.structural_errors() == second


def test_missing_composable_pair_reported():
    cat = build_category(1, [(0, 0, "g")])  # g*g intentionally missing
    report = validate_category(cat)
    assert any("missing from composition table" in v for v in report.violations)


def test_opposite_terminal_and_involution():
    t = terminal_category()
    assert opposite(t) == t
    z2 = support.z2_category()
    assert opposite(opposite(z2)) == z2
    c3 = indiscrete(3)
    assert len(opposite(c3).arrows) == len(c3.arrows)
    assert opposite(opposite(c3)) == c3


def test_opposite_transposes_composition():
    c = indiscrete(2)
    op = opposite(c)
    assert validate_category(op).ok
    for (f, g), h in c.composition.items():
        assert op.composition[(g, f)] == h


def test_identity_functor_validates_everywhere():
    for cat in (indiscrete(2), support.z2_category(), support.free_arrow_category(),
                support.one_sided_space().category):
        assert validate_functor(identity_functor(cat)).ok


def test_constant_functor_to_terminal():
    src = indiscrete(2)
    dst = terminal_category()
    fun = Functor(src, dst, {0: 0, 1: 0}, {a.id: 0 for a in src.arrows})
    assert validate_functor(fun).ok


def test_z2_collapse_is_a_functor():
    # sending g to id: F(g*g) = F(id) = id and F(g)*F(g) = id; all four
    # composable pairs agree, so the report must be empty
    z2 = support.z2_category()
    fun = Functor(z2, z2, {0: 0}, {0: 0, 1: 0})
    for f in range(2):
        for g in range(2):
            lhs = fun.arr_map[z2.compose(f, g)]
            rhs = z2.compose(fun.arr_map[f], fun.arr_map[g])
            assert lhs == rhs
    assert validate_functor(fun).ok


def test_functor_endpoint_mismatch_is_fatal():
    free = support.free_arrow_category()
    fun = Functor(free, free, {0: 0, 1: 0}, {0: 0, 1: 1, 2: 2})
    report = validate_functor(fun)
    assert report.fatal


def test_functor_with_a_missing_or_dangling_map_is_fatal():
    free = support.free_arrow_category()  # identities 0, 1 and f = 2: 0 -> 1
    cases = [
        ({0: 0}, {0: 0, 1: 1, 2: 2}, "object map missing or dangling at object 1"),
        ({0: 0, 1: 5}, {0: 0, 1: 1, 2: 2}, "object map missing or dangling at object 1"),
        ({0: 0, 1: 1}, {0: 0, 1: 1}, "arrow map missing or dangling at arrow 2"),
        ({0: 0, 1: 1}, {0: 0, 1: 1, 2: 9}, "arrow map missing or dangling at arrow 2"),
    ]
    for obj_map, arr_map, message in cases:
        report = validate_functor(Functor(free, free, obj_map, arr_map))
        assert report.fatal == [message] and not report.violations


def test_functor_breaking_identities_or_composition_is_reported():
    z2 = support.z2_category()
    everything_to_g = validate_functor(Functor(z2, z2, {0: 0}, {0: 1, 1: 1}))
    assert not everything_to_g.fatal
    assert everything_to_g.violations[0] == "identity of object 0 is not preserved"
    # indiscrete(2) onto Z2 with only 0 -> 1 sent to g: identities are
    # kept, but both round trips compose to an identity that stays one
    pair = indiscrete(2)
    lopsided = validate_functor(Functor(pair, z2, {0: 0, 1: 0}, {0: 0, 1: 1, 2: 0, 3: 0}))
    assert not lopsided.fatal
    assert lopsided.violations == [
        "composition not preserved on pair (1,2): 0 != 1",
        "composition not preserved on pair (2,1): 0 != 1",
    ]


def test_is_groupoid_examples():
    c2 = indiscrete(2)
    inv = is_groupoid(c2)
    assert inv is not None
    psi_xy = c2.hom(0, 1)[0]
    psi_yx = c2.hom(1, 0)[0]
    assert inv[psi_xy] == psi_yx and inv[psi_yx] == psi_xy
    assert is_groupoid(support.free_arrow_category()) is None
    z2 = support.z2_category()
    assert is_groupoid(z2) == {0: 0, 1: 1}


def test_groupoid_inverse_uniqueness():
    for cat in (indiscrete(3), support.z2_category()):
        inv = is_groupoid(cat)
        assert inv is not None
        for a in cat.arrows:
            seconds = [
                b
                for b in cat.hom(a.cod, a.dom)
                if cat.compose(a.id, b) == cat.identity[a.dom]
                and cat.compose(b, a.id) == cat.identity[a.cod]
            ]
            assert seconds == [inv[a.id]]


def test_composite_endpoints_property():
    rng = random.Random(5)
    for _ in range(20):
        cat = support.rand_space(rng).category
        for f, g in cat.composable_pairs():
            h = cat.arrows[cat.compose(f, g)]
            assert h.dom == cat.arrows[f].dom
            assert h.cod == cat.arrows[g].cod


def test_vertical_compose_identities():
    z2 = support.z2_category()
    funs_id = identity_functor(z2)
    alpha = NatTransformation(funs_id, funs_id, {0: 1})  # component g
    assert validate_transformation(alpha).ok
    ident = identity_transformation(funs_id)
    assert vertical_compose(alpha, ident).components == alpha.components
    assert vertical_compose(ident, alpha).components == alpha.components


def test_vertical_compose_on_functors_from_terminal_is_target_composition():
    # transformations between functors from the terminal category are just
    # arrows of Y, and vertical composition is composition in Y
    y = indiscrete(2)
    t = terminal_category()
    f0 = Functor(t, y, {0: 0}, {0: y.identity[0]})
    f1 = Functor(t, y, {0: 1}, {0: y.identity[1]})
    a01 = y.hom(0, 1)[0]
    a10 = y.hom(1, 0)[0]
    alpha = NatTransformation(f0, f1, {0: a01})
    beta = NatTransformation(f1, f0, {0: a10})
    assert vertical_compose(alpha, beta).components[0] == y.compose(a01, a10)


def test_vertical_compose_middle_mismatch():
    y = indiscrete(2)
    t = terminal_category()
    f0 = Functor(t, y, {0: 0}, {0: y.identity[0]})
    f1 = Functor(t, y, {0: 1}, {0: y.identity[1]})
    alpha = NatTransformation(f0, f1, {0: y.hom(0, 1)[0]})
    with pytest.raises(ValueError):
        vertical_compose(alpha, alpha)


def test_naturality_violation_detected():
    z2 = support.z2_category()
    ident = identity_functor(z2)
    collapse = Functor(z2, z2, {0: 0}, {0: 0, 1: 0})
    # component id: naturality square needs id*alpha == alpha*g, i.e. g = id
    bad = NatTransformation(ident, collapse, {0: 0})
    assert not validate_transformation(bad).ok


def test_malformed_transformations_are_fatal():
    y = indiscrete(2)
    t = terminal_category()
    f0 = Functor(t, y, {0: 0}, {0: y.identity[0]})
    f1 = Functor(t, y, {0: 1}, {0: y.identity[1]})
    to_z2 = Functor(t, support.z2_category(), {0: 0}, {0: 0})
    cases = [
        (NatTransformation(f0, to_z2, {0: 0}), "functors do not share source and target"),
        (NatTransformation(f0, f1, {}), "no component at object 0"),
        (NatTransformation(f0, f1, {0: y.identity[0]}), "component at object 0 is a0:0->0; must go F(0) -> G(0)"),
    ]
    for alpha, message in cases:
        report = validate_transformation(alpha)
        assert report.fatal == [message] and not report.violations


def test_vertical_compose_raises_theorem_violation_on_non_natural_alpha():
    # two parallel arrows f, g: 0 -> 1; F sends the free arrow to f, G to g,
    # and identity components make the square g∘id = id∘f fail
    free = support.free_arrow_category()
    parallel = build_category(2, [(0, 1, "f"), (0, 1, "g")])
    F = Functor(free, parallel, {0: 0, 1: 1}, {0: 0, 1: 1, 2: 2})
    G = Functor(free, parallel, {0: 0, 1: 1}, {0: 0, 1: 1, 2: 3})
    alpha = NatTransformation(F, G, {0: 0, 1: 1})
    assert not validate_transformation(alpha).ok
    with pytest.raises(TheoremViolation, match="naturality"):
        vertical_compose(alpha, identity_transformation(G))


def test_category_is_frozen_and_indexes_its_arrows():
    cat = support.one_sided_space().category
    with pytest.raises(AttributeError):
        cat.composition = {}
    arrow, obj = cat.arrows[1], cat.objects[0]
    with pytest.raises(AttributeError):
        arrow.cod = 0
    with pytest.raises(AttributeError):
        obj.label = "x"
    twin = Arrow(arrow.id, arrow.dom, arrow.cod, arrow.label)
    assert twin == arrow and hash(twin) == hash(arrow) and len({twin, arrow}) == 1
    assert Arrow(arrow.id, arrow.dom, arrow.cod, "other") != arrow
    assert Obj(obj.index, obj.label) == obj and hash(Obj(obj.index, obj.label)) == hash(obj)
    # copies are rebuilt through the constructor, past the refused assignment
    for frozen in (arrow, obj, cat):
        assert copy.deepcopy(frozen) == frozen == pickle.loads(pickle.dumps(frozen))
    for x in range(len(cat.objects)):
        assert cat.arrows_from(x) == tuple(a.id for a in cat.arrows if a.dom == x)
        assert cat.arrows_to(x) == tuple(a.id for a in cat.arrows if a.cod == x)
        for y in range(len(cat.objects)):
            assert cat.hom(x, y) == tuple(a.id for a in cat.arrows if (a.dom, a.cod) == (x, y))
    assert cat.arrows_from(99) == cat.arrows_to(99) == cat.hom(0, 99) == ()


def test_a_category_keeps_its_opposite():
    cat = support.one_sided_space().category
    op = opposite(cat)
    assert op is opposite(cat) is cat.opposite and opposite(op) is cat
    # the cache is no field: equality, repr, copy and pickle never read it
    assert "opposite" not in repr(cat) and op != cat
    twin = pickle.loads(pickle.dumps(cat))
    assert "opposite" not in twin.__dict__ and twin == cat == copy.deepcopy(cat)
    assert opposite(twin) == op and opposite(twin) is not op
    for (f, g), h in cat.composition.items():
        assert op.composition[(g, f)] == h
