import random

import pytest

from metricat import (
    INF,
    Functor,
    PreconditionError,
    SizeGuardError,
    TheoremViolation,
    Weight,
    ZERO,
    identity_functor,
    indiscrete,
    terminal_category,
    validate_category,
    validate_functor,
    validate_metric1,
)
from metricat import fincat, mapping
from metricat.fincat import NatTransformation
from metricat.mapping import (
    enumerate_functors,
    enumerate_transformations,
    mapping_space,
    nat_weight,
)

import support


def test_functors_from_terminal_match_target_objects():
    y = support.z2_category()
    funs = enumerate_functors(terminal_category(), y)
    assert len(funs) == len(y.objects)
    y3 = indiscrete(3)
    assert len(enumerate_functors(terminal_category(), y3)) == 3


def test_functors_to_terminal_unique():
    for src in (indiscrete(2), support.z2_category(), support.free_arrow_category()):
        assert len(enumerate_functors(src, terminal_category())) == 1


def test_z2_endofunctors_enumerated_and_checked_by_hand():
    z2 = support.z2_category()
    funs = enumerate_functors(z2, z2)
    # the two candidate arrow maps g -> g and g -> id are both functors;
    # verify by checking all four composable pairs of each candidate
    for g_image in (0, 1):
        arr_map = {0: 0, 1: g_image}
        for f in range(2):
            for g in range(2):
                assert arr_map[z2.compose(f, g)] == z2.compose(arr_map[f], arr_map[g])
    assert len(funs) == 2
    assert sorted(f.arr_map[1] for f in funs) == [0, 1]
    for f in funs:
        assert validate_functor(f).ok


def test_functor_enumeration_is_lexicographic_and_duplicate_free():
    funs = enumerate_functors(indiscrete(2), indiscrete(2))
    keys = [f.key() for f in funs]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert len(funs) == 4  # one functor per point map


def test_enumeration_guard_raises():
    with pytest.raises(SizeGuardError):
        enumerate_functors(indiscrete(3), indiscrete(3), guard=10)


def test_one_budget_bounds_the_whole_mapping_space():
    X = support.indiscrete_space([[0 if i == j else 1 for j in range(3)] for i in range(3)])
    # 27 functors and 729 transformations: every single search fits in 1,000
    # nodes, and the call as a whole does not
    funs = enumerate_functors(X.category, X.category, guard=1000)
    assert max(len(enumerate_transformations(F, G, guard=1000)) for F in funs for G in funs) == 1
    # arrows and composition entries are charged as [X, Y] grows, pair by
    # pair: the first pairs of functors already pass 1,000
    with pytest.raises(SizeGuardError,
                       match=r"^mapping space \[X, Y\] exceeded its budget of 1000 composition entries; used 1002$"):
        mapping_space(X, X, guard=1000)
    # 2,469 search nodes, 729 arrows and 19,683 composition entries: the
    # totals of the whole call, so the same limits refuse
    assert len(mapping_space(X, X, guard=22881).transformations) == 729
    with pytest.raises(SizeGuardError, match="composition entries; used 22881"):
        mapping_space(X, X, guard=22880)


def test_nat_weight_examples():
    z2 = support.z2_space(1)
    ident = identity_functor(z2.category)
    alpha = NatTransformation(ident, ident, {0: 0})
    assert nat_weight(alpha, z2) == ZERO
    beta = NatTransformation(ident, ident, {0: 1})
    assert nat_weight(beta, z2) == Weight(1)
    # components weighing 1/2 and 3 give 3; an infinite component dominates
    from metricat import Functor, Metric1Space, build_category

    discrete = build_category(2, [])
    two_arrows = build_category(4, [(0, 1, "u"), (2, 3, "v")])
    for second, expected in (("3", Weight(3)), ("inf", INF)):
        y = Metric1Space.from_weights(two_arrows, [0, 0, 0, 0, "1/2", second])
        F = Functor(discrete, two_arrows, {0: 0, 1: 2}, {0: 0, 1: 2})
        G = Functor(discrete, two_arrows, {0: 1, 1: 3}, {0: 1, 1: 3})
        alpha = NatTransformation(F, G, {0: 4, 1: 5})
        assert nat_weight(alpha, y) == expected


def test_mapping_space_from_terminal_is_isometric_to_target():
    term = support.line_space([0])
    for y in (support.z2_space(1), support.indiscrete_space([[0, 2], [2, 0]]),
              support.one_sided_space()):
        ms = mapping_space(term, y)
        # functors from the terminal are the objects of Y
        assert len(ms.functors) == len(y.category.objects)
        assert len(ms.transformations) == len(y.category.arrows)
        # build the explicit bijection and compare weights componentwise
        obj_of = {i: f.obj_map[0] for i, f in enumerate(ms.functors)}
        for k, t in enumerate(ms.transformations):
            target_arrow = t.components[0]
            assert ms.space.w[k] == y.w[target_arrow]
            a = ms.space.category.arrows[k]
            assert obj_of[a.dom] == y.category.arrows[target_arrow].dom
            assert obj_of[a.cod] == y.category.arrows[target_arrow].cod
        assert validate_metric1(ms.space).ok


def test_mapping_space_to_terminal_is_a_point():
    term = support.line_space([0])
    for x in (support.z2_space(1), support.indiscrete_space([[0, 1], [1, 0]])):
        ms = mapping_space(x, term)
        assert len(ms.functors) == 1
        assert len(ms.transformations) == 1
        assert ms.space.w[0] == ZERO


def test_mapping_space_z2_to_itself():
    z2 = support.z2_space(1)
    ms = mapping_space(z2, z2)
    assert len(ms.functors) == 2
    # only the endo-transformations survive naturality, two per functor
    assert len(ms.transformations) == 4
    assert validate_category(ms.space.category).ok
    assert validate_metric1(ms.space).ok
    weights = sorted(w.to_json() for w in ms.space.w)
    assert weights == ["0", "0", "1", "1"]


def test_mapping_space_validates_on_random_pairs():
    rng = random.Random(59)
    kinds = ("z2", "free_arrow", "parallel", "indiscrete", "chain")
    done = 0
    for _ in range(25):
        x = support.rand_space(rng, kinds)
        y = support.rand_space(rng, kinds)
        if len(x.category.arrows) > 4 or len(y.category.arrows) > 9:
            continue
        ms = mapping_space(x, y)
        assert validate_category(ms.space.category).ok
        assert validate_metric1(ms.space).ok
        done += 1
    assert done >= 10


def test_transformation_enumeration_counts():
    z2 = support.z2_category()
    ident = identity_functor(z2)
    collapse = [f for f in enumerate_functors(z2, z2) if f.arr_map[1] == 0][0]
    assert len(enumerate_transformations(ident, ident)) == 2
    assert len(enumerate_transformations(ident, collapse)) == 0
    assert len(enumerate_transformations(collapse, collapse)) == 2


def test_mapping_space_raises_on_an_enumerated_non_functor(monkeypatch):
    z2 = support.z2_space(1)
    real = mapping.enumerate_functors

    def with_a_stray(source, target, guard):
        # sends the identity to g: not a functor
        return real(source, target, guard) + [Functor(source, target, {0: 0}, {0: 1, 1: 1})]

    monkeypatch.setattr(mapping, "enumerate_functors", with_a_stray)
    with pytest.raises(TheoremViolation, match="enumerated functor failed validation"):
        mapping_space(z2, z2)


def test_mapping_space_raises_on_an_enumerated_non_natural_transformation(monkeypatch):
    z2 = support.z2_space(1)
    real = mapping.backtrack

    def with_a_stray(domains, plan, guard, what, given=()):
        found = real(domains, plan, guard, what, given)
        if what == "transformation enumeration" and not found:
            # between the identity and the collapse of g, no component is natural
            found.append((0,))
        return found

    monkeypatch.setattr(mapping, "backtrack", with_a_stray)
    with pytest.raises(TheoremViolation, match="enumerated transformation failed validation"):
        mapping_space(z2, z2)


def test_a_corrupted_shared_square_check_is_caught_by_the_recheck(monkeypatch):
    # every naturality check of the shared plan passes: the search then
    # finds components that are not natural, and the re-check of each found
    # transformation still refuses them
    z2 = support.z2_space(1)
    real = mapping.NaturalitySquares.__init__

    def passing_every_square(self, source, target):
        real(self, source, target)
        self.plan = [[lambda values: True for _ in checks] for checks in self.plan]

    monkeypatch.setattr(mapping.NaturalitySquares, "__init__", passing_every_square)
    with pytest.raises(TheoremViolation, match="enumerated transformation failed validation"):
        mapping_space(z2, z2)


def test_a_corrupted_shared_domain_is_caught_by_the_recheck(monkeypatch):
    # a plan whose component domains offer every arrow of the target, last
    # arrow first, and whose checks are gone: the first components found run
    # between the wrong objects, which the re-check refuses before it reads
    # a square off the rows
    X = support.indiscrete_space([[0, 1], [1, 0]])
    real = mapping.NaturalitySquares.__init__

    def every_arrow(self, source, target):
        real(self, source, target)
        arrows = tuple(reversed(range(len(target.arrows))))
        self.domains = [lambda values: arrows for _ in self.domains]
        self.plan = [[] for _ in self.plan]

    monkeypatch.setattr(mapping.NaturalitySquares, "__init__", every_arrow)
    with pytest.raises(TheoremViolation, match="enumerated transformation failed validation"):
        mapping_space(X, X)


@pytest.mark.parametrize("field, broken, named", [
    ("obj_map", {0: 0}, "object map missing or dangling at object 1"),
    ("obj_map", {0: 0, 1: 2}, "object map missing or dangling at object 1"),
    ("arr_map", {0: 0, 1: 1, 2: 2}, "arrow map missing or dangling at arrow 3"),
    ("arr_map", {0: 0, 1: 2, 2: 1, 3: 3}, "arrow a1:0->1 maps to a2:1->0, incompatible with the object map"),
])
def test_a_short_or_dangling_functor_map_is_a_precondition(field, broken, named):
    # a short map used to end the transformation search in a bare KeyError
    cat = indiscrete(2)
    ident = identity_functor(cat)
    maps = {"obj_map": ident.obj_map, "arr_map": ident.arr_map, field: broken}
    bad = Functor(cat, cat, maps["obj_map"], maps["arr_map"])
    for F, G in ((bad, ident), (ident, bad)):
        with pytest.raises(PreconditionError, match=f"^not a functor: {named}$"):
            enumerate_transformations(F, G)


def test_functor_shapes_are_checked_once_per_functor_in_the_mapping_space(monkeypatch):
    X = support.indiscrete_space([[0, 1], [1, 0]])
    calls = []
    real = fincat.shape_errors
    monkeypatch.setattr(fincat, "shape_errors", lambda fun: calls.append(fun) or real(fun))
    ms = mapping_space(X, X)
    assert len(ms.space.category.arrows) == len(ms.functors) ** 2 == 16
    # the re-check of each enumerated functor checks its shape; the
    # continuity test and the squares read it unchecked, never per pair
    assert calls == ms.functors
