import random
from fractions import Fraction

import pytest

from metricat import (
    FiniteCategory,
    FiniteMetricSpace,
    Metric1Space,
    PreconditionError,
    Weight,
    ZERO,
    asymmetry_defect,
    from_metric_space,
    indiscrete,
    is_groupoid,
    is_locally_finite,
    is_nondegenerate,
    lawvere,
    validate_metric1,
)

import support


def test_symmetric_two_point_space_validates():
    sp = support.indiscrete_space([[0, 1], [1, 0]])
    assert validate_metric1(sp).ok


def test_asymmetric_two_point_space_fails_lower_bound():
    sp = support.indiscrete_space([[0, 1], [5, 0]])
    report = validate_metric1(sp)
    assert not report.ok
    assert any("lower" in v for v in report.violations)


def test_z2_with_weight_seven_validates():
    # both halves on all four composable pairs: |7-7| <= 0, 0 <= 14, etc.
    z2 = support.z2_space(7)
    cat = z2.category
    for f, g in cat.composable_pairs():
        a, b = z2.w[f], z2.w[g]
        c = z2.w[cat.compose(f, g)]
        assert Weight.abs_diff(a, b) <= c <= a + b
    assert validate_metric1(z2).ok


def test_nondegenerate_and_locally_finite():
    sp = support.indiscrete_space([[0, 2], [2, 0]])
    assert is_nondegenerate(sp) and is_locally_finite(sp)
    inf_arrow = support.free_arrow_space("inf")
    assert not is_locally_finite(inf_arrow)
    assert is_nondegenerate(inf_arrow)
    degen = support.z2_space(0)
    assert not is_nondegenerate(degen)


def test_lawvere_of_indiscrete_embedding_returns_the_metric():
    ms = support.rand_metric(random.Random(3), 3)
    sp = from_metric_space(ms)
    law = lawvere(sp)
    for i in range(3):
        for j in range(3):
            assert law.d[i][j] == Weight(ms.d[i][j])


def test_lawvere_empty_hom_is_infinite():
    law = lawvere(support.free_arrow_space(1))
    assert law.d[1][0].is_infinite
    assert law.d[0][1] == Weight(1)


def test_lawvere_parallel_arrows_takes_min():
    sp = support.parallel_pair_space(3, 2)
    assert lawvere(sp).d[0][1] == Weight(2)


def test_lawvere_satisfies_restricted_triangle():
    rng = random.Random(11)
    for _ in range(30):
        sp = support.rand_space(rng)
        assert validate_metric1(sp).ok
        assert lawvere(sp).restricted_triangle_errors() == []


def test_from_metric_space_examples():
    one = from_metric_space(FiniteMetricSpace.from_matrix(["p"], [[0]]))
    assert len(one.category.arrows) == 1 and one.w[0] == ZERO
    two = from_metric_space(FiniteMetricSpace.from_matrix(["a", "b"], [[0, 1], [1, 0]]))
    assert validate_metric1(two).ok
    with pytest.raises(PreconditionError, match="symmetry"):
        from_metric_space(FiniteMetricSpace(("a", "b"), ((Fraction(0), Fraction(1)), (Fraction(2), Fraction(0)))))


def test_asymmetry_defect_examples():
    sym = support.indiscrete_space([[0, 1], [1, 0]])
    assert asymmetry_defect(sym, 0, 1) == ZERO
    quasi = support.indiscrete_space([[0, 1], [4, 0]])
    assert asymmetry_defect(quasi, 0, 1) == Weight(3)


def test_asymmetry_defect_enumerates_all_pairs():
    # hom(x,y) = {1, 2}, hom(y,x) = {2}: the two differences are 1 and 0
    from metricat import build_category

    cat = build_category(2, [(0, 1, "f"), (0, 1, "g"), (1, 0, "h")])
    sp = Metric1Space.from_weights(cat, [0, 0, 1, 2, 2])
    diffs = {
        Weight.abs_diff(sp.w[f], sp.w[g])
        for f in cat.hom(0, 1)
        for g in cat.hom(1, 0)
    }
    assert max(diffs) == Weight(1)
    assert asymmetry_defect(sp, 0, 1) == Weight(1)


def test_asymmetry_defect_requires_arrows():
    sp = support.free_arrow_space(1)
    with pytest.raises(PreconditionError, match="no arrows"):
        asymmetry_defect(sp, 0, 1)


def test_asymmetry_defect_infinity_rules():
    sp = support.indiscrete_space([[0, "inf"], [4, 0]])
    assert asymmetry_defect(sp, 0, 1).is_infinite
    both = support.indiscrete_space([[0, "inf"], ["inf", 0]])
    assert asymmetry_defect(both, 0, 1) == ZERO


def test_isomorphism_weight_equality():
    rng = random.Random(23)
    for _ in range(60):
        sp = support.rand_space(rng)
        inv = is_groupoid(sp.category)
        if inv is None:
            # one-sided inverses are out of scope for the corollary; check
            # the two-sided ones that do exist arrow by arrow
            cat = sp.category
            for a in cat.arrows:
                for b in cat.hom(a.cod, a.dom):
                    if (
                        cat.compose(a.id, b) == cat.identity[a.dom]
                        and cat.compose(b, a.id) == cat.identity[a.cod]
                    ):
                        assert sp.w[a.id] == sp.w[b]
        else:
            for a, b in inv.items():
                assert sp.w[a] == sp.w[b]


def test_zero_composite_forces_equal_weights():
    rng = random.Random(29)
    for _ in range(40):
        sp = support.rand_space(rng)
        cat = sp.category
        for f, g in cat.composable_pairs():
            if sp.w[cat.compose(f, g)] == ZERO:
                assert sp.w[f] == sp.w[g]


def test_indiscrete_equivalence_symmetry_iff_full_triangle():
    # restricted-triangle reflexive weights on an indiscrete category pass
    # the metric validator exactly when they are symmetric
    rng = random.Random(37)
    seen_asym = seen_sym = 0
    for _ in range(120):
        n = rng.randint(2, 4)
        m = support.rand_reflexive_restricted(rng, n, symmetric=rng.random() < 0.5)
        sp = support.indiscrete_space(m)
        symmetric = all(m[i][j] == m[j][i] for i in range(n) for j in range(n))
        assert validate_metric1(sp).ok == symmetric
        seen_sym += symmetric
        seen_asym += not symmetric
    assert seen_sym > 10 and seen_asym > 10


def test_weight_table_must_cover_arrows():
    cat = indiscrete(2)
    with pytest.raises(PreconditionError):
        Metric1Space.from_weights(cat, [0, 1, 1])


def test_missing_composite_is_fatal_not_a_key_error():
    # line space 0 -- 1 with the pair (psi, phi) dropped from the table
    sp = support.line_space([0, 2])
    cat = sp.category
    psi, phi = cat.hom(0, 1)[0], cat.hom(1, 0)[0]
    table = [(f, g, h) for (f, g), h in cat.composition.items() if (f, g) != (psi, phi)]
    broken = FiniteCategory.from_triples(cat.objects, cat.arrows, cat.identity, table)
    report = validate_metric1(Metric1Space(broken, sp.w))
    assert report.fatal == [f"composable pair ({psi}, {phi}) missing from composition table"]
    assert not report.violations


def test_triangle_check_is_exact_on_mixed_denominators_and_infinity():
    # weights 1/3 and 1/2 scale to 2 and 3 over the common denominator 6;
    # the composite must lie in [1/6, 5/6], and inf only against inf legs
    cat = support.chain_space([Fraction(1, 3), Fraction(1, 2)]).category
    legs = [0, 0, 0, Fraction(1, 3), None, Fraction(1, 2)]
    for composite, expect in [(Fraction(5, 6), None), (Fraction(1, 6), None),
                              (Fraction(6, 7), "upper"), (Fraction(1, 7), "lower"),
                              ("inf", "upper")]:
        weights = list(legs)
        weights[4] = composite
        report = validate_metric1(Metric1Space.from_weights(cat, weights))
        assert _triangle_sides(report) == ([] if expect is None else [expect])
    both_infinite = support.chain_space(["inf", "inf"])
    assert validate_metric1(both_infinite).ok
    one_infinite = Metric1Space.from_weights(both_infinite.category, [0, 0, 0, "inf", 5, 1])
    assert _triangle_sides(validate_metric1(one_infinite)) == ["lower"]


def _triangle_sides(report) -> list[str]:
    # "full triangle (upper) on (f,g): ..." -> "upper"
    return [v.split()[2].strip("()") for v in report.violations]
