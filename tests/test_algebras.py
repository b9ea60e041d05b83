from fractions import Fraction

import pytest

from corpus import algebra_corpus, point_rng, POINTS_PER_STRUCTURE
from homstruct import (
    HomAlgebra,
    check_endomorphism,
    check_hom_associative,
    check_left_hom_alternative,
    check_morphism,
    check_right_hom_alternative,
    negate,
    opposite,
    yau_twist,
)
from homstruct.catalog import (
    dual_numbers,
    dual_numbers_twisted,
    entries,
    group_algebra_z2,
    matrix_algebra,
    matrix_conjugation,
    non_alternative_dim2,
    octonions,
    zero_algebra,
)
from homstruct.errors import AlreadyTwisted, DimensionMismatch, NotEndomorphism
from homstruct.exact import LinearMap, MulTensor
from reference_eval import (
    NotAnticommuting,
    basis,
    check_anticommute_identity,
    is_zero,
    left_alternative_defect,
    point,
    right_alternative_defect,
    zeros,
)


def algebra_entries():
    return [e for e in entries() if isinstance(e.payload, HomAlgebra)]


def e8(i):
    return basis(8, i)


# --- direct checker behaviour -----------------------------------------------

def test_zero_multiplication_passes_everything():
    alg = HomAlgebra(2, MulTensor.zero(2), LinearMap.from_rows([[1, 2], [0, 5]]))
    assert check_left_hom_alternative(alg).holds
    assert check_right_hom_alternative(alg).holds
    assert check_hom_associative(alg).holds


def test_matrix_algebra_is_alternative_and_associative():
    alg = matrix_algebra(2)
    assert check_left_hom_alternative(alg).holds
    assert check_right_hom_alternative(alg).holds
    assert check_hom_associative(alg).holds


def test_octonions_pass_both_alternative_laws():
    alg = octonions()
    assert check_left_hom_alternative(alg).holds
    assert check_right_hom_alternative(alg).holds


def test_octonions_fail_hom_associativity_at_frozen_witness():
    rep = check_hom_associative(octonions())
    assert not rep.holds
    first = rep.witnesses[0]
    assert first.index == (1, 2, 4)
    assert first.residual.entries[7] == -2
    assert all(x == 0 for x in first.residual.entries[:7])
    # 7 * 6 * 4 ordered triples of imaginary units not on a common line
    assert rep.total_failures == 168
    assert len(rep.witnesses) == 16  # capped


def test_group_algebra_z2_is_associative_hence_alternative():
    # e_1 * e_1 = e_0 on top of the dual-number table gives K[Z/2]
    alg = group_algebra_z2()
    assert alg.mu.c[1][1][0] == 1
    assert check_hom_associative(alg).holds
    assert check_left_hom_alternative(alg).holds
    assert check_right_hom_alternative(alg).holds


def test_non_alternative_example_fails_both_sides():
    alg = non_alternative_dim2()
    left = check_left_hom_alternative(alg)
    right = check_right_hom_alternative(alg)
    assert not left.holds and not right.holds
    assert left.witnesses[0].index == (0, 0, 0)
    assert left.witnesses[0].residual.entries == (Fraction(2), Fraction(0))
    assert right.witnesses[0].index == (0, 0, 0)


def test_report_invariants():
    for entry in algebra_entries():
        for rep in (
            check_left_hom_alternative(entry.payload),
            check_right_hom_alternative(entry.payload),
        ):
            assert rep.holds == (not rep.witnesses)
            assert rep.holds == (rep.total_failures == 0)
            for w in rep.witnesses:
                assert not is_zero(w.residual.entries)


# --- endomorphisms and twisting ----------------------------------------------

def test_identity_is_endomorphism_everywhere():
    for entry in algebra_entries():
        alg = entry.payload
        assert check_endomorphism(alg, LinearMap.identity(alg.dim)).holds


def test_dual_number_scaling_endomorphism():
    alg, phi = dual_numbers(2)
    assert check_endomorphism(alg, phi).holds
    bad = check_endomorphism(alg, LinearMap.diagonal([2, 1]))
    assert not bad.holds
    assert bad.witnesses[0].index == (0, 0)


def test_endomorphism_shape_error():
    alg, _ = dual_numbers(2)
    with pytest.raises(DimensionMismatch):
        check_endomorphism(alg, LinearMap.identity(3))


def test_yau_twist_identity_leaves_algebra_unchanged():
    alg, _ = dual_numbers(2)
    assert yau_twist(alg, LinearMap.identity(2)) == alg


def test_yau_twist_dual_numbers_products():
    alg, phi = dual_numbers(2)
    twisted = yau_twist(alg, phi)
    assert twisted.mu.c[0][0] == (1, 0)
    assert twisted.mu.c[0][1] == (0, 2)
    assert twisted.mu.c[1][0] == (0, 2)
    assert is_zero(twisted.mu.c[1][1])
    assert twisted.alpha == phi
    assert check_left_hom_alternative(twisted).holds
    assert check_right_hom_alternative(twisted).holds


def test_yau_twist_matrix_algebra_inner_automorphism():
    twisted = yau_twist(matrix_algebra(2), matrix_conjugation(2, [1, 2]))
    assert check_hom_associative(twisted).holds
    assert check_left_hom_alternative(twisted).holds
    assert check_right_hom_alternative(twisted).holds


def test_yau_twist_rejections():
    alg, _ = dual_numbers(2)
    with pytest.raises(NotEndomorphism):
        yau_twist(alg, LinearMap.diagonal([2, 1]))
    with pytest.raises(AlreadyTwisted):
        yau_twist(dual_numbers_twisted(), LinearMap.identity(2))


def yau_twist_pairs():
    pairs = [(dual_numbers(lam)) for lam in (0, 1, 2, -1, Fraction(3, 2))]
    pairs.append((group_algebra_z2(), LinearMap.diagonal([1, -1])))
    for diag in ([1, 2], [1, 3], [2, 3]):
        pairs.append((matrix_algebra(2), matrix_conjugation(2, diag)))
    pairs.append((octonions(), LinearMap.identity(8)))
    pairs.append((octonions(), LinearMap.diagonal([1, -1, -1, 1, 1, -1, -1, 1])))
    return pairs


def test_yau_twist_preserves_alternativity_across_catalogue_pairs():
    for alg, phi in yau_twist_pairs():
        twisted = yau_twist(alg, phi)
        assert check_left_hom_alternative(twisted).holds, phi
        assert check_right_hom_alternative(twisted).holds, phi
        if check_hom_associative(alg).holds:
            assert check_hom_associative(twisted).holds


# --- negation, opposite, metamorphic suites ----------------------------------

def test_negate_zero_and_dual_numbers():
    assert negate(zero_algebra(2)).mu == MulTensor.zero(2)
    alg, _ = dual_numbers(2)
    neg = negate(alg)
    assert neg.mu.c[0][0][0] == -1
    assert neg.mu.c[0][1][1] == -1
    assert neg.mu.c[1][0][1] == -1
    assert negate(neg) == alg


def test_opposite_of_commutative_is_unchanged():
    alg = group_algebra_z2()
    assert opposite(alg) == alg


def test_opposite_octonions_swaps_products():
    alg = octonions()
    opp = opposite(alg)
    assert opp.mu.c[1][2] == alg.mu.c[2][1]
    assert opp.mu.c[2][1] == alg.mu.c[1][2]
    assert opposite(opp) == alg


def test_negation_and_opposite_metamorphic_suite():
    for entry in algebra_entries():
        alg = entry.payload
        if check_left_hom_alternative(alg).holds:
            assert check_left_hom_alternative(negate(alg)).holds, entry.name
            assert check_right_hom_alternative(opposite(alg)).holds, entry.name
        if check_right_hom_alternative(alg).holds:
            assert check_right_hom_alternative(negate(alg)).holds, entry.name
            assert check_left_hom_alternative(opposite(alg)).holds, entry.name


def test_hom_associative_implies_hom_alternative():
    for entry in algebra_entries():
        alg = entry.payload
        if check_hom_associative(alg).holds:
            assert check_left_hom_alternative(alg).holds, entry.name
            assert check_right_hom_alternative(alg).holds, entry.name


# --- morphisms ----------------------------------------------------------------

def test_identity_morphism_holds_everywhere():
    for entry in algebra_entries():
        alg = entry.payload
        assert check_morphism(LinearMap.identity(alg.dim), alg, alg).holds, entry.name


def test_zero_morphism_holds():
    alg = octonions()
    assert check_morphism(LinearMap.zero(8, 8), alg, alg).holds


def test_zero_morphism_into_dim_zero_holds():
    assert check_morphism(LinearMap.zero(0, 8), octonions(), zero_algebra(0)).holds
    assert check_morphism(LinearMap.zero(8, 0), zero_algebra(0), octonions()).holds


def test_morphism_survives_twisting():
    # an algebra morphism commuting with the twists stays a morphism of the twists
    alg, alpha = dual_numbers(2)
    f = LinearMap.diagonal([1, 3])
    assert check_morphism(f, alg, alg).holds
    twisted = yau_twist(alg, alpha)
    assert check_morphism(f, twisted, twisted).holds


def test_morphism_failure_reports_parts():
    alg, _ = dual_numbers(2)
    rep = check_morphism(LinearMap.diagonal([2, 1]), alg, alg)
    assert not rep.holds
    assert not rep.part("MORPHISM_MULTIPLICATIVE").holds
    assert rep.part("MORPHISM_TWIST_COMMUTES").holds


# --- anticommuting elements ----------------------------------------------------

def test_anticommute_identity_on_octonion_units():
    alg = octonions()
    for z in range(8):
        assert check_anticommute_identity(alg, e8(1), e8(2), e8(z))


def test_anticommute_identity_zero_arguments():
    alg = octonions()
    zero = zeros(8)
    assert check_anticommute_identity(alg, zero, zero, e8(3))


def test_anticommute_identity_rejects_commuting_pair():
    alg = octonions()
    with pytest.raises(NotAnticommuting):
        check_anticommute_identity(alg, e8(0), e8(1), e8(3))


def test_anticommute_identity_at_non_basis_vectors():
    alg = octonions()
    x = [Fraction(v) for v in (0, 1, 2, 0, 0, 0, 0, 0)]  # e1 + 2 e2
    y = [Fraction(v) for v in (0, -2, 1, 0, 0, 0, 0, 0)]  # -2 e1 + e2
    z = [Fraction(v) for v in (Fraction(1, 2), 0, 0, 1, 0, 0, 0, 1)]
    assert check_anticommute_identity(alg, x, y, z)


# --- polarization agreement -----------------------------------------------------

def test_left_polarization_agrees_with_direct_evaluation():
    corpus = algebra_corpus(200)
    verdicts = set()
    for idx, alg in enumerate(corpus):
        basis_verdict = check_left_hom_alternative(alg).holds
        rng = point_rng(idx)
        point_verdict = all(
            is_zero(left_alternative_defect(alg, point(rng, alg.dim), point(rng, alg.dim)))
            for _ in range(POINTS_PER_STRUCTURE)
        )
        assert basis_verdict == point_verdict, f"structure {idx}"
        verdicts.add(basis_verdict)
    assert verdicts == {True, False}


def test_checks_are_thread_safe():
    # all values are immutable; concurrent checks must agree with serial ones
    from concurrent.futures import ThreadPoolExecutor

    octo = octonions()
    serial = check_hom_associative(octo)
    with ThreadPoolExecutor(max_workers=4) as pool:
        reports = list(pool.map(lambda _: check_hom_associative(octo), range(8)))
    assert all(r == serial for r in reports)


def test_right_polarization_agrees_with_direct_evaluation():
    corpus = algebra_corpus(64)
    for idx, alg in enumerate(corpus):
        basis_verdict = check_right_hom_alternative(alg).holds
        rng = point_rng(90000 + idx)
        point_verdict = all(
            is_zero(right_alternative_defect(alg, point(rng, alg.dim), point(rng, alg.dim)))
            for _ in range(POINTS_PER_STRUCTURE)
        )
        assert basis_verdict == point_verdict, f"structure {idx}"
