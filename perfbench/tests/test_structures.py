"""The benchmark's input generators build what they claim to."""

from fractions import Fraction

import pytest

from homstruct.algebras import (
    HOM_ASSOC,
    LEFT_HOM_ALT,
    RIGHT_HOM_ALT,
    check_hom_associative,
    check_left_hom_alternative,
    check_right_hom_alternative,
)
from homstruct.catalog import octonions
from homstruct.coalgebras import check_hom_poisson_coalgebra
from homstruct.comodules import check_poisson_comodule, regular_comodule

from structures import (
    dense_algebra_side,
    dense_coalgebra_side,
    relabel_cube,
    sedenion_cube,
    sedenions,
    seeded_permutation,
    seeded_skew,
    truncated_poisson_dual,
)
from workloads import SEDENION_FAILURES


def test_sedenion_octonion_block_is_the_pinned_table():
    cube = sedenion_cube()
    octo = octonions().mu.c
    for i in range(8):
        for j in range(8):
            assert cube[i][j][:8] == list(octo[i][j])
            assert not any(cube[i][j][8:])


def test_sedenion_basis_squares_to_minus_unit():
    cube = sedenion_cube()
    minus_unit = [Fraction(-1)] + [Fraction(0)] * 15
    for i in range(1, 16):
        assert cube[i][i] == minus_unit
    assert cube[0][0] == [Fraction(1)] + [Fraction(0)] * 15


def test_sedenion_unit_is_two_sided():
    cube = sedenion_cube()
    for i in range(16):
        assert [k for k, v in enumerate(cube[0][i]) if v] == [i]
        assert [k for k, v in enumerate(cube[i][0]) if v] == [i]


def test_sedenions_are_not_alternative():
    report = check_left_hom_alternative(sedenions())
    assert not report.holds
    assert report.total_failures == SEDENION_FAILURES[LEFT_HOM_ALT]


def test_relabelling_keeps_failure_counts():
    alg = sedenions(seed=11)
    assert alg.mu.c != sedenions().mu.c
    assert check_right_hom_alternative(alg).total_failures == SEDENION_FAILURES[RIGHT_HOM_ALT]
    assert check_hom_associative(alg).total_failures == SEDENION_FAILURES[HOM_ASSOC]


def test_seeded_permutation_is_a_permutation():
    perm = seeded_permutation(5, 16)
    assert sorted(perm) == list(range(16))
    assert perm == seeded_permutation(5, 16)
    cube = sedenion_cube()
    assert relabel_cube(cube, list(range(16))) == cube


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_truncated_poisson_dual_is_a_poisson_coalgebra(seed):
    skew = seeded_skew(seed)
    assert any(x for row in skew for x in row)
    assert all(skew[i][j] == -skew[j][i] for i in range(4) for j in range(4))
    coalg = truncated_poisson_dual(skew)
    assert coalg.dim == 16
    assert check_hom_poisson_coalgebra(coalg).holds


def test_truncated_poisson_dual_small_cases_and_comodule():
    for skew in ([[0, Fraction(3, 2)], [Fraction(-3, 2), 0]],
                 [[0, 1, -2], [-1, 0, Fraction(1, 3)], [2, Fraction(-1, 3), 0]]):
        skew = [[Fraction(x) for x in row] for row in skew]
        coalg = truncated_poisson_dual(skew)
        assert check_hom_poisson_coalgebra(coalg).holds
        assert check_poisson_comodule(regular_comodule(coalg)).holds


def test_truncated_poisson_dual_matches_catalogue_dim4():
    from homstruct.catalog import poisson_dual_dim4

    coalg = truncated_poisson_dual([[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]])
    ref = poisson_dual_dim4()
    assert coalg.delta == ref.delta
    assert coalg.gamma == ref.gamma


def test_dense_generation_reproduces_from_seed():
    first, again, other = dense_algebra_side(3), dense_algebra_side(3), dense_algebra_side(4)
    assert [(a, m) for a, m in first] == [(a, m) for a, m in again]
    assert first[0][0] != other[0][0]
    assert dense_coalgebra_side(3) == dense_coalgebra_side(3)
    assert [a.dim for a, _ in first] == [3, 4, 5, 6]
    assert [c.dim for c in dense_coalgebra_side(3)] == [3, 4, 5]


def test_dense_generation_has_non_integer_entries():
    alg, mod = dense_algebra_side(9)[0]
    coalg = dense_coalgebra_side(9)[0]
    for tensor in (alg.mu.c, mod.action.a, coalg.delta.d, coalg.gamma.d):
        entries = [x for plane in tensor for row in plane for x in row]
        assert any(x.denominator > 1 for x in entries)
        assert sum(1 for x in entries if x) > len(entries) // 2
