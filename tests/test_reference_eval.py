"""The test oracle's evaluator: its formulas, and its independence from the package.

``reference_eval`` sums each formula in ``Fraction`` loops; the tests below
hold those loops to exact identities, and hold ``reference_eval`` and
``reference_checks`` to evaluating nothing through ``homstruct.exact``.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homstruct.catalog import grouplike_coalgebra, primitive_coalgebra
from homstruct.coalgebras import negate_coalgebra
from homstruct.comodules import regular_comodule
from homstruct.errors import DimensionMismatch
from homstruct.exact import CoactionTensor, LinearMap, MulTensor
from reference_eval import (
    add,
    apply,
    basis,
    coact_apply_ref,
    column,
    is_zero,
    mul,
    neg,
    sub,
    with_coalgebra,
)


def vec(*entries):
    return [Fraction(x) for x in entries]


def coact(t, m):
    return coact_apply_ref(t.g, m, t.dim_coalg, t.dim_mod)


# --- vectors and maps ------------------------------------------------------

def test_vector_arithmetic():
    a = vec(1, Fraction(1, 2))
    b = vec(-1, Fraction(1, 2))
    assert add(a, b) == [Fraction(0), Fraction(1)]
    assert is_zero(sub(a, a))
    assert neg(a) == [Fraction(-1), Fraction(-1, 2)]
    with pytest.raises(DimensionMismatch):
        add(a, vec(1))


def test_linear_map_apply_and_column():
    f = LinearMap.from_rows([[1, 2], [3, 4]])
    assert column(f.entries, 0) == [Fraction(1), Fraction(3)]
    assert apply(f, vec(1, 1)) == [Fraction(3), Fraction(7)]


# --- structure tensors at points ------------------------------------------------

def test_apply_bilinear_zero_tensor():
    t = MulTensor.zero(3)
    assert is_zero(mul(t, vec(1, 2, 3), vec(-1, 0, 5)))


def test_apply_bilinear_nilpotent_square():
    t = MulTensor.from_entries([[[1, 0], [0, 1]], [[0, 1], [0, 0]]])  # the dual numbers
    assert is_zero(mul(t, vec(0, 1), vec(0, 1)))


def test_apply_bilinear_right_unit_tensor():
    # c[i][j][k] = [i == k][j == 0]: right multiplication by e_0 fixes everything
    n = 3
    cube = [[[1 if (i == k and j == 0) else 0 for k in range(n)] for j in range(n)] for i in range(n)]
    t = MulTensor.from_entries(cube)
    assert mul(t, basis(3, 1), basis(3, 0)) == basis(3, 1)


def small_fraction(rng) -> Fraction:
    """A rational in -8..8 with denominator at most 12, each such value possible."""
    d = rng.randint(1, 12)
    return Fraction(rng.randint(-8 * d, 8 * d), d)


@given(st.integers(1, 3), st.randoms(use_true_random=False))
@settings(max_examples=100)
def test_apply_bilinear_is_bilinear(n, rng):
    # One seeded draw an example: drawing each of up to 36 entries through
    # hypothesis strategies cost most of this test's time.
    t = MulTensor.from_entries([[[small_fraction(rng) for _ in range(n)] for _ in range(n)]
                                for _ in range(n)])
    x, x2, y = ([small_fraction(rng) for _ in range(n)] for _ in range(3))
    assert mul(t, add(x, x2), y) == add(mul(t, x, y), mul(t, x2, y))
    assert mul(t, y, add(x, x2)) == add(mul(t, y, x), mul(t, y, x2))


def test_apply_coaction_zero():
    t = CoactionTensor.zero(2, 3)
    out = coact(t, vec(1, 2, 3))
    assert all(x == 0 for row in out for x in row)


def test_apply_coaction_grouplike():
    t = CoactionTensor.from_entries([[[1]]], 1, 1)
    assert coact(t, vec(1)) == [[Fraction(1)]]


def test_apply_coaction_single_entry():
    cube = [[[0, 0], [0, 2]], [[0, 0], [0, 0]]]
    t = CoactionTensor.from_entries(cube, 2, 2)
    out = coact(t, basis(2, 0))
    # brute-force cross-check of out[i][q] = sum_p m_p g[p][i][q]
    for i in range(2):
        for q in range(2):
            assert out[i][q] == sum(basis(2, 0)[p] * t.g[p][i][q] for p in range(2))
    assert out[1][1] == 2 and sum(1 for row in out for x in row if x) == 1


# --- rebase helper --------------------------------------------------------------------

def test_with_coalgebra_swaps_base():
    reg = regular_comodule(grouplike_coalgebra())
    other = negate_coalgebra(grouplike_coalgebra())
    moved = with_coalgebra(reg, other)
    assert moved.coalgebra == other
    assert moved.delta_m == reg.delta_m
    with pytest.raises(DimensionMismatch):
        with_coalgebra(reg, primitive_coalgebra())


# --- independence -----------------------------------------------------------------------

# The package's evaluators: the contraction core, the construction evaluator and
# builder, and the integer reading and packing they run on.
PACKAGE_EVALUATORS = {"construct", "contract", "compose", "rebuild", "pack", "scaled"}


@pytest.mark.parametrize("helper", ["reference_eval.py", "reference_checks.py"])
def test_the_oracle_evaluates_nothing_through_the_package(helper):
    tree = ast.parse((Path(__file__).parent / helper).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    used |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    assert not used & PACKAGE_EVALUATORS
