"""Guards on the law core: shared contractions, and joint scaling of the inputs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homstruct import algebras, coalgebras, comodules, modules
from homstruct.algebras import (
    HomAlgebra,
    check_hom_associative,
    check_left_hom_alternative,
    check_right_hom_alternative,
)
from homstruct.exact import ActionTensor, LinearMap, MulTensor
from homstruct.laws import COMMUTES, Law
from homstruct.modules import HomModule, check_left_module, check_right_module

# (terms, distinct contractions) of every row: terms that are one contraction
# up to a permutation of the output letters are contracted once.
ROWS = {
    "LEFT_HOM_ALT": (algebras._LAWS[algebras.LEFT_HOM_ALT], 4, 2),
    "RIGHT_HOM_ALT": (algebras._LAWS[algebras.RIGHT_HOM_ALT], 4, 2),
    "HOM_ASSOC": (algebras._LAWS[algebras.HOM_ASSOC], 2, 2),
    "algebra multiplicative": (algebras._MULTIPLICATIVE, 2, 2),
    "COMMUTES": (COMMUTES, 2, 2),
    "LEFT_MODULE": (modules._LAWS[modules.LEFT_MODULE], 4, 2),
    "RIGHT_MODULE": (modules._LAWS[modules.RIGHT_MODULE], 4, 2),
    "module intertwines left": (modules._INTERTWINES["left"], 2, 2),
    "module intertwines right": (modules._INTERTWINES["right"], 2, 2),
    "COCOMMUTATIVITY": (coalgebras._ONE_MAP_LAWS[coalgebras.COCOMMUTATIVITY], 2, 1),
    "coalgebra multiplicative": (coalgebras._MULTIPLICATIVE, 2, 2),
    "HOM_COASSOCIATIVITY": (coalgebras._ONE_MAP_LAWS[coalgebras.HOM_COASSOCIATIVITY], 2, 2),
    "SKEW_COSYMMETRY": (coalgebras._ONE_MAP_LAWS[coalgebras.SKEW_COSYMMETRY], 2, 1),
    "HOM_COJACOBI": (coalgebras._ONE_MAP_LAWS[coalgebras.HOM_COJACOBI], 3, 1),
    "HOM_COLEIBNIZ": (coalgebras._COLEIBNIZ, 3, 3),
    "coalgebra morphism": (coalgebras._MORPHISM, 2, 2),
    "coaction multiplicative": (comodules._MULTIPLICATIVE, 2, 2),
    "DELTA_COACTION_COASSOCIATIVITY": (
        comodules._LAWS[comodules.DELTA_COACTION_COASSOCIATIVITY], 2, 2
    ),
    "GAMMA_COACTION_COMPATIBILITY": (comodules._LAWS[comodules.GAMMA_COACTION_COMPATIBILITY], 3, 2),
    "COMODULE_COLEIBNIZ": (comodules._LAWS[comodules.COMODULE_COLEIBNIZ], 3, 3),
    "COMODULE_COMULT_COMPAT": (comodules._LAWS[comodules.COMODULE_COMULT_COMPAT], 3, 2),
    "comodule intertwines": (comodules._INTERTWINES, 2, 2),
}


@pytest.mark.parametrize("row", list(ROWS))
def test_row_compiles_to_its_distinct_contractions(row):
    law, terms, contractions = ROWS[row]
    assert sum(len(uses) for _, _, uses in law.groups) == terms
    assert len(law.groups) == contractions


def test_shared_term_adds_under_its_own_permutation():
    # t.kji is t.kij with the output legs swapped: one contraction, two uses.
    law = Law("k", "ij", "+ t.kij", "+ t.kji", "- t.kij")
    t = MulTensor.from_entries([[[1, 2], [3, 4]], [[5, 6], [7, 8]]])
    report = law.check("SYMMETRIC_PART", t=t)
    assert len(law.groups) == 1
    assert [w.residual.entries for w in report.witnesses] == [(1, 3, 2, 4), (5, 7, 6, 8)]


# --- joint scaling ------------------------------------------------------------

entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)
factors = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(lambda c: c != 0)


def cube(data, a: int, b: int, c: int):
    flat = data.draw(st.lists(entries, min_size=a * b * c, max_size=a * b * c))
    return [[[flat[(i * b + j) * c + k] for k in range(c)] for j in range(b)] for i in range(a)]


def times(c, cube):
    return [[[c * x for x in row] for row in plane] for plane in cube]


def matrix(data, rows: int, cols: int):
    return LinearMap.from_rows(cube(data, 1, rows, cols)[0])


def assert_scaled(report, scaled, factor):
    """Same verdict, count and witness indices; every residual times ``factor``."""
    assert (scaled.holds, scaled.total_failures) == (report.holds, report.total_failures)
    assert [w.index for w in scaled.witnesses] == [w.index for w in report.witnesses]
    for w, v in zip(report.witnesses, scaled.witnesses):
        assert v.residual.entries == tuple(factor * x for x in w.residual.entries)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(0, 3), factors)
def test_jointly_scaled_laws_scale_residuals_by_c_squared(data, n, m, c):
    """Every law is quadratic in (mu, act) jointly: scaling both by c scales residuals by c^2."""
    mu = cube(data, n, n, n)
    alpha = matrix(data, n, n)
    alg = HomAlgebra(n, MulTensor.from_entries(mu), alpha)
    alg_c = HomAlgebra(n, MulTensor.from_entries(times(c, mu)), alpha)
    for check in (check_left_hom_alternative, check_right_hom_alternative, check_hom_associative):
        assert_scaled(check(alg), check(alg_c), c**2)
    beta = matrix(data, m, m)
    for side, check in (("left", check_left_module), ("right", check_right_module)):
        shape = (n, m, m) if side == "left" else (m, n, m)
        act = cube(data, *shape)
        mod, mod_c = (
            HomModule(a, m, beta, ActionTensor.from_entries(t, n, m, side), side)
            for a, t in ((alg, act), (alg_c, times(c, act)))
        )
        assert_scaled(check(mod), check(mod_c), c**2)

