"""The benchmark's independent residuals agree with the program's witnesses."""

import pytest

from homstruct.algebras import (
    HOM_ASSOC,
    LEFT_HOM_ALT,
    RIGHT_HOM_ALT,
    check_hom_associative,
    check_left_hom_alternative,
    check_right_hom_alternative,
)
from homstruct.modules import check_left_module

import checks
from structures import dense_algebra_side

CHECKERS = {
    LEFT_HOM_ALT: check_left_hom_alternative,
    RIGHT_HOM_ALT: check_right_hom_alternative,
    HOM_ASSOC: check_hom_associative,
}


@pytest.mark.parametrize("axiom", sorted(CHECKERS))
def test_algebra_residual_matches_program_witnesses(axiom):
    alg, _ = dense_algebra_side(5)[1]
    report = CHECKERS[axiom](alg)
    assert len(report.witnesses) == 16
    for w in report.witnesses:
        assert checks.algebra_residual(alg.mu.c, alg.alpha.entries, axiom, w.index) == list(
            w.residual.entries)


def test_left_module_residual_matches_program_witnesses():
    alg, mod = dense_algebra_side(5)[1]
    report = check_left_module(mod)
    assert report.witnesses
    for w in report.witnesses:
        got = checks.left_module_residual(alg.mu.c, alg.alpha.entries, mod.action.a,
                                          mod.beta.entries, w.index)
        assert got == list(w.residual.entries)


def test_parse_verify_reads_nested_parts():
    out = ("HOM_POISSON_COALGEBRA: FAIL (1 failing indices; showing 1)\n"
           "  COCOMMUTATIVITY: PASS\n"
           "  HOM_COLEIBNIZ: FAIL (1 failing indices; showing 1)\n"
           "    (0,): [0, -1, 0, 0, 0, 0, 0, 0]\n")
    (top,) = checks.parse_verify(out)
    assert [p.axiom for p in top.parts] == ["COCOMMUTATIVITY", "HOM_COLEIBNIZ"]
    assert top.parts[1].witnesses == [((0,), [0, -1, 0, 0, 0, 0, 0, 0])]
    assert checks.verify_invariant(["HOM_POISSON_COALGEBRA"])(1, out) is None
    with pytest.raises(ValueError):
        checks.parse_verify(out + "stray line\n")
