"""Witnesses as exact integers, and the one text form of a report."""

import random
from fractions import Fraction

import pytest

from homstruct import axioms
from homstruct.catalog import DeterministicRng
from homstruct.cli import main
from homstruct.coalgebras import HomPoissonCoalgebra
from homstruct.exact import ComulTensor, LinearMap, Vector, format_ratio, format_rational
from homstruct.fileformat import single_structure_file, write_file
from homstruct.report import AxiomReport, Witness
from reference_checks import witness_of


def test_witness_of_is_canonical_over_any_common_scale():
    half_one = Vector.from_entries([Fraction(1, 2), 1])
    w = witness_of((0, 1), half_one)
    assert (w.digits, w.scale) == ((1, 2), 2)
    for digits, scale in (((2, 4), 4), ((1, 2), 2), ((10, 20), 20)):
        v = Witness((0, 1), digits, scale)
        assert (v.digits, v.scale) == ((1, 2), 2)
        assert v == w and hash(v) == hash(w)
        assert v.residual == half_one
    assert Witness((1, 0), (2, 4), 4) != w
    assert Witness((0, 1), (1, 3), 2) != w
    zero = witness_of((3,), Vector.zero(2))
    assert (zero.digits, zero.scale) == ((0, 0), 1)
    assert zero.residual == Vector.zero(2)
    with pytest.raises(ValueError, match="not positive"):
        Witness((0,), (1,), 0)


def test_witness_residual_is_built_once_and_only_when_read():
    w = Witness((0,), (3, 0, -6), 4)
    assert (w.digits, w.scale) == ((3, 0, -6), 4)
    assert "residual" not in vars(w)
    assert w.residual.entries == (Fraction(3, 4), 0, Fraction(-3, 2))
    assert w.residual is w.residual


def test_format_ratio_is_format_rational_of_the_fraction():
    rng = random.Random(8)
    for _ in range(3000):
        den = rng.choice([1, 2, 72, rng.randint(1, 10**6)])
        num = rng.choice([0, rng.randint(-10**7, 10**7), den * rng.randint(-5, 5)])
        assert format_ratio(num, den) == format_rational(Fraction(num, den)), (num, den)


def lines_via_fractions(report: AxiomReport, max_witnesses: int, indent: str = "") -> list[str]:
    """The report text built from each witness's ``Fraction`` residual: the oracle."""
    if report.holds:
        lines = [f"{indent}{report.axiom}: PASS"]
    else:
        shown = min(len(report.witnesses), max_witnesses)
        lines = [f"{indent}{report.axiom}: FAIL"
                 f" ({report.total_failures} failing indices; showing {shown})"]
    for part in report.parts:
        lines += lines_via_fractions(part, max_witnesses, indent + "  ")
    if not report.parts:
        for w in report.witnesses[:max_witnesses]:
            values = ", ".join(format_rational(x) for x in w.residual.entries)
            lines.append(f"{indent}  ({','.join(map(str, w.index))}): [{values}]")
    return lines


def test_verify_prints_witnesses_as_their_fraction_residuals(tmp_path, capsys):
    n, rng = 4, DeterministicRng(4)

    def cube():
        return [[[rng.point_entry() for _ in range(n)] for _ in range(n)] for _ in range(n)]

    alpha = LinearMap.from_rows([[rng.point_entry() for _ in range(n)] for _ in range(n)])
    coalg = HomPoissonCoalgebra(n, ComulTensor.from_entries(cube()),
                                ComulTensor.from_entries(cube()), alpha, True)
    path = tmp_path / "dense4.json"
    write_file(path, single_structure_file("dense4", coalg))
    reports = axioms.verify(coalg, axioms.native_suite(coalg))
    assert not all(r.holds for r in reports)
    for cap in (2, 16):
        assert main(["verify", str(path), "dense4", "--max-witnesses", str(cap)]) == 1
        printed = capsys.readouterr().out.splitlines()
        want = [line for r in reports for line in lines_via_fractions(r, cap)]
        assert printed == want
        assert sum(line.lstrip().startswith("(") for line in printed) > cap
        assert any("/" in line for line in printed)
