"""Verdicts and failure witnesses for axiom checks, and their text form.

A witness records the basis index tuple at which a residual is nonzero plus
the residual itself (flattened to the lexicographic tensor basis when the
identity lives in a tensor power).  It holds the residual as exact integers,
``digits`` over a positive common ``scale``, reduced so that ``gcd(scale,
*digits) == 1``: the form is canonical, so equal witnesses are equal
rationals.  ``Witness.residual`` builds the ``Vector`` of Fractions only
when read.  Reports keep at most ``WITNESS_CAP`` witnesses, in lexicographic
index order, together with the total count.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable

from .exact import _ZERO, Record, Vector, _set, format_ratio, lazy

WITNESS_CAP = 16


class Witness(Record):
    """Residual ``digits[i] / scale`` at basis index ``index``, in lowest common terms."""

    index: tuple[int, ...]
    digits: tuple[int, ...]
    scale: int

    def __init__(self, index, digits, scale=1):
        if scale <= 0:
            raise ValueError(f"witness scale {scale} is not positive")
        g = gcd(scale, *digits)
        if g != 1:
            digits, scale = tuple([d // g for d in digits]), scale // g
        _set(self, "index", index)
        _set(self, "digits", digits)
        _set(self, "scale", scale)

    @lazy
    def residual(self) -> Vector:
        s = self.scale
        return Vector(tuple(Fraction(d, s) if d else _ZERO for d in self.digits))


class AxiomReport(Record):
    """The verdict on ``axiom``: whether it holds, up to ``WITNESS_CAP`` witnesses,
    the count of failing indices, and the reports of its parts, if any."""

    axiom: str
    holds: bool
    witnesses: tuple[Witness, ...]
    total_failures: int
    parts: tuple["AxiomReport", ...]

    def __init__(self, axiom, holds, witnesses, total_failures, parts=()):
        _set(self, "axiom", axiom)
        _set(self, "holds", holds)
        _set(self, "witnesses", witnesses)
        _set(self, "total_failures", total_failures)
        _set(self, "parts", parts)

    @classmethod
    def aggregate(cls, axiom: str, parts: Iterable["AxiomReport"]) -> "AxiomReport":
        parts = tuple(parts)
        kept: list[Witness] = []
        total = 0
        for part in parts:
            total += part.total_failures
            for w in part.witnesses:
                if len(kept) < WITNESS_CAP:
                    kept.append(w)
        return cls(axiom, total == 0, tuple(kept), total, parts)

    def part(self, axiom: str) -> "AxiomReport":
        for p in self.parts:
            if p.axiom == axiom:
                return p
        raise KeyError(axiom)


def format_report(report: AxiomReport, max_witnesses: int, indent: str = "") -> list[str]:
    """The text lines of ``report``: a PASS or FAIL line, its parts indented
    below it, and for a leaf up to ``max_witnesses`` lines ``(index): [residual]``."""
    if report.holds:
        lines = [f"{indent}{report.axiom}: PASS"]
    else:
        shown = min(len(report.witnesses), max_witnesses)
        lines = [
            f"{indent}{report.axiom}: FAIL"
            f" ({report.total_failures} failing indices; showing {shown})"
        ]
    for part in report.parts:
        lines += format_report(part, max_witnesses, indent + "  ")
    if not report.parts:
        for witness in report.witnesses[:max_witnesses]:
            coords = ",".join(map(str, witness.index))
            s = witness.scale
            values = ", ".join([format_ratio(d, s) for d in witness.digits])
            lines.append(f"{indent}  ({coords}): [{values}]")
    return lines
