"""Verdicts and failure witnesses for axiom checks.

A witness records the basis index tuple at which a residual is nonzero plus
the residual itself (flattened to the lexicographic tensor basis when the
identity lives in a tensor power).  Reports keep at most ``WITNESS_CAP``
witnesses, in lexicographic index order, together with the total count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .exact import Vector

WITNESS_CAP = 16


@dataclass(frozen=True)
class Witness:
    index: tuple[int, ...]
    residual: Vector


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    holds: bool
    witnesses: tuple[Witness, ...]
    total_failures: int
    parts: tuple["AxiomReport", ...] = field(default=())

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
