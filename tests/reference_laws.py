"""The per-coordinate law evaluation that the packed core replaced: a test oracle.

``UnpackedLaw`` compiles a row exactly as ``laws.Law`` did before the last
residual letter was packed into slots of one ``int``: every residual
coordinate is its own key of the contraction, added term by term, and
``report`` builds the witnesses from those keys.  ``test_laws.py`` requires
the packed row, checked as a plan of one (``check_row``), to equal it, field
for field.  ``contracted`` reads ``exact.contract``'s sum back as a dict, and
``compiled_row`` reads what a plan compiles a row to.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import product
from math import lcm, prod
from operator import itemgetter

from homstruct.exact import Vector, contract, offsets
from homstruct.laws import Law, Plan, _row
from homstruct.report import WITNESS_CAP, AxiomReport
from reference_checks import witness_of


def check_row(law: Law, axiom: str, **operands) -> AxiomReport:
    """``law`` on the bound maps and tensors, checked as a plan of one row."""
    return Plan({axiom: [(axiom, law, operands)]}).check(axiom)


def compiled_row(law: Law, maps: tuple = ()) -> tuple:
    """``laws._row`` of ``law``, less the identity maps named in ``maps``, with operand
    number ``n`` being ``law.names[n]``: ``(groups, classes, sizes)``."""
    return _row(law, tuple(range(len(law.names))), maps)


def contracted(spec: str, *tensors: dict) -> dict:
    """``contract``'s sum of ``spec`` as ``{index tuple: value}`` over its nonzero entries:
    added into a list over the output letters, each sized by the largest index an
    operand holds for it, and read back."""
    inputs, out = spec.split("->")
    sizes: dict = {}
    for letters, tensor in zip(inputs.split(","), tensors):
        for key in tensor:
            for c, i in zip(letters, key):
                sizes[c] = max(sizes.get(c, 0), i + 1)
    shape = [sizes.get(c, 0) for c in out]
    strides = tuple(prod(shape[axis + 1 :]) for axis in range(len(shape)))
    sink = [0] * prod(shape)
    contract(spec, *tensors, into=(sink, offsets(spec, strides), 1))
    return {key: v for key, v in zip(product(*map(range, shape)), sink) if v}


def report(axiom: str, residual: dict, width: int, shape: tuple, scale: int) -> AxiomReport:
    """Report on a sparse residual ``{index + position: value * scale}``."""
    failing = sorted({key[:width] for key, v in residual.items() if v})
    if not failing:
        return AxiomReport(axiom, True, (), 0)
    zero = Fraction(0)
    positions = list(product(*map(range, shape)))
    kept = tuple(
        witness_of(index, Vector(tuple(
            Fraction(x, scale) if (x := residual.get(index + p)) else zero for p in positions
        )))
        for index in failing[:WITNESS_CAP]
    )
    return AxiomReport(axiom, False, kept, len(failing))


class UnpackedLaw:
    """A law row evaluated one residual coordinate at a time."""

    def __init__(self, index: str, residual: str, *terms: str):
        self.index, self.residual = index, residual
        out = index + residual
        groups: dict[tuple, tuple] = {}
        sizes: dict[str, tuple[str, int]] = {}
        for term in terms:
            sign, *operands = term.split()
            names = tuple(op.split(".")[0] for op in operands)
            subscripts = [op.split(".")[1] for op in operands]
            for name, sub in zip(names, subscripts):
                for axis, c in enumerate(sub):
                    sizes.setdefault(c, (name, axis))
            rename = {c: i for i, c in enumerate(dict.fromkeys("".join(subscripts)))}
            form = (
                names,
                tuple(tuple(rename[c] for c in sub) for sub in subscripts),
                frozenset(map(rename.get, out)),
            )
            if form not in groups:
                groups[form] = (names, ",".join(subscripts) + "->" + out, rename, [])
            _, _, first, uses = groups[form]
            letter_of = {i: c for c, i in first.items()}
            positions = [out.index(letter_of[rename[c]]) for c in out]
            permute = None if positions == list(range(len(out))) else itemgetter(*positions)
            uses.append((sign == "+", permute))
        self.groups = [(names, spec, tuple(uses)) for names, spec, _, uses in groups.values()]
        self._names = {name for names, _, _ in self.groups for name in names}
        self._sizes = [sizes[c] for c in residual]

    @classmethod
    def of(cls, law) -> "UnpackedLaw":
        """The same row as a ``laws.Law``."""
        return cls(law.index, law.residual, *law.terms)

    def check(self, axiom: str, **operands) -> AxiomReport:
        scaled = {name: operands[name].scaled for name in self._names}
        terms = []
        for names, spec, uses in self.groups:
            scale = prod(scaled[name][0] for name in names)
            terms.append((scale, contracted(spec, *(scaled[name][1] for name in names)), uses))
        common = lcm(*(scale for scale, _, _ in terms))
        residual: dict = defaultdict(int)
        for scale, value, uses in terms:
            factor = common // scale
            for positive, permute in uses:
                m = factor if positive else -factor
                for key, v in value.items():
                    residual[key if permute is None else permute(key)] += m * v
        shape = tuple(operands[name].shape[axis] for name, axis in self._sizes)
        return report(axiom, residual, len(self.index), shape, common)
