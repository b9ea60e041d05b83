"""Deterministic random structures, and mixed pass/fail corpora of them for the
polarization agreement suites.

Every structure is reproducible from the fixed seeds below, its entries drawn
from ``catalog.DeterministicRng``; roughly one in eight algebra entries (one in
ten module entries) is a known-good structure so that both verdict classes are
exercised.
"""

from fractions import Fraction

from homstruct import HomAlgebra, HomModule
from homstruct.catalog import DeterministicRng, dual_numbers, dual_numbers_twisted, group_algebra_z2
from homstruct.errors import DimensionMismatch
from homstruct.exact import ActionTensor, LinearMap, MulTensor
from homstruct.modules import regular_module

POINTS_PER_STRUCTURE = 50


def tensor_entry(rng: DeterministicRng) -> Fraction:
    """An entry in {-2, ..., 2}."""
    return Fraction(rng.int_between(-2, 2))


def random_structure(seed: int, dim: int, kind: str):
    """Deterministic pseudo-random structure with entries in {-2, ..., 2}."""
    if dim < 0 or dim > 4:
        raise DimensionMismatch("random structures cover dims 0..4")
    rng = DeterministicRng(seed)

    def draw(axes: int):
        """A dim x ... x dim block of ``axes`` axes, drawn in lexicographic order."""
        if not axes:
            return tensor_entry(rng)
        return [draw(axes - 1) for _ in range(dim)]

    if kind == "mul":
        return MulTensor.from_entries(draw(3))
    if kind == "action":
        return ActionTensor.from_entries(draw(3), dim, dim, "left")
    if kind == "algebra":
        mul = MulTensor.from_entries(draw(3))
        return HomAlgebra(dim, mul, LinearMap.from_rows(draw(2)))
    raise DimensionMismatch(f"unknown random structure kind {kind!r}")


def _random_map(seed: int, dim: int) -> LinearMap:
    rng = DeterministicRng(seed)
    return LinearMap.from_rows([[tensor_entry(rng) for _ in range(dim)] for _ in range(dim)])


def _known_good_algebras():
    return (dual_numbers(2)[0], group_algebra_z2(), dual_numbers_twisted())


def algebra_corpus(count: int = 200) -> list[HomAlgebra]:
    out = []
    for i in range(count):
        if i % 8 == 0:
            dim = 1 + (i // 8) % 3
            out.append(HomAlgebra(dim, MulTensor.zero(dim), _random_map(5000 + i, dim)))
        elif i % 8 == 4:
            out.append(_known_good_algebras()[(i // 8) % 3])
        else:
            out.append(random_structure(1000 + i, 1 + i % 3, "algebra"))
    return out


def module_corpus(count: int = 100) -> list[HomModule]:
    out = []
    for i in range(count):
        if i % 10 == 0:
            out.append(regular_module(_known_good_algebras()[(i // 10) % 3]))
        else:
            dim = 1 + i % 3
            alg = random_structure(2000 + i, dim, "algebra")
            action = random_structure(3000 + i, dim, "action")
            out.append(HomModule(alg, dim, _random_map(4000 + i, dim), action, "left"))
    return out


def point_rng(tag: int) -> DeterministicRng:
    return DeterministicRng(777000 + tag)
