"""Built-in exactly-known structures and a deterministic random generator.

The octonion multiplication table is pinned to one convention and never
configurable.  Basis e_0..e_7 with e_0 the unit, e_i * e_i = -e_0 for
i >= 1, and the seven oriented triples

    (1,2,3) (1,4,5) (2,4,6) (3,4,7) (2,5,7) (3,6,5) (1,7,6)

each read cyclically: for a triple (a,b,c), e_a e_b = e_c, e_b e_c = e_a,
e_c e_a = e_b, and products anticommute.  This is the doubling of the
quaternions by e_4, so e_1 e_4 = e_5, e_2 e_4 = e_6, e_3 e_4 = e_7.

``DeterministicRng`` is a fixed 64-bit linear congruential generator
(multiplier 6364136223846793005, increment 1442695040888963407, output the
top 31 bits), so that the same seed reproduces the same draws on every
platform; the test corpora and the benchmark's structures are drawn from it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import Mapping, Union

from . import axioms
from .algebras import HomAlgebra, yau_twist
from .coalgebras import HomPoissonCoalgebra, yau_twist_coalgebra
from .comodules import HomComodule, regular_comodule
from .errors import DimensionMismatch
from .exact import (
    ActionTensor,
    CoactionTensor,
    ComulTensor,
    LinearMap,
    MulTensor,
    Record,
    rat,
)
from .modules import HomModule, regular_module

Payload = Union[HomAlgebra, HomPoissonCoalgebra, HomModule, HomComodule]

OCTONION_TRIPLES = ((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 4, 7), (2, 5, 7), (3, 6, 5), (1, 7, 6))


class CatalogEntry(Record):
    """A named catalogue structure and the verdict it pins on each id of its suite."""

    name: str
    payload: Payload
    expected_verdicts: Mapping[str, bool]

    def __init__(self, name, payload, expected_verdicts=MappingProxyType({})):
        # entries are built once and shared, so their verdicts are read-only
        self._store(name, payload, MappingProxyType(dict(expected_verdicts)))


def _cube(n: int, constants: dict[tuple[int, int, int], int]) -> list:
    """The n x n x n cube holding ``constants`` at their index triples, 0 elsewhere."""
    cube = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), value in constants.items():
        cube[i][j][k] = value
    return cube


def _algebra(n: int, mu: dict) -> HomAlgebra:
    """The algebra with e_i e_j = sum_k mu[i, j, k] e_k and alpha = id."""
    return HomAlgebra(n, MulTensor.from_entries(_cube(n, mu)), LinearMap.identity(n))


def _coalgebra(n: int, delta: dict, gamma: dict, cocommutative: bool) -> HomPoissonCoalgebra:
    """The coalgebra with delta(e_k) = sum delta[k, i, j] e_i @ e_j, gamma alike, alpha = id."""
    return HomPoissonCoalgebra(
        n,
        ComulTensor.from_entries(_cube(n, delta)),
        ComulTensor.from_entries(_cube(n, gamma)),
        LinearMap.identity(n),
        cocommutative,
    )


def matrix_algebra(k: int) -> HomAlgebra:
    """Full k x k matrix algebra on the unit basis, E_ij E_lm = [j == l] E_im."""
    if not 1 <= k <= 3:
        raise DimensionMismatch("matrix algebra catalogue covers k <= 3")
    r = range(k)
    return _algebra(k * k, {(i * k + j, j * k + m, i * k + m): 1 for i in r for j in r for m in r})


def matrix_conjugation(k: int, diag) -> LinearMap:
    """Conjugation by an invertible diagonal matrix, as a map on the unit basis."""
    vals = [rat(v) for v in diag]
    if len(vals) != k or any(not v for v in vals):
        raise DimensionMismatch("need k nonzero diagonal entries")
    return LinearMap.diagonal([vals[i] / vals[j] for i in range(k) for j in range(k)])


def octonions() -> HomAlgebra:
    mu = {(0, j, j): 1 for j in range(8)}
    for i in range(1, 8):
        mu[i, 0, i] = 1
        mu[i, i, 0] = -1
    for a, b, c in OCTONION_TRIPLES:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            mu[x, y, z] = 1
            mu[y, x, z] = -1
    return _algebra(8, mu)


def dual_numbers(lam) -> tuple[HomAlgebra, LinearMap]:
    """K[x]/(x^2) with unit e_0 and nilpotent e_1, plus the scaling diag(1, lam)."""
    alg = _algebra(2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})
    return alg, LinearMap.diagonal([1, rat(lam)])


def group_algebra_z2() -> HomAlgebra:
    """K[Z/2]: e_1 * e_1 = e_0. Commutative and associative, so alternative."""
    return _algebra(2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1})


def non_alternative_dim2() -> HomAlgebra:
    """e_0 e_0 = e_1, e_0 e_1 = e_0: fails both alternative laws at (0,0,0)."""
    return _algebra(2, {(0, 0, 1): 1, (0, 1, 0): 1})


def zero_algebra(dim: int) -> HomAlgebra:
    return _algebra(dim, {})


def grouplike_coalgebra() -> HomPoissonCoalgebra:
    """Dim 1, delta(e_0) = e_0 @ e_0, gamma = 0."""
    return _coalgebra(1, {(0, 0, 0): 1}, {}, True)


def primitive_coalgebra() -> HomPoissonCoalgebra:
    """Dim 2: e_0 grouplike, e_1 primitive over it; gamma = 0."""
    return _coalgebra(2, {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1}, {}, True)


def coleibniz_failing_coalgebra() -> HomPoissonCoalgebra:
    """Dim 2 non-example: grouplike cobracket on e_0 breaks the co-Leibniz law.

    delta(e_0) = e_0 @ e_0, delta(e_1) = e_0 @ e_1 (coassociative but not
    cocommutative); gamma(e_0) = e_0 @ e_0.  The co-Leibniz residual at e_0
    is -e_0 @ e_0 @ e_0; skew-cosymmetry and the co-Jacobi law fail as well.
    """
    return _coalgebra(2, {(0, 0, 0): 1, (1, 0, 1): 1}, {(0, 0, 0): 1}, False)


def noncocommutative_coalgebra() -> HomPoissonCoalgebra:
    """Dim 2, verified but not cocommutative.

    delta(e_0) = e_0 @ e_0, delta(e_1) = e_0 @ e_1;
    gamma(e_1) = e_0 @ e_1 - e_1 @ e_0.
    """
    return _coalgebra(2, {(0, 0, 0): 1, (1, 0, 1): 1}, {(1, 0, 1): 1, (1, 1, 0): -1}, False)


def poisson_dual_dim4() -> HomPoissonCoalgebra:
    """Coordinate coalgebra of K[x,y]/(x^2, y^2) with bracket {x, y} = xy.

    Basis order (1, x, y, xy) dualized; the cobracket is nonzero only on the
    top element: gamma(f_xy) = f_x @ f_y - f_y @ f_x.  Cocommutative, with a
    genuinely nonzero cobracket, which makes it the catalogue's workhorse for
    the mixed comodule laws.
    """
    delta = {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1, (2, 0, 2): 1, (2, 2, 0): 1,
             (3, 0, 3): 1, (3, 3, 0): 1, (3, 1, 2): 1, (3, 2, 1): 1}
    return _coalgebra(4, delta, {(3, 1, 2): 1, (3, 2, 1): -1}, True)


def lie_only_coalgebra() -> HomPoissonCoalgebra:
    """Dim 2 with delta = 0 and gamma(e_0) = e_0 @ e_1 - e_1 @ e_0."""
    return _coalgebra(2, {}, {(0, 0, 1): 1, (0, 1, 0): -1}, True)


class DeterministicRng:
    """Fixed 64-bit LCG; identical output on every platform for a given seed."""

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self.MASK

    def next_raw(self) -> int:
        self._state = (self.MULTIPLIER * self._state + self.INCREMENT) & self.MASK
        return self._state >> 33

    def int_between(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi], inclusive."""
        return lo + self.next_raw() % (hi - lo + 1)

    def point_entry(self) -> Fraction:
        """Small rational for evaluation points: numerator -4..4, denominator 1..3."""
        return Fraction(self.int_between(-4, 4), self.int_between(1, 3))


# ---------------------------------------------------------------------------
# Named catalogue with frozen expected verdicts (enforced against the live
# checkers by the test suite).
# ---------------------------------------------------------------------------


def _entry(name: str, payload: Payload, *holds: bool) -> CatalogEntry:
    """An entry whose verdicts pin the ids of its ``--suite all``, in order, to ``holds``."""
    return CatalogEntry(name, payload, dict(zip(axioms.native_suite(payload), holds, strict=True)))


def _bumped(cube, i: int, j: int, k: int) -> list:
    """A copy of ``cube`` with 1 added at ``(i, j, k)``: a corrupted structure."""
    cube = [[list(row) for row in plane] for plane in cube]
    cube[i][j][k] += 1
    return cube


def dual_numbers_twisted() -> HomAlgebra:
    alg, phi = dual_numbers(2)
    return yau_twist(alg, phi)


def matrix2_twisted() -> HomAlgebra:
    return yau_twist(matrix_algebra(2), matrix_conjugation(2, [1, 2]))


def primitive_coalgebra_twisted() -> HomPoissonCoalgebra:
    return yau_twist_coalgebra(primitive_coalgebra(), LinearMap.diagonal([1, 3]))


def poisson_dual_dim4_twisted() -> HomPoissonCoalgebra:
    return yau_twist_coalgebra(poisson_dual_dim4(), LinearMap.diagonal([1, 2, 3, 6]))


def lie_only_coalgebra_twisted() -> HomPoissonCoalgebra:
    return yau_twist_coalgebra(lie_only_coalgebra(), LinearMap.diagonal([2, 1]))


def entries() -> list[CatalogEntry]:
    """All named entries, in catalogue order (built once per process)."""
    return list(_entries())


@cache
def _entries() -> tuple[CatalogEntry, ...]:
    octo = octonions()
    octo_reg = regular_module(octo)
    dual, _ = dual_numbers(2)
    dual_tw = dual_numbers_twisted()
    mat2 = matrix_algebra(2)
    primitive = primitive_coalgebra()
    primitive_tw = primitive_coalgebra_twisted()
    pd4 = poisson_dual_dim4()
    pd4_tw = poisson_dual_dim4_twisted()
    pd4_reg = regular_comodule(pd4)
    lie2 = lie_only_coalgebra()
    lie2_tw = lie_only_coalgebra_twisted()
    grouplike = grouplike_coalgebra()
    corrupt_action = ActionTensor.from_entries(_bumped(octo_reg.action.a, 1, 2, 3), 8, 8, "left")
    corrupt_gamma = CoactionTensor.from_entries(_bumped(pd4_reg.gamma_m.g, 1, 0, 1), 4, 4)
    line = CoactionTensor.from_entries([[[1], [0]]], 2, 1)
    no_action = ActionTensor.zero(8, 2, "left")
    empty_action = ActionTensor.zero(2, 0, "left")

    return (
        _entry("zero2", zero_algebra(2), True, True, True),
        _entry("group_algebra_z2", group_algebra_z2(), True, True, True),
        _entry("dual_numbers", dual, True, True, True),
        _entry("dual_numbers_twisted", dual_tw, True, True, True),
        _entry("matrix2", mat2, True, True, True),
        _entry("matrix2_twisted", matrix2_twisted(), True, True, True),
        _entry("octonions", octo, True, True, False),
        _entry("non_alternative2", non_alternative_dim2(), False, False, False),
        _entry("dual_regular_module", regular_module(dual), True),
        _entry("dual_twisted_regular_module", regular_module(dual_tw), True),
        _entry("matrix2_regular_module", regular_module(mat2), True),
        _entry("octonion_regular_module", octo_reg, True),
        _entry("octonion_regular_module_corrupt",
               HomModule(octo, 8, octo.alpha, corrupt_action, "left"), False),
        _entry("octonion_regular_right_module", regular_module(octo, "right"), True),
        _entry("zero_module_over_octonions",
               HomModule(octo, 2, LinearMap.identity(2), no_action, "left"), True),
        _entry("empty_module_over_dual_numbers",
               HomModule(dual, 0, LinearMap.from_rows([]), empty_action, "left"), True),
        _entry("grouplike1", grouplike, True),
        _entry("primitive2", primitive, True),
        _entry("primitive2_twisted", primitive_tw, True),
        _entry("coleibniz_fail2", coleibniz_failing_coalgebra(), False),
        _entry("noncocommutative2", noncocommutative_coalgebra(), True),
        _entry("poisson_dual4", pd4, True),
        _entry("poisson_dual4_twisted", pd4_tw, True),
        _entry("lie_only2", lie2, True),
        _entry("lie_only2_twisted", lie2_tw, True),
        _entry("grouplike1_regular_comodule", regular_comodule(grouplike), True),
        _entry("primitive2_regular_comodule", regular_comodule(primitive), True),
        _entry("primitive2_twisted_regular_comodule", regular_comodule(primitive_tw), True),
        _entry("poisson_dual4_regular_comodule", pd4_reg, True),
        _entry("poisson_dual4_twisted_regular_comodule", regular_comodule(pd4_tw), True),
        _entry("lie_only2_regular_comodule", regular_comodule(lie2, "lie"), True),
        _entry("lie_only2_twisted_regular_comodule", regular_comodule(lie2_tw, "lie"), True),
        _entry("primitive2_line_comodule",
               HomComodule(primitive, 1, LinearMap.identity(1), "coassociative", line), True),
        _entry("poisson_dual4_comodule_corrupt",
               HomComodule(pd4, 4, pd4.alpha, "poisson", pd4_reg.delta_m, corrupt_gamma), False),
    )


def get(name: str) -> CatalogEntry:
    for entry in entries():
        if entry.name == name:
            return entry
    raise KeyError(name)
