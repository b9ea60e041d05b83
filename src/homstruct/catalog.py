"""Built-in exactly-known structures and deterministic random generators.

The octonion multiplication table is pinned to one convention and never
configurable.  Basis e_0..e_7 with e_0 the unit, e_i * e_i = -e_0 for
i >= 1, and the seven oriented triples

    (1,2,3) (1,4,5) (2,4,6) (3,4,7) (2,5,7) (3,6,5) (1,7,6)

each read cyclically: for a triple (a,b,c), e_a e_b = e_c, e_b e_c = e_a,
e_c e_a = e_b, and products anticommute.  This is the doubling of the
quaternions by e_4, so e_1 e_4 = e_5, e_2 e_4 = e_6, e_3 e_4 = e_7.

Random structures come from a fixed 64-bit linear congruential generator
(multiplier 6364136223846793005, increment 1442695040888963407, output the
top 31 bits) so that the same seed reproduces the same structure on every
platform.  Tensor entries are drawn from {-2, ..., 2}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import Mapping, Union

from . import axioms
from .algebras import HOM_ASSOC, LEFT_HOM_ALT, RIGHT_HOM_ALT, HomAlgebra, yau_twist
from .coalgebras import HOM_POISSON_COALGEBRA, HomPoissonCoalgebra, yau_twist_coalgebra
from .comodules import (
    COASSOC_COMODULE,
    LIE_COMODULE,
    POISSON_COMODULE,
    HomComodule,
    regular_comodule,
)
from .errors import DimensionMismatch
from .exact import (
    ActionTensor,
    CoactionTensor,
    ComulTensor,
    LinearMap,
    MulTensor,
    Vector,
    rat,
)
from .modules import LEFT_MODULE, RIGHT_MODULE, HomModule, regular_module

Payload = Union[HomAlgebra, HomPoissonCoalgebra, HomModule, HomComodule]

OCTONION_TRIPLES = ((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 4, 7), (2, 5, 7), (3, 6, 5), (1, 7, 6))


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    payload: Payload
    expected_verdicts: Mapping[str, bool] = field(default_factory=dict)

    def __post_init__(self):
        # entries are built once and shared, so their verdicts are read-only
        object.__setattr__(self, "expected_verdicts", MappingProxyType(dict(self.expected_verdicts)))


def matrix_algebra(k: int) -> HomAlgebra:
    """Full k x k matrix algebra on the unit basis, E_ij E_lm = [j == l] E_im."""
    if not 1 <= k <= 3:
        raise DimensionMismatch("matrix algebra catalogue covers k <= 3")
    n = k * k
    cube = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(k):
        for j in range(k):
            for l in range(k):
                for m in range(k):
                    if j == l:
                        cube[i * k + j][l * k + m][i * k + m] = 1
    return HomAlgebra(n, MulTensor.from_entries(cube), LinearMap.identity(n))


def matrix_conjugation(k: int, diag) -> LinearMap:
    """Conjugation by an invertible diagonal matrix, as a map on the unit basis."""
    vals = [rat(v) for v in diag]
    if len(vals) != k or any(not v for v in vals):
        raise DimensionMismatch("need k nonzero diagonal entries")
    return LinearMap.diagonal([vals[i] / vals[j] for i in range(k) for j in range(k)])


def octonions() -> HomAlgebra:
    cube = [[[0] * 8 for _ in range(8)] for _ in range(8)]
    for j in range(8):
        cube[0][j][j] = 1
    for i in range(1, 8):
        cube[i][0][i] = 1
        cube[i][i][0] = -1
    for a, b, c in OCTONION_TRIPLES:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            cube[x][y][z] = 1
            cube[y][x][z] = -1
    return HomAlgebra(8, MulTensor.from_entries(cube), LinearMap.identity(8))


def dual_numbers(lam) -> tuple[HomAlgebra, LinearMap]:
    """K[x]/(x^2) with unit e_0 and nilpotent e_1, plus the scaling diag(1, lam)."""
    cube = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    cube[0][0][0] = 1
    cube[0][1][1] = 1
    cube[1][0][1] = 1
    alg = HomAlgebra(2, MulTensor.from_entries(cube), LinearMap.identity(2))
    return alg, LinearMap.diagonal([1, rat(lam)])


def group_algebra_z2() -> HomAlgebra:
    """K[Z/2]: e_1 * e_1 = e_0. Commutative and associative, so alternative."""
    cube = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    cube[0][0][0] = 1
    cube[0][1][1] = 1
    cube[1][0][1] = 1
    cube[1][1][0] = 1
    return HomAlgebra(2, MulTensor.from_entries(cube), LinearMap.identity(2))


def non_alternative_dim2() -> HomAlgebra:
    """e_0 e_0 = e_1, e_0 e_1 = e_0: fails both alternative laws at (0,0,0)."""
    cube = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    cube[0][0][1] = 1
    cube[0][1][0] = 1
    return HomAlgebra(2, MulTensor.from_entries(cube), LinearMap.identity(2))


def zero_algebra(dim: int) -> HomAlgebra:
    return HomAlgebra(dim, MulTensor.zero(dim), LinearMap.identity(dim))


def grouplike_coalgebra() -> HomPoissonCoalgebra:
    """Dim 1, delta(e_0) = e_0 @ e_0, gamma = 0."""
    d = [[[1]]]
    return HomPoissonCoalgebra(
        1, ComulTensor.from_entries(d), ComulTensor.zero(1), LinearMap.identity(1), True
    )


def primitive_coalgebra() -> HomPoissonCoalgebra:
    """Dim 2: e_0 grouplike, e_1 primitive over it; gamma = 0."""
    d = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    d[0][0][0] = 1
    d[1][0][1] = 1
    d[1][1][0] = 1
    return HomPoissonCoalgebra(
        2, ComulTensor.from_entries(d), ComulTensor.zero(2), LinearMap.identity(2), True
    )


def coleibniz_failing_coalgebra() -> HomPoissonCoalgebra:
    """Dim 2 non-example: grouplike cobracket on e_0 breaks the co-Leibniz law.

    delta(e_0) = e_0 @ e_0, delta(e_1) = e_0 @ e_1 (coassociative but not
    cocommutative); gamma(e_0) = e_0 @ e_0.  The co-Leibniz residual at e_0
    is -e_0 @ e_0 @ e_0; skew-cosymmetry and the co-Jacobi law fail as well.
    """
    d = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    d[0][0][0] = 1
    d[1][0][1] = 1
    g = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    g[0][0][0] = 1
    return HomPoissonCoalgebra(
        2, ComulTensor.from_entries(d), ComulTensor.from_entries(g), LinearMap.identity(2), False
    )


def noncocommutative_coalgebra() -> HomPoissonCoalgebra:
    """Dim 2, verified but not cocommutative.

    delta(e_0) = e_0 @ e_0, delta(e_1) = e_0 @ e_1;
    gamma(e_1) = e_0 @ e_1 - e_1 @ e_0.
    """
    d = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    d[0][0][0] = 1
    d[1][0][1] = 1
    g = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    g[1][0][1] = 1
    g[1][1][0] = -1
    return HomPoissonCoalgebra(
        2, ComulTensor.from_entries(d), ComulTensor.from_entries(g), LinearMap.identity(2), False
    )


def poisson_dual_dim4() -> HomPoissonCoalgebra:
    """Coordinate coalgebra of K[x,y]/(x^2, y^2) with bracket {x, y} = xy.

    Basis order (1, x, y, xy) dualized; the cobracket is nonzero only on the
    top element: gamma(f_xy) = f_x @ f_y - f_y @ f_x.  Cocommutative, with a
    genuinely nonzero cobracket, which makes it the catalogue's workhorse for
    the mixed comodule laws.
    """
    n = 4
    d = [[[0] * n for _ in range(n)] for _ in range(n)]
    d[0][0][0] = 1
    d[1][0][1] = 1
    d[1][1][0] = 1
    d[2][0][2] = 1
    d[2][2][0] = 1
    d[3][0][3] = 1
    d[3][3][0] = 1
    d[3][1][2] = 1
    d[3][2][1] = 1
    g = [[[0] * n for _ in range(n)] for _ in range(n)]
    g[3][1][2] = 1
    g[3][2][1] = -1
    return HomPoissonCoalgebra(
        n, ComulTensor.from_entries(d), ComulTensor.from_entries(g), LinearMap.identity(n), True
    )


def lie_only_coalgebra() -> HomPoissonCoalgebra:
    """Dim 2 with delta = 0 and gamma(e_0) = e_0 @ e_1 - e_1 @ e_0."""
    g = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    g[0][0][1] = 1
    g[0][1][0] = -1
    return HomPoissonCoalgebra(
        2, ComulTensor.zero(2), ComulTensor.from_entries(g), LinearMap.identity(2), True
    )


def poisson_coalgebra_examples() -> list[HomPoissonCoalgebra]:
    return [
        grouplike_coalgebra(),
        primitive_coalgebra(),
        coleibniz_failing_coalgebra(),
        noncocommutative_coalgebra(),
        poisson_dual_dim4(),
        lie_only_coalgebra(),
    ]


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

    def tensor_entry(self) -> Fraction:
        return Fraction(self.int_between(-2, 2))

    def point_entry(self) -> Fraction:
        """Small rational for evaluation points: numerator -4..4, denominator 1..3."""
        return Fraction(self.int_between(-4, 4), self.int_between(1, 3))

    def vector(self, dim: int) -> Vector:
        return Vector(tuple(self.point_entry() for _ in range(dim)))


def random_structure(seed: int, dim: int, kind: str):
    """Deterministic pseudo-random structure with entries in {-2, ..., 2}."""
    if dim < 0 or dim > 4:
        raise DimensionMismatch("random structures cover dims 0..4")
    rng = DeterministicRng(seed)
    if kind == "mul":
        return MulTensor.from_entries(
            [[[rng.tensor_entry() for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
        )
    if kind == "action":
        return ActionTensor.from_entries(
            [[[rng.tensor_entry() for _ in range(dim)] for _ in range(dim)] for _ in range(dim)],
            dim,
            dim,
            "left",
        )
    if kind == "algebra":
        mul = MulTensor.from_entries(
            [[[rng.tensor_entry() for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
        )
        alpha = LinearMap.from_rows([[rng.tensor_entry() for _ in range(dim)] for _ in range(dim)])
        return HomAlgebra(dim, mul, alpha)
    raise DimensionMismatch(f"unknown random structure kind {kind!r}")


# ---------------------------------------------------------------------------
# Named catalogue with frozen expected verdicts (enforced against the live
# checkers by the test suite).
# ---------------------------------------------------------------------------


def _alg_entry(name: str, alg: HomAlgebra, left: bool, right: bool, assoc: bool) -> CatalogEntry:
    return CatalogEntry(
        name, alg, {LEFT_HOM_ALT: left, RIGHT_HOM_ALT: right, HOM_ASSOC: assoc}
    )


def _corrupt_action(action: ActionTensor, i: int, p: int, q: int) -> ActionTensor:
    cube = [[list(row) for row in plane] for plane in action.a]
    cube[i][p][q] += 1
    return ActionTensor.from_entries(cube, action.dim_alg, action.dim_mod, action.side)


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
    dual, _ = dual_numbers(2)
    dual_tw = dual_numbers_twisted()
    mat2 = matrix_algebra(2)
    mat2_tw = matrix2_twisted()

    out: list[CatalogEntry] = [
        _alg_entry("zero2", zero_algebra(2), True, True, True),
        _alg_entry("group_algebra_z2", group_algebra_z2(), True, True, True),
        _alg_entry("dual_numbers", dual, True, True, True),
        _alg_entry("dual_numbers_twisted", dual_tw, True, True, True),
        _alg_entry("matrix2", mat2, True, True, True),
        _alg_entry("matrix2_twisted", mat2_tw, True, True, True),
        _alg_entry("octonions", octo, True, True, False),
        _alg_entry("non_alternative2", non_alternative_dim2(), False, False, False),
    ]

    out.append(
        CatalogEntry("dual_regular_module", regular_module(dual), {LEFT_MODULE: True})
    )
    out.append(
        CatalogEntry(
            "dual_twisted_regular_module", regular_module(dual_tw), {LEFT_MODULE: True}
        )
    )
    out.append(
        CatalogEntry("matrix2_regular_module", regular_module(mat2), {LEFT_MODULE: True})
    )
    octo_reg = regular_module(octo)
    out.append(CatalogEntry("octonion_regular_module", octo_reg, {LEFT_MODULE: True}))
    out.append(
        CatalogEntry(
            "octonion_regular_module_corrupt",
            HomModule(octo, 8, octo.alpha, _corrupt_action(octo_reg.action, 1, 2, 3), "left"),
            {LEFT_MODULE: False},
        )
    )
    out.append(
        CatalogEntry(
            "octonion_regular_right_module",
            regular_module(octo, "right"),
            {RIGHT_MODULE: True},
        )
    )
    out.append(
        CatalogEntry(
            "zero_module_over_octonions",
            HomModule(octo, 2, LinearMap.identity(2), ActionTensor.zero(8, 2, "left"), "left"),
            {LEFT_MODULE: True},
        )
    )
    out.append(
        CatalogEntry(
            "empty_module_over_dual_numbers",
            HomModule(dual, 0, LinearMap.from_rows([]), ActionTensor.zero(2, 0, "left"), "left"),
            {LEFT_MODULE: True},
        )
    )

    grouplike = grouplike_coalgebra()
    primitive = primitive_coalgebra()
    primitive_tw = primitive_coalgebra_twisted()
    pd4 = poisson_dual_dim4()
    pd4_tw = poisson_dual_dim4_twisted()
    lie2 = lie_only_coalgebra()
    lie2_tw = lie_only_coalgebra_twisted()

    out.extend(
        [
            CatalogEntry("grouplike1", grouplike, {HOM_POISSON_COALGEBRA: True}),
            CatalogEntry("primitive2", primitive, {HOM_POISSON_COALGEBRA: True}),
            CatalogEntry("primitive2_twisted", primitive_tw, {HOM_POISSON_COALGEBRA: True}),
            CatalogEntry(
                "coleibniz_fail2", coleibniz_failing_coalgebra(), {HOM_POISSON_COALGEBRA: False}
            ),
            CatalogEntry(
                "noncocommutative2", noncocommutative_coalgebra(), {HOM_POISSON_COALGEBRA: True}
            ),
            CatalogEntry("poisson_dual4", pd4, {HOM_POISSON_COALGEBRA: True}),
            CatalogEntry("poisson_dual4_twisted", pd4_tw, {HOM_POISSON_COALGEBRA: True}),
            CatalogEntry("lie_only2", lie2, {HOM_POISSON_COALGEBRA: True}),
            CatalogEntry("lie_only2_twisted", lie2_tw, {HOM_POISSON_COALGEBRA: True}),
        ]
    )

    out.extend(
        [
            CatalogEntry(
                "grouplike1_regular_comodule",
                regular_comodule(grouplike),
                {POISSON_COMODULE: True},
            ),
            CatalogEntry(
                "primitive2_regular_comodule",
                regular_comodule(primitive),
                {POISSON_COMODULE: True},
            ),
            CatalogEntry(
                "primitive2_twisted_regular_comodule",
                regular_comodule(primitive_tw),
                {POISSON_COMODULE: True},
            ),
            CatalogEntry(
                "poisson_dual4_regular_comodule",
                regular_comodule(pd4),
                {POISSON_COMODULE: True},
            ),
            CatalogEntry(
                "poisson_dual4_twisted_regular_comodule",
                regular_comodule(pd4_tw),
                {POISSON_COMODULE: True},
            ),
            CatalogEntry(
                "lie_only2_regular_comodule",
                regular_comodule(lie2, "lie"),
                {LIE_COMODULE: True},
            ),
            CatalogEntry(
                "lie_only2_twisted_regular_comodule",
                regular_comodule(lie2_tw, "lie"),
                {LIE_COMODULE: True},
            ),
            CatalogEntry(
                "primitive2_line_comodule",
                HomComodule(
                    primitive,
                    1,
                    LinearMap.identity(1),
                    "coassociative",
                    CoactionTensor.from_entries([[[1], [0]]], 2, 1),
                ),
                {COASSOC_COMODULE: True},
            ),
        ]
    )

    pd4_reg = regular_comodule(pd4)
    corrupt_gamma = [[list(row) for row in plane] for plane in pd4_reg.gamma_m.g]
    corrupt_gamma[1][0][1] += 1
    out.append(
        CatalogEntry(
            "poisson_dual4_comodule_corrupt",
            HomComodule(
                pd4,
                4,
                pd4.alpha,
                "poisson",
                pd4_reg.delta_m,
                CoactionTensor.from_entries(corrupt_gamma, 4, 4),
            ),
            {POISSON_COMODULE: False},
        )
    )
    return tuple(out)


def get(name: str) -> CatalogEntry:
    for entry in entries():
        if entry.name == name:
            return entry
    raise KeyError(name)


def names() -> list[str]:
    return [e.name for e in entries()]


def run_expected_checks(entry: CatalogEntry) -> dict[str, bool]:
    """Live verdicts for the axioms an entry pins down."""
    return {r.axiom: r.holds for r in axioms.verify(entry.payload, list(entry.expected_verdicts))}
