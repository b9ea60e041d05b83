"""Input generators for the benchmark workloads.

Every generator is a pure function of its seed.  Structures are built with
the program's own constructors, so the time to build them counts as set-up.

* ``dense_algebra_side`` / ``dense_coalgebra_side``: dense Hom-structures
  whose every entry is ``DeterministicRng.point_entry`` (numerators -4..4,
  denominators 1..3).  ``random_structure`` caps dimensions at 4, so these
  draw from the generator directly.
* ``sedenions``: Cayley-Dickson doubling of the pinned octonion table,
  ``(a, b)(c, d) = (ac - conj(d) b, da + b conj(c))``, so ``e_0..e_7`` are
  the octonions and ``e_8 = (0, 1)``.
* ``truncated_poisson_dual``: the dual coalgebra of
  ``K[x_1..x_k]/(x_i^2)`` with the log-canonical bracket
  ``{x_i, x_j} = c_ij x_i x_j``.  Basis element ``f_U`` is dual to the
  square-free monomial ``x_U`` (``U`` a bitmask), so
  ``delta(f_U) = sum f_S @ f_T`` and ``gamma(f_U) = sum c(S, T) f_S @ f_T``
  over ordered splittings ``U = S + T``, with ``c(S, T) = sum c_ij`` over
  ``i`` in ``S`` and ``j`` in ``T``.
"""

from __future__ import annotations

from fractions import Fraction

from homstruct.algebras import HomAlgebra
from homstruct.catalog import DeterministicRng, octonions
from homstruct.coalgebras import HomPoissonCoalgebra
from homstruct.exact import ActionTensor, ComulTensor, LinearMap, MulTensor
from homstruct.modules import HomModule

ALGEBRA_DIMS = (3, 4, 5, 6)
COALGEBRA_DIMS = (3, 4, 5)
SEDENION_DIM = 16
POISSON_VARIABLES = 4


def _cube(rng: DeterministicRng, d0: int, d1: int, d2: int) -> list:
    return [[[rng.point_entry() for _ in range(d2)] for _ in range(d1)] for _ in range(d0)]


def _matrix(rng: DeterministicRng, rows: int, cols: int) -> list:
    return [[rng.point_entry() for _ in range(cols)] for _ in range(rows)]


def dense_algebra_side(seed: int) -> list[tuple[HomAlgebra, HomModule]]:
    """For each dim in ALGEBRA_DIMS, a dense algebra and a dense left module over it."""
    rng = DeterministicRng(seed)
    out = []
    for n in ALGEBRA_DIMS:
        alg = HomAlgebra(n, MulTensor.from_entries(_cube(rng, n, n, n)),
                         LinearMap.from_rows(_matrix(rng, n, n)))
        action = ActionTensor.from_entries(_cube(rng, n, n, n), n, n, "left")
        out.append((alg, HomModule(alg, n, LinearMap.from_rows(_matrix(rng, n, n)), action, "left")))
    return out


def dense_coalgebra_side(seed: int) -> list[HomPoissonCoalgebra]:
    """For each dim in COALGEBRA_DIMS, a dense Hom-Poisson coalgebra (cocommutativity checked)."""
    rng = DeterministicRng(seed ^ 0x5EED)
    out = []
    for n in COALGEBRA_DIMS:
        delta = ComulTensor.from_entries(_cube(rng, n, n, n))
        gamma = ComulTensor.from_entries(_cube(rng, n, n, n))
        out.append(HomPoissonCoalgebra(n, delta, gamma, LinearMap.from_rows(_matrix(rng, n, n)), True))
    return out


def _octonion_table() -> dict[tuple[int, int], tuple[int, Fraction]]:
    """(i, j) -> (k, sign) with o_i o_j = sign * o_k."""
    table = {}
    for i, plane in enumerate(octonions().mu.c):
        for j, row in enumerate(plane):
            for k, value in enumerate(row):
                if value:
                    table[(i, j)] = (k, value)
    return table


def sedenion_cube() -> list:
    """Structure constants of the sedenions on the basis (o_i, 0), (0, o_i)."""
    oct_mul = _octonion_table()

    def conj_sign(i: int) -> int:
        return 1 if i == 0 else -1

    n = SEDENION_DIM
    cube = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for x in range(n):
        for y in range(n):
            i, j = x % 8, y % 8
            if x < 8 and y < 8:  # (a,0)(c,0) = (ac, 0)
                k, s = oct_mul[(i, j)]
                cube[x][y][k] += s
            elif x < 8:  # (a,0)(0,d) = (0, da)
                k, s = oct_mul[(j, i)]
                cube[x][y][8 + k] += s
            elif y < 8:  # (0,b)(c,0) = (0, b conj(c))
                k, s = oct_mul[(i, j)]
                cube[x][y][8 + k] += s * conj_sign(j)
            else:  # (0,b)(0,d) = (-conj(d) b, 0)
                k, s = oct_mul[(j, i)]
                cube[x][y][k] -= s * conj_sign(j)
    return cube


def seeded_permutation(seed: int, n: int) -> list[int]:
    """Fisher-Yates shuffle of range(n) driven by DeterministicRng."""
    rng = DeterministicRng(seed)
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.int_between(0, i)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def relabel_cube(cube: list, perm: list[int]) -> list:
    """Move basis vector e_i to position perm[i] in a mul cube."""
    n = len(cube)
    out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[perm[i]][perm[j]][perm[k]] = cube[i][j][k]
    return out


def sedenions(seed: int | None = None) -> HomAlgebra:
    """The sedenions with identity twist, relabelled by a seeded permutation when seed is given."""
    cube = sedenion_cube()
    if seed is not None:
        cube = relabel_cube(cube, seeded_permutation(seed, SEDENION_DIM))
    return HomAlgebra(SEDENION_DIM, MulTensor.from_entries(cube), LinearMap.identity(SEDENION_DIM))


def seeded_skew(seed: int, k: int = POISSON_VARIABLES) -> list[list[Fraction]]:
    """A skew-symmetric k x k matrix of point entries."""
    rng = DeterministicRng(seed ^ 0xC0FFEE)
    c = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            c[i][j] = rng.point_entry()
            c[j][i] = -c[i][j]
    return c


def truncated_poisson_dual(c: list[list[Fraction]]) -> HomPoissonCoalgebra:
    """Dual coalgebra of K[x_1..x_k]/(x_i^2) with {x_i, x_j} = c_ij x_i x_j."""
    k = len(c)
    n = 1 << k
    delta = [[[0] * n for _ in range(n)] for _ in range(n)]
    gamma = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for u in range(n):
        s = u
        while True:  # every submask s of u, including 0 and u
            t = u ^ s
            delta[u][s][t] = 1
            gamma[u][s][t] = sum(
                (c[i][j] for i in range(k) if s >> i & 1 for j in range(k) if t >> j & 1),
                Fraction(0),
            )
            if s == 0:
                break
            s = (s - 1) & u
    return HomPoissonCoalgebra(
        n, ComulTensor.from_entries(delta), ComulTensor.from_entries(gamma),
        LinearMap.identity(n), True,
    )
