"""Hom-alternative and Hom-associative algebras: exact axiom checks and twists.

A Hom-algebra is a triple (A, mul, alpha) with alpha a linear self-map.  Its
Hom-associator is ``as(x, y, z) = mul(a(x), mul(y, z)) - mul(mul(x, y), a(z))``;
Hom-associativity is ``as = 0``.  The left Hom-alternative law is ``as(x, x, z) =
0`` and the right one ``as(x, y, y) = 0``.  Over a field of characteristic zero
each is equivalent to its polarization, ``as`` plus ``as`` with x and y (right: y
and z) exchanged, so the checkers decide all three exactly on basis triples, as
rows of ``laws.Law``: the associator is stated once, and ``laws.polarized`` swaps
its letters ``ij`` (left) or ``jk`` (right).
"""

from __future__ import annotations

from .errors import AlreadyTwisted, DimensionMismatch, NotEndomorphism
from .exact import LinearMap, MulTensor, Record
from .laws import COMMUTES, NEGATE, SWAP, Law, Plan, check, check_map, polarized, rebuild
from .report import AxiomReport

LEFT_HOM_ALT = "LEFT_HOM_ALT"
RIGHT_HOM_ALT = "RIGHT_HOM_ALT"
HOM_ASSOC = "HOM_ASSOC"
ENDOMORPHISM = "ENDOMORPHISM"
MORPHISM = "MORPHISM"
MORPHISM_MULTIPLICATIVE = "MORPHISM_MULTIPLICATIVE"
MORPHISM_TWIST_COMMUTES = "MORPHISM_TWIST_COMMUTES"


class HomAlgebra(Record):
    """The Hom-algebra (K^dim, mu, alpha)."""

    dim: int
    mu: MulTensor
    alpha: LinearMap

    def __init__(self, dim, mu, alpha):
        if mu.dim != dim:
            raise DimensionMismatch("multiplication tensor does not match dim")
        if not alpha.is_square(dim):
            raise DimensionMismatch("alpha is not square of size dim")
        self._store(dim, mu, alpha)

    def laws(self, axiom: str) -> list[tuple]:
        """The ``laws.Plan`` row of ``axiom``, on this algebra's fields."""
        return [(axiom, _LAWS[axiom], vars(self))]


# Every algebra row; every other row is one ``laws.restricted``, ``laws.transposed`` or both.
# The Hom-associator, one row on mu and alpha, and its two polarizations are checked here.
_ASSOCIATOR = Law("ijk", "o",
                  "+ alpha.ai mu.abo mu.jkb",  # mul(a(x), mul(y, z))
                  "- alpha.bk mu.abo mu.ija")  # mul(mul(x, y), a(z))
_LAWS = {
    LEFT_HOM_ALT: polarized(_ASSOCIATOR, swap="ij"),
    RIGHT_HOM_ALT: polarized(_ASSOCIATOR, swap="jk"),
    HOM_ASSOC: _ASSOCIATOR,
}
_COMMUTATOR = Law("ij", "k", "+ mu.ijk", "- mu.jik")  # mul(x, y) - mul(y, x)
_ANTICOMMUTATOR = Law("ij", "k", "+ mu.ijk", "+ mu.jik")
_JACOBI = Law("ijk", "o", "+ alpha.ai br.abo br.jkb",  # {a(x), {y, z}}, cycled in x, y, z
              "+ alpha.aj br.abo br.kib", "+ alpha.ak br.abo br.ijb")
_LEIBNIZ = Law("ijk", "o",  # Hom-Leibniz: {a(x), yz} = {x, y} a(z) + a(y) {x, z}
               "+ alpha.ai br.abo mu.jkb", "- alpha.bk mu.abo br.ija", "- alpha.aj mu.abo br.ikb")

# f(mul(x, y)) = mul'(f(x), f(y)) on basis pairs, for f from (src) to (dst).
_MULTIPLICATIVE = Law("ij", "o", "+ src.ija f.oa", "- dst.abo f.ai f.bj")
_MORPHISM_PARTS = ((MORPHISM_MULTIPLICATIVE, _MULTIPLICATIVE, "mu"),
                   (MORPHISM_TWIST_COMMUTES, COMMUTES, "alpha"))

# The Yau twist (``laws.rebuild``) of t; negation and the opposite are ``laws.NEGATE``, ``SWAP``.
_YAU_TWIST = Law("ij", "o", "+ t.ijq phi.oq")  # phi(mul(x, y))


def check_left_hom_alternative(a: HomAlgebra, plan: Plan | None = None) -> AxiomReport:
    """Decide the left Hom-alternative law via its polarized basis form."""
    return check(a, LEFT_HOM_ALT, plan)


def check_right_hom_alternative(a: HomAlgebra, plan: Plan | None = None) -> AxiomReport:
    """Decide the right Hom-alternative law via its polarized basis form."""
    return check(a, RIGHT_HOM_ALT, plan)


def check_hom_associative(a: HomAlgebra, plan: Plan | None = None) -> AxiomReport:
    return check(a, HOM_ASSOC, plan)


def check_endomorphism(a: HomAlgebra, phi: LinearMap) -> AxiomReport:
    """Verify phi(e_i e_j) = phi(e_i) phi(e_j) on all basis pairs."""
    parts = ((ENDOMORPHISM, _MULTIPLICATIVE, "mu"),)
    return check_map(ENDOMORPHISM, parts, phi, a, a, (a.dim, a.dim), "endomorphism")


def negate(a: HomAlgebra) -> HomAlgebra:
    """(A, -mul, alpha): every structure constant negated."""
    return rebuild(a, NEGATE, ("mu",))


def opposite(a: HomAlgebra) -> HomAlgebra:
    """(A, mul_op, alpha) with mul_op(x, y) = mul(y, x)."""
    return rebuild(a, SWAP, ("mu",))


def yau_twist(a: HomAlgebra, phi: LinearMap) -> HomAlgebra:
    """Twist an untwisted algebra along an endomorphism: (A, phi . mul, phi).

    Refuses if the source already carries a nonidentity alpha, or if phi is
    not multiplicative.
    """
    if not a.alpha.is_identity():
        raise AlreadyTwisted("source algebra already carries a nonidentity alpha")
    endo = check_endomorphism(a, phi)
    if not endo.holds:
        raise NotEndomorphism(
            f"map is not multiplicative at {endo.total_failures} basis pairs"
        )
    return rebuild(a, _YAU_TWIST, ("mu",), {"alpha": phi}, phi=phi)


def check_morphism(f: LinearMap, a: HomAlgebra, b: HomAlgebra) -> AxiomReport:
    """Verify f(xy) = f(x)f(y) on basis pairs and f . alpha = alpha' . f."""
    return check_map(MORPHISM, _MORPHISM_PARTS, f, a, b, (a.dim, b.dim))


# What each verb runs on an algebra; ``fileformat.TYPES`` holds it, and the axiom registry
# and the CLI read their tables from there.
VERBS = {
    "suites": {None: (LEFT_HOM_ALT, RIGHT_HOM_ALT, HOM_ASSOC)},
    "checks": {LEFT_HOM_ALT: check_left_hom_alternative, RIGHT_HOM_ALT: check_right_hom_alternative,
               HOM_ASSOC: check_hom_associative},
    "twists": {None: yau_twist},
    "transforms": {"negate": negate, "opposite": opposite},
    "morphism": check_morphism,
}
