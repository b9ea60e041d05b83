"""Hom-Poisson coalgebras, the one coalgebra record, and their laws by id.

A Hom-Poisson coalgebra is a quadruple (A, delta, gamma, alpha) where delta is a
Hom-coassociative comultiplication, gamma a Hom-Lie cobracket, and the two are linked
by the co-Leibniz law.  The Hom-coassociative and Hom-Lie parts are ids of that one
record (``HOM_COASSOC_COALGEBRA``, ``HOM_LIE_COALGEBRA``); a coalgebra of delta alone
has a zero gamma.  Each identity is a row of ``laws.Law`` checked per basis vector,
residuals in a tensor square or cube flattened lexicographically: the dual algebra's
(A*, delta^T, alpha^T) law, an ``algebras`` row ``laws.transposed``.  A coendomorphism phi
and multiplicativity (phi = alpha) report ``t . phi - (phi @ phi) . t``, a
morphism f ``(f @ f) . src - dst . f``.  The seven checks:

    cocommutativity      delta = tau . delta
    delta mult.          delta . alpha = (alpha @ alpha) . delta
    Hom-coassociativity  (alpha @ delta) . delta = (delta @ alpha) . delta
    skew-cosymmetry      gamma = -tau . gamma
    gamma mult.          gamma . alpha = (alpha @ alpha) . gamma
    Hom-co-Jacobi        (id + rot + rot^2) . (alpha @ gamma) . gamma = 0
    Hom-co-Leibniz       (alpha @ delta) . gamma =
                           (gamma @ alpha) . delta + (tau @ id) . (alpha @ gamma) . delta

where tau flips a tensor square and rot(x @ y @ z) = z @ x @ y.
"""

from __future__ import annotations

from functools import partial

from .algebras import _ANTICOMMUTATOR, _ASSOCIATOR, _COMMUTATOR, _JACOBI, _LEIBNIZ
from .algebras import _MULTIPLICATIVE as _ALGEBRA_MULTIPLICATIVE, _YAU_TWIST as _ALGEBRA_YAU_TWIST
from .errors import AlreadyTwisted, DimensionMismatch, NotCoendomorphism
from .exact import ComulTensor, LinearMap, Record
from .laws import COMMUTES, NEGATE, SWAP, Plan, check, check_map, rebuild, transposed
from .report import AxiomReport

COCOMMUTATIVITY = "COCOMMUTATIVITY"
DELTA_MULTIPLICATIVITY = "DELTA_MULTIPLICATIVITY"
HOM_COASSOCIATIVITY = "HOM_COASSOCIATIVITY"
SKEW_COSYMMETRY = "SKEW_COSYMMETRY"
GAMMA_MULTIPLICATIVITY = "GAMMA_MULTIPLICATIVITY"
HOM_COJACOBI = "HOM_COJACOBI"
HOM_COLEIBNIZ = "HOM_COLEIBNIZ"
HOM_COASSOC_COALGEBRA = "HOM_COASSOC_COALGEBRA"
HOM_LIE_COALGEBRA = "HOM_LIE_COALGEBRA"
HOM_POISSON_COALGEBRA = "HOM_POISSON_COALGEBRA"
COALGEBRA_MORPHISM = "COALGEBRA_MORPHISM"
COALGEBRA_MORPHISM_DELTA = "COALGEBRA_MORPHISM_DELTA"
COALGEBRA_MORPHISM_GAMMA = "COALGEBRA_MORPHISM_GAMMA"
COALGEBRA_MORPHISM_TWIST_COMMUTES = "COALGEBRA_MORPHISM_TWIST_COMMUTES"


class HomPoissonCoalgebra(Record):
    """The Hom-Poisson coalgebra (K^dim, delta, gamma, alpha); ``cocommutative_expected``
    puts ``COCOMMUTATIVITY`` in its suite."""

    dim: int
    delta: ComulTensor
    gamma: ComulTensor
    alpha: LinearMap
    cocommutative_expected: bool

    def __init__(self, dim, delta, gamma, alpha, cocommutative_expected=True):
        if delta.dim != dim or gamma.dim != dim or not alpha.is_square(dim):
            raise DimensionMismatch("coalgebra components have inconsistent sizes")
        self._store(dim, delta, gamma, alpha, cocommutative_expected)

    def laws(self, axiom: str) -> list[tuple]:
        """The ``laws.Plan`` rows of ``axiom``'s parts, on this coalgebra's fields."""
        parts = _PARTS.get(axiom, (axiom,))
        if axiom == HOM_POISSON_COALGEBRA and not self.cocommutative_expected:
            parts = parts[1:]
        return [(part, _LAWS[part], vars(self)) for part in parts]


# Every coalgebra law, on its fields: three on delta and alpha, three on gamma and alpha,
# then co-Leibniz on both; multiplicativity is a map row of alpha, from delta or gamma to itself.
_LAWS = {
    COCOMMUTATIVITY: transposed(_COMMUTATOR, mu="delta"),
    DELTA_MULTIPLICATIVITY: transposed(_ALGEBRA_MULTIPLICATIVE, src="delta", dst="delta", f="alpha"),
    HOM_COASSOCIATIVITY: transposed(_ASSOCIATOR, mu="delta"),
    SKEW_COSYMMETRY: transposed(_ANTICOMMUTATOR, mu="gamma"),
    GAMMA_MULTIPLICATIVITY: transposed(_ALGEBRA_MULTIPLICATIVE, src="gamma", dst="gamma", f="alpha"),
    HOM_COJACOBI: transposed(_JACOBI, br="gamma"),
    HOM_COLEIBNIZ: transposed(_LEIBNIZ, br="gamma", mu="delta"),
}
_MULTIPLICATIVE = transposed(_ALGEBRA_MULTIPLICATIVE)  # src . f = (f @ f) . dst, f a coendomorphism
# (f @ f) . src = dst . f for a map f between coalgebras: minus multiplicativity, its ends exchanged.
_MORPHISM = transposed(_ALGEBRA_MULTIPLICATIVE, -1, src="dst", dst="src")
_MORPHISM_PARTS = ((COALGEBRA_MORPHISM_DELTA, _MORPHISM, "delta"),
                   (COALGEBRA_MORPHISM_GAMMA, _MORPHISM, "gamma"),
                   (COALGEBRA_MORPHISM_TWIST_COMMUTES, COMMUTES, "alpha"))

# Constructions (``laws.rebuild``) on one comultiplication t: the dual algebra's, transposed.
_YAU_TWIST = transposed(_ALGEBRA_YAU_TWIST)  # t . phi
_OPPOSITE = transposed(SWAP)  # tau . t


_PARTS = {
    HOM_COASSOC_COALGEBRA: (DELTA_MULTIPLICATIVITY, HOM_COASSOCIATIVITY),
    HOM_LIE_COALGEBRA: (SKEW_COSYMMETRY, GAMMA_MULTIPLICATIVITY, HOM_COJACOBI),
    # cocommutativity only when expected
    HOM_POISSON_COALGEBRA: (COCOMMUTATIVITY, DELTA_MULTIPLICATIVITY, HOM_COASSOCIATIVITY,
                            SKEW_COSYMMETRY, GAMMA_MULTIPLICATIVITY, HOM_COJACOBI, HOM_COLEIBNIZ),
}


def check_cocommutativity(c: HomPoissonCoalgebra, plan: Plan | None = None) -> AxiomReport:
    """delta = tau . delta, i.e. the output coefficient matrix is symmetric."""
    return check(c, COCOMMUTATIVITY, plan)


def check_hom_coassociative(c: HomPoissonCoalgebra, plan: Plan | None = None) -> AxiomReport:
    """Multiplicativity of alpha for delta plus Hom-coassociativity."""
    return check(c, HOM_COASSOC_COALGEBRA, plan)


def check_hom_lie_coalgebra(l: HomPoissonCoalgebra, plan: Plan | None = None) -> AxiomReport:
    return check(l, HOM_LIE_COALGEBRA, plan)


def check_hom_coleibniz(p: HomPoissonCoalgebra, plan: Plan | None = None) -> AxiomReport:
    return check(p, HOM_COLEIBNIZ, plan)


def check_hom_poisson_coalgebra(p: HomPoissonCoalgebra, plan: Plan | None = None) -> AxiomReport:
    """Aggregate verdict over all axioms; cocommutativity only when expected."""
    return check(p, HOM_POISSON_COALGEBRA, plan)


def opposite_coalgebra(p: HomPoissonCoalgebra) -> HomPoissonCoalgebra:
    """(A, delta_op, gamma, alpha); the result is treated as non-cocommutative."""
    return rebuild(p, _OPPOSITE, ("delta",), {"cocommutative_expected": False})


def negate_coalgebra(p: HomPoissonCoalgebra) -> HomPoissonCoalgebra:
    """(A, -delta, -gamma, alpha)."""
    return rebuild(p, NEGATE, ("delta", "gamma"))


def check_coendomorphism(p: HomPoissonCoalgebra, phi: LinearMap) -> AxiomReport:
    """Verify delta . phi = (phi @ phi) . delta and likewise for gamma."""
    parts = ((COALGEBRA_MORPHISM_DELTA, _MULTIPLICATIVE, "delta"),
             (COALGEBRA_MORPHISM_GAMMA, _MULTIPLICATIVE, "gamma"))
    return check_map(COALGEBRA_MORPHISM, parts, phi, p, p, (p.dim, p.dim), "coendomorphism")


def yau_twist_coalgebra(p: HomPoissonCoalgebra, phi: LinearMap) -> HomPoissonCoalgebra:
    """Twist an untwisted coalgebra along a coendomorphism: (delta . phi, gamma . phi, phi)."""
    if not p.alpha.is_identity():
        raise AlreadyTwisted("source coalgebra already carries a nonidentity alpha")
    rep = check_coendomorphism(p, phi)
    if not rep.holds:
        raise NotCoendomorphism(
            f"map fails the coalgebra map laws at {rep.total_failures} basis vectors"
        )
    return rebuild(p, _YAU_TWIST, ("delta", "gamma"), {"alpha": phi}, phi=phi)


def check_coalgebra_morphism(
    f: LinearMap, p1: HomPoissonCoalgebra, p2: HomPoissonCoalgebra
) -> AxiomReport:
    """(f @ f) . delta1 = delta2 . f, same for gamma, and f . alpha1 = alpha2 . f."""
    return check_map(COALGEBRA_MORPHISM, _MORPHISM_PARTS, f, p1, p2, (p1.dim, p2.dim))


# What each verb runs on a coalgebra, as ``algebras.VERBS``; the parts of the Hom-coassociative
# and Hom-Lie ids are checked by ``laws.check`` under their own ids.
VERBS = {
    "suites": {None: (HOM_POISSON_COALGEBRA,)},
    "checks": {COCOMMUTATIVITY: check_cocommutativity, HOM_COASSOC_COALGEBRA: check_hom_coassociative,
               **{part: partial(check, axiom=part) for part in _PARTS[HOM_COASSOC_COALGEBRA]},
               HOM_LIE_COALGEBRA: check_hom_lie_coalgebra,
               **{part: partial(check, axiom=part) for part in _PARTS[HOM_LIE_COALGEBRA]},
               HOM_COLEIBNIZ: check_hom_coleibniz, HOM_POISSON_COALGEBRA: check_hom_poisson_coalgebra},
    "twists": {None: yau_twist_coalgebra},
    "transforms": {"negate": negate_coalgebra, "opposite": opposite_coalgebra},
    "morphism": check_coalgebra_morphism,
}
