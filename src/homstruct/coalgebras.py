"""Hom-coassociative, Hom-Lie, and Hom-Poisson coalgebras.

A Hom-Poisson coalgebra is a quadruple (A, delta, gamma, alpha) where delta
is a Hom-coassociative comultiplication, gamma a Hom-Lie cobracket, and the
two are linked by the co-Leibniz law.  Each identity is a row of
``laws.Law`` checked per basis vector; residuals in a tensor square or cube
are flattened lexicographically.  The seven individual checks:

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

from dataclasses import dataclass
from typing import Union

from .errors import AlreadyTwisted, DimensionMismatch, NotCoendomorphism
from .exact import ComulTensor, LinearMap
from .laws import COMMUTES, Law
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


@dataclass(frozen=True)
class HomCoassocCoalgebra:
    dim: int
    delta: ComulTensor
    alpha: LinearMap

    def __post_init__(self):
        if self.delta.dim != self.dim or not self.alpha.is_square(self.dim):
            raise DimensionMismatch("coalgebra components have inconsistent sizes")


@dataclass(frozen=True)
class HomLieCoalgebra:
    dim: int
    gamma: ComulTensor
    alpha: LinearMap

    def __post_init__(self):
        if self.gamma.dim != self.dim or not self.alpha.is_square(self.dim):
            raise DimensionMismatch("coalgebra components have inconsistent sizes")


@dataclass(frozen=True)
class HomPoissonCoalgebra:
    dim: int
    delta: ComulTensor
    gamma: ComulTensor
    alpha: LinearMap
    cocommutative_expected: bool = True

    def __post_init__(self):
        if (
            self.delta.dim != self.dim
            or self.gamma.dim != self.dim
            or not self.alpha.is_square(self.dim)
        ):
            raise DimensionMismatch("coalgebra components have inconsistent sizes")

    def coassociative_part(self) -> HomCoassocCoalgebra:
        return HomCoassocCoalgebra(self.dim, self.delta, self.alpha)

    def lie_part(self) -> HomLieCoalgebra:
        return HomLieCoalgebra(self.dim, self.gamma, self.alpha)


_AnyCoalgebra = Union[HomCoassocCoalgebra, HomLieCoalgebra, HomPoissonCoalgebra]

# The six laws that involve one comultiplication t and the twist alpha.
_MULTIPLICATIVE = Law("k", "ij", "+ alpha.lk t.lij", "- t.kab alpha.ia alpha.jb")
_ONE_MAP_LAWS = {
    COCOMMUTATIVITY: Law("k", "ij", "+ t.kij", "- t.kji"),
    DELTA_MULTIPLICATIVITY: _MULTIPLICATIVE,
    HOM_COASSOCIATIVITY: Law("k", "ijl", "+ t.kab t.bjl alpha.ia", "- t.kab alpha.lb t.aij"),
    SKEW_COSYMMETRY: Law("k", "ij", "+ t.kij", "+ t.kji"),
    GAMMA_MULTIPLICATIVITY: _MULTIPLICATIVE,
    HOM_COJACOBI: Law(
        "k", "ijl",
        "+ t.kab t.bjl alpha.ia",  # (alpha @ t) . t
        "+ t.kab alpha.ja t.bli",  # rotated once
        "+ t.kab alpha.la t.bij",  # rotated twice
    ),
}
_ON_DELTA = (COCOMMUTATIVITY, DELTA_MULTIPLICATIVITY, HOM_COASSOCIATIVITY)
_COLEIBNIZ = Law(
    "k", "ijl",
    "+ gamma.kab delta.bjl alpha.ia",  # (alpha @ delta) . gamma
    "- delta.kab alpha.lb gamma.aij",  # (gamma @ alpha) . delta
    "- delta.kab alpha.ja gamma.bil",  # (tau @ id) . (alpha @ gamma) . delta
)
# (f @ f) . src = dst . f for a map f between coalgebras.
_MORPHISM = Law("k", "ij", "+ src.kab f.ia f.jb", "- f.lk dst.lij")


def check_coalgebra_law(c: _AnyCoalgebra, axiom: str) -> AxiomReport:
    """One of the seven individual laws of ``c``, by id.

    ``c`` is any coalgebra carrying the maps the law needs: ``delta`` for
    the first three, ``gamma`` for the next three, both for co-Leibniz.
    """
    if axiom == HOM_COLEIBNIZ:
        return _COLEIBNIZ.check(axiom, delta=c.delta, gamma=c.gamma, alpha=c.alpha)
    t = c.delta if axiom in _ON_DELTA else c.gamma
    return _ONE_MAP_LAWS[axiom].check(axiom, t=t, alpha=c.alpha)


def _aggregate(axiom: str, c: _AnyCoalgebra, parts: tuple[str, ...]) -> AxiomReport:
    return AxiomReport.aggregate(axiom, [check_coalgebra_law(c, part) for part in parts])


def check_cocommutativity(c: HomCoassocCoalgebra) -> AxiomReport:
    """delta = tau . delta, i.e. the output coefficient matrix is symmetric."""
    return check_coalgebra_law(c, COCOMMUTATIVITY)


def check_hom_coassociative(c: HomCoassocCoalgebra) -> AxiomReport:
    """Multiplicativity of alpha for delta plus Hom-coassociativity."""
    return _aggregate(HOM_COASSOC_COALGEBRA, c, (DELTA_MULTIPLICATIVITY, HOM_COASSOCIATIVITY))


def check_hom_lie_coalgebra(l: HomLieCoalgebra) -> AxiomReport:
    return _aggregate(
        HOM_LIE_COALGEBRA, l, (SKEW_COSYMMETRY, GAMMA_MULTIPLICATIVITY, HOM_COJACOBI)
    )


def check_hom_coleibniz(p: HomPoissonCoalgebra) -> AxiomReport:
    return check_coalgebra_law(p, HOM_COLEIBNIZ)


def check_hom_poisson_coalgebra(p: HomPoissonCoalgebra) -> AxiomReport:
    """Aggregate verdict over all axioms; cocommutativity only when expected."""
    parts = (
        DELTA_MULTIPLICATIVITY,
        HOM_COASSOCIATIVITY,
        SKEW_COSYMMETRY,
        GAMMA_MULTIPLICATIVITY,
        HOM_COJACOBI,
        HOM_COLEIBNIZ,
    )
    if p.cocommutative_expected:
        parts = (COCOMMUTATIVITY,) + parts
    return _aggregate(HOM_POISSON_COALGEBRA, p, parts)


def opposite_coalgebra(p: HomPoissonCoalgebra) -> HomPoissonCoalgebra:
    """(A, delta_op, gamma, alpha); the result is treated as non-cocommutative."""
    return HomPoissonCoalgebra(p.dim, p.delta.opposite(), p.gamma, p.alpha, False)


def negate_coalgebra(p: HomPoissonCoalgebra) -> HomPoissonCoalgebra:
    """(A, -delta, -gamma, alpha)."""
    return HomPoissonCoalgebra(
        p.dim, p.delta.negated(), p.gamma.negated(), p.alpha, p.cocommutative_expected
    )


def check_coendomorphism(p: HomPoissonCoalgebra, phi: LinearMap) -> AxiomReport:
    """Verify delta . phi = (phi @ phi) . delta and likewise for gamma."""
    if not phi.is_square(p.dim):
        raise DimensionMismatch("coendomorphism candidate has wrong shape")
    parts = (
        _MULTIPLICATIVE.check(COALGEBRA_MORPHISM_DELTA, t=p.delta, alpha=phi),
        _MULTIPLICATIVE.check(COALGEBRA_MORPHISM_GAMMA, t=p.gamma, alpha=phi),
    )
    return AxiomReport.aggregate(COALGEBRA_MORPHISM, parts)


def yau_twist_coalgebra(p: HomPoissonCoalgebra, phi: LinearMap) -> HomPoissonCoalgebra:
    """Twist an untwisted coalgebra along a coendomorphism: (delta . phi, gamma . phi, phi)."""
    if not p.alpha.is_identity():
        raise AlreadyTwisted("source coalgebra already carries a nonidentity alpha")
    rep = check_coendomorphism(p, phi)
    if not rep.holds:
        raise NotCoendomorphism(
            f"map fails the coalgebra map laws at {rep.total_failures} basis vectors"
        )
    return HomPoissonCoalgebra(
        p.dim, p.delta.precompose(phi), p.gamma.precompose(phi), phi, p.cocommutative_expected
    )


def check_coalgebra_morphism(
    f: LinearMap, p1: HomPoissonCoalgebra, p2: HomPoissonCoalgebra
) -> AxiomReport:
    """(f @ f) . delta1 = delta2 . f, same for gamma, and f . alpha1 = alpha2 . f."""
    if f.dim_in != p1.dim or f.dim_out != p2.dim:
        raise DimensionMismatch("morphism candidate has wrong shape")
    parts = (
        _MORPHISM.check(COALGEBRA_MORPHISM_DELTA, src=p1.delta, dst=p2.delta, f=f),
        _MORPHISM.check(COALGEBRA_MORPHISM_GAMMA, src=p1.gamma, dst=p2.gamma, f=f),
        COMMUTES.check(COALGEBRA_MORPHISM_TWIST_COMMUTES, f=f, x=p1.alpha, y=p2.alpha),
    )
    return AxiomReport.aggregate(COALGEBRA_MORPHISM, parts)
