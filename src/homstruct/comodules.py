"""Comodules over Hom-coassociative, Hom-Lie, and Hom-Poisson coalgebras.

A comodule is (M, beta) with one or two coactions M -> A @ M, written
``delta_m(m) = m(-1) @ m(0)`` for the comultiplication side and ``gamma_m(m) =
m[-1] @ m[0]`` for the cobracket side.  The checked laws, per basis vector
of M and with residuals flattened lexicographically:

    coassociative kind (delta_m only):
        delta_m . beta = (alpha @ beta) . delta_m
        (alpha @ delta_m) . delta_m = (delta @ beta) . delta_m
    lie kind (gamma_m only):
        gamma_m . beta = (alpha @ beta) . gamma_m
        (gamma @ beta) . gamma_m = (alpha @ gamma_m) . gamma_m
                                   - (tau @ id) . (alpha @ gamma_m) . gamma_m
    poisson kind (both maps), additionally:
        alpha(m[-1]) @ delta_m(m[0])  =  gamma(m(-1)) @ beta(m(0))
                                       + swap12( alpha(m(-1)) @ gamma_m(m(0)) )
        delta(m[-1]) @ beta(m[0])     =  alpha(m(-1)) @ gamma_m(m(0))
                                       + swap12( alpha(m(-1)) @ gamma_m(m(0)) )

Each law is a row of ``laws.Law`` in exactly these component (Sweedler) forms, swap12
exchanging the first two tensor legs: the block of an ``algebras`` row that the coextension
C + M holds beyond C, on the dual algebra's side (``laws.restricted``), transposed.
"""

from __future__ import annotations

from typing import Optional

from .algebras import _ASSOCIATOR, _JACOBI, _LEIBNIZ, _MULTIPLICATIVE as _ALGEBRA_MULTIPLICATIVE
from .coalgebras import HomPoissonCoalgebra, negate_coalgebra
from .errors import CoalgebraMismatch, DimensionMismatch, KindMismatch
from .exact import CoactionTensor, LinearMap, Record, _set
from .laws import COMMUTES, NEGATE, Law, Plan, check, check_map, compose, rebuild, restricted, transposed
from .modules import _INTERTWINES as _MODULE_INTERTWINES, _TWIST as _MODULE_TWIST
from .report import AxiomReport

COASSOC_COMODULE = "COASSOC_COMODULE"
LIE_COMODULE = "LIE_COMODULE"
POISSON_COMODULE = "POISSON_COMODULE"
DELTA_COACTION_MULTIPLICATIVITY = "DELTA_COACTION_MULTIPLICATIVITY"
DELTA_COACTION_COASSOCIATIVITY = "DELTA_COACTION_COASSOCIATIVITY"
GAMMA_COACTION_MULTIPLICATIVITY = "GAMMA_COACTION_MULTIPLICATIVITY"
GAMMA_COACTION_COMPATIBILITY = "GAMMA_COACTION_COMPATIBILITY"
COMODULE_COLEIBNIZ = "COMODULE_COLEIBNIZ"
COMODULE_COMULT_COMPAT = "COMODULE_COMULT_COMPAT"
COMODULE_MORPHISM = "COMODULE_MORPHISM"
COMODULE_MORPHISM_DELTA = "COMODULE_MORPHISM_DELTA"
COMODULE_MORPHISM_GAMMA = "COMODULE_MORPHISM_GAMMA"
COMODULE_MORPHISM_BETA_COMMUTES = "COMODULE_MORPHISM_BETA_COMMUTES"

# The coactions each kind carries: delta_m on the comultiplication side, gamma_m on
# the cobracket side, each over its base map of the same name less ``_m``.
COACTIONS = {"coassociative": ("delta_m",), "lie": ("gamma_m",), "poisson": ("delta_m", "gamma_m")}
KINDS = tuple(COACTIONS)


class HomComodule(Record):
    """A Hom-comodule (K^dim_mod, beta) of ``kind`` over ``coalgebra``, with the
    coactions its kind has: ``delta_m`` on the comultiplication side, ``gamma_m``
    on the cobracket side."""

    coalgebra: HomPoissonCoalgebra
    dim_mod: int
    beta: LinearMap
    kind: str
    delta_m: Optional[CoactionTensor]
    gamma_m: Optional[CoactionTensor]

    def __init__(self, coalgebra, dim_mod, beta, kind, delta_m=None, gamma_m=None):
        if kind not in KINDS:
            raise KindMismatch(f"unknown comodule kind {kind!r}")
        if ("delta_m" in COACTIONS[kind]) != (delta_m is not None):
            raise KindMismatch("comultiplication-side coaction presence does not match kind")
        if ("gamma_m" in COACTIONS[kind]) != (gamma_m is not None):
            raise KindMismatch("cobracket-side coaction presence does not match kind")
        for t in (delta_m, gamma_m):
            if t is not None and (t.dim_coalg != coalgebra.dim or t.dim_mod != dim_mod):
                raise DimensionMismatch("coaction tensor does not match coalgebra/module dims")
        if not beta.is_square(dim_mod):
            raise DimensionMismatch("beta is not square of size dim_mod")
        _set(self, "coalgebra", coalgebra)
        _set(self, "dim_mod", dim_mod)
        _set(self, "beta", beta)
        _set(self, "kind", kind)
        _set(self, "delta_m", delta_m)
        _set(self, "gamma_m", gamma_m)

    def laws(self, axiom: str) -> list[tuple]:
        """The ``laws.Plan`` rows of ``axiom``'s parts; ``KindMismatch`` if the kind lacks it."""
        coactions, parts, message = _PARTS[axiom]
        if not set(coactions) <= set(COACTIONS[self.kind]):
            raise KindMismatch(message)
        operands = {**vars(self.coalgebra), **vars(self)}
        return [(part, _LAWS[part], operands) for part in parts]


# C + M's operands, the comodule's fields: delta and gamma with one argument in M are delta_m
# and gamma_m, mirrored (gamma_m negated), alpha on M is beta.  (x, y, m) and (y, z, x) at x
# in M have legs (C, C, M).
_COEXTENSION = {"mu.AAA": "delta", "mu.AMM": "delta_m", "mu.MAM": "delta_m.bac", "br.AAA": "gamma",
                "br.AMM": "gamma_m", "br.MAM": "-gamma_m.bac", "alpha.MM": "beta"}
_AT_M, _AT_X = dict(i="A", j="A", k="M"), dict(j="A", k="A", i="M")
_MULTIPLICATIVE = {name: transposed(restricted(_ALGEBRA_MULTIPLICATIVE, dict(i="A", j="M"), {
    "src.AMM": name, "dst.AMM": name, "f.AA": "alpha", "f.MM": "beta"})) for name in COACTIONS["poisson"]}
_COMULT = transposed(restricted(_LEIBNIZ, _AT_X, _COEXTENSION, -1))
_LAWS = {
    DELTA_COACTION_MULTIPLICATIVITY: _MULTIPLICATIVE["delta_m"],
    DELTA_COACTION_COASSOCIATIVITY: transposed(restricted(_ASSOCIATOR, _AT_M, _COEXTENSION)),
    GAMMA_COACTION_MULTIPLICATIVITY: _MULTIPLICATIVE["gamma_m"],
    GAMMA_COACTION_COMPATIBILITY: transposed(restricted(_JACOBI, _AT_X, _COEXTENSION, -1)),
    COMODULE_COLEIBNIZ: transposed(restricted(_LEIBNIZ, _AT_M, _COEXTENSION)),
    # Hom-Leibniz lists its last two terms the other way round.
    COMODULE_COMULT_COMPAT: Law(_COMULT.index, _COMULT.residual, _COMULT.terms[0], *_COMULT.terms[:0:-1]),
}
_COASSOC_PARTS = (DELTA_COACTION_MULTIPLICATIVITY, DELTA_COACTION_COASSOCIATIVITY)
_LIE_PARTS = (GAMMA_COACTION_MULTIPLICATIVITY, GAMMA_COACTION_COMPATIBILITY)
_PARTS = {  # id -> (coactions it needs, parts, message for a kind without them)
    COASSOC_COMODULE: (("delta_m",), _COASSOC_PARTS,
                       "comultiplication-side check needs a coassociative or poisson comodule"),
    LIE_COMODULE: (("gamma_m",), _LIE_PARTS,
                   "cobracket-side check needs a lie or poisson comodule"),
    POISSON_COMODULE: (COACTIONS["poisson"], (*_COASSOC_PARTS, *_LIE_PARTS, COMODULE_COLEIBNIZ,
                                              COMODULE_COMULT_COMPAT),
                       "poisson check needs a poisson comodule"),
}
# (id @ f) . src = dst . f for a map f between comodules: minus the left module's, its ends exchanged.
_INTERTWINES = transposed(_MODULE_INTERTWINES["left"], -1, src="dst", dst="src")
_MORPHISM_PARTS = ((COMODULE_MORPHISM_DELTA, _INTERTWINES, "delta_m"),
                   (COMODULE_MORPHISM_GAMMA, _INTERTWINES, "gamma_m"),
                   (COMODULE_MORPHISM_BETA_COMMUTES, COMMUTES, "beta"))

# The twist, one term (``laws.rebuild``) on one coaction t: the left module's, transposed.
_TWIST = transposed(_MODULE_TWIST["left"])  # (alpha^2 @ id) . t, square = alpha^2 built once


def check_coassoc_comodule(c: HomComodule, plan: Plan | None = None) -> AxiomReport:
    return check(c, COASSOC_COMODULE, plan)


def check_lie_comodule(c: HomComodule, plan: Plan | None = None) -> AxiomReport:
    return check(c, LIE_COMODULE, plan)


def check_poisson_comodule(c: HomComodule, plan: Plan | None = None) -> AxiomReport:
    return check(c, POISSON_COMODULE, plan)


def _twisted(c: HomComodule, coactions: tuple, message: str) -> HomComodule:
    """``c`` with each of ``coactions`` replaced by (alpha^2 @ id) . coaction, alpha^2
    built once; ``KindMismatch`` with ``message`` unless its kind carries them."""
    if not set(coactions) <= set(COACTIONS[c.kind]):
        raise KindMismatch(message)
    alpha = c.coalgebra.alpha
    return rebuild(c, _TWIST, coactions, square=compose(alpha, alpha))


def twist_coassoc_comodule(c: HomComodule) -> HomComodule:
    """Replace delta_m by (alpha^2 @ id) . delta_m; beta and the base stay put."""
    return _twisted(c, ("delta_m",),
                    "comultiplication-side twist needs a coassociative or poisson comodule")


def twist_lie_comodule(c: HomComodule) -> HomComodule:
    """Replace gamma_m by (alpha^2 @ id) . gamma_m."""
    return _twisted(c, ("gamma_m",), "cobracket-side twist needs a lie or poisson comodule")


def twist_poisson_comodule(c: HomComodule) -> HomComodule:
    """Twist both coactions by (alpha^2 @ id)."""
    return _twisted(c, COACTIONS["poisson"], "poisson twist needs a poisson comodule")


def negate_poisson_comodule(c: HomComodule) -> HomComodule:
    """(M, -delta_m, -gamma_m, beta) over the negated base coalgebra."""
    if c.kind != "poisson":
        raise KindMismatch("negation construction is stated for poisson comodules")
    return rebuild(c, NEGATE, COACTIONS["poisson"], {"coalgebra": negate_coalgebra(c.coalgebra)})


def check_comodule_morphism(
    f: LinearMap, c1: HomComodule, c2: HomComodule, strict: bool = False
) -> AxiomReport:
    """Verify (id @ f) . coaction1 = coaction2 . f for the maps the kind carries;
    ``strict`` additionally requires f . beta = beta' . f."""
    if c1.coalgebra != c2.coalgebra:
        raise CoalgebraMismatch("comodules live over different coalgebras")
    if c1.kind != c2.kind:
        raise KindMismatch("comodules have different kinds")
    parts = _MORPHISM_PARTS[: None if strict else -1]
    return check_map(COMODULE_MORPHISM, parts, f, c1, c2, (c1.dim_mod, c2.dim_mod))


def regular_comodule(base: HomPoissonCoalgebra, kind: str = "poisson") -> HomComodule:
    """M = A with beta = alpha and the coalgebra's own maps as coactions."""
    coactions = {name: CoactionTensor(getattr(base, name.removesuffix("_m")).d, base.dim, base.dim)
                 for name in COACTIONS.get(kind, ())}
    return HomComodule(base, base.dim, base.alpha, kind, **coactions)


# What each verb runs on a comodule, as ``algebras.VERBS``, by its kind.
VERBS = {
    "suites": dict(coassociative=(COASSOC_COMODULE,), lie=(LIE_COMODULE,), poisson=(POISSON_COMODULE,)),
    "checks": {COASSOC_COMODULE: check_coassoc_comodule, LIE_COMODULE: check_lie_comodule,
               POISSON_COMODULE: check_poisson_comodule},
    "twists": {"coassociative": twist_coassoc_comodule, "lie": twist_lie_comodule,
               "poisson": twist_poisson_comodule},
    "transforms": {"negate": negate_poisson_comodule},
    "morphism": check_comodule_morphism,
}
