"""Comodules over Hom-coassociative, Hom-Lie, and Hom-Poisson coalgebras.

A comodule is (M, beta) with one or two coactions M -> A @ M, written
``dm(m) = m(-1) @ m(0)`` for the comultiplication side and ``gm(m) =
m[-1] @ m[0]`` for the cobracket side.  The checked laws, per basis vector
of M and with residuals flattened lexicographically:

    coassociative kind (dm only):
        dm . beta = (alpha @ beta) . dm
        (alpha @ dm) . dm = (delta @ beta) . dm
    lie kind (gm only):
        gm . beta = (alpha @ beta) . gm
        (gamma @ beta) . gm = (alpha @ gm) . gm - (tau @ id) . (alpha @ gm) . gm
    poisson kind (both maps), additionally:
        alpha(m[-1]) @ dm(m[0])  =  gamma(m(-1)) @ beta(m(0))
                                  + swap12( alpha(m(-1)) @ gm(m(0)) )
        delta(m[-1]) @ beta(m[0]) =  alpha(m(-1)) @ gm(m(0))
                                  + swap12( alpha(m(-1)) @ gm(m(0)) )

Each law is a row of ``laws.Law``; the mixed laws are stated in exactly these
component (Sweedler) forms, swap12 exchanging the first two tensor legs.  The
coassociativity row is the dual left module's associator ``laws.transposed``.
"""

from __future__ import annotations

from typing import Optional

from .coalgebras import HomPoissonCoalgebra, negate_coalgebra
from .errors import CoalgebraMismatch, DimensionMismatch, KindMismatch
from .exact import CoactionTensor, LinearMap, Record, _set, record
from .laws import COMMUTES, NEGATE, Law, Plan, check, check_map, compose, rebuild, transposed
from .modules import _ASSOCIATOR as _MODULE_ASSOCIATOR
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


@record
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
        base = self.coalgebra
        operands = {"delta": base.delta, "gamma": base.gamma, "alpha": base.alpha,
                    "beta": self.beta, "dm": self.delta_m, "gm": self.gamma_m}
        return [(part, _LAWS[part], {**operands, "t": operands[
            "dm" if part == DELTA_COACTION_MULTIPLICATIVITY else "gm"]}) for part in parts]


# coaction . beta = (alpha @ beta) . coaction, for the coaction t of the part.
_MULTIPLICATIVE = Law("p", "iq", "+ beta.rp t.riq", "- t.pas alpha.ia beta.qs")
_LAWS = {
    DELTA_COACTION_MULTIPLICATIVITY: _MULTIPLICATIVE,
    DELTA_COACTION_COASSOCIATIVITY: transposed(Law(*_MODULE_ASSOCIATOR["left"]),
                                               act="dm", mu="delta"),
    GAMMA_COACTION_MULTIPLICATIVITY: _MULTIPLICATIVE,
    GAMMA_COACTION_COMPATIBILITY: Law(
        "p", "ijq",
        "+ gm.pas beta.qs gamma.aij",  # (gamma @ beta) . gm
        "- gm.pas gm.sjq alpha.ia",    # (alpha @ gm) . gm
        "+ gm.pas alpha.ja gm.siq",    # (tau @ id) . (alpha @ gm) . gm
    ),
    COMODULE_COLEIBNIZ: Law(
        "p", "ijq",
        "+ gm.pas dm.sjq alpha.ia",    # alpha(m[-1]) @ dm(m[0])
        "- dm.pas beta.qs gamma.aij",  # gamma(m(-1)) @ beta(m(0))
        "- dm.pas alpha.ja gm.siq",    # swap12(alpha(m(-1)) @ gm(m(0)))
    ),
    COMODULE_COMULT_COMPAT: Law(
        "p", "ijq",
        "+ gm.pas beta.qs delta.aij",  # delta(m[-1]) @ beta(m[0])
        "- dm.pas gm.sjq alpha.ia",    # alpha(m(-1)) @ gm(m(0))
        "- dm.pas alpha.ja gm.siq",    # swap12 of the same
    ),
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
# (id @ f) . src = dst . f for a map f between comodules.
_INTERTWINES = Law("p", "iq", "+ src.pis f.qs", "- f.rp dst.riq")
_MORPHISM_PARTS = ((COMODULE_MORPHISM_DELTA, _INTERTWINES, "delta_m"),
                   (COMODULE_MORPHISM_GAMMA, _INTERTWINES, "gamma_m"),
                   (COMODULE_MORPHISM_BETA_COMMUTES, COMMUTES, "beta"))

# The twist, one term (``laws.rebuild``) on one coaction t.
_TWIST = ("piq", "+ square.il t.plq")  # (alpha^2 @ id) . t, square = alpha^2 built once


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
    """Replace dm by (alpha^2 @ id) . dm; beta and the base stay put."""
    return _twisted(c, ("delta_m",),
                    "comultiplication-side twist needs a coassociative or poisson comodule")


def twist_lie_comodule(c: HomComodule) -> HomComodule:
    """Replace gm by (alpha^2 @ id) . gm."""
    return _twisted(c, ("gamma_m",), "cobracket-side twist needs a lie or poisson comodule")


def twist_poisson_comodule(c: HomComodule) -> HomComodule:
    """Twist both coactions by (alpha^2 @ id)."""
    return _twisted(c, COACTIONS["poisson"], "poisson twist needs a poisson comodule")


def negate_poisson_comodule(c: HomComodule) -> HomComodule:
    """(M, -dm, -gm, beta) over the negated base coalgebra."""
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
