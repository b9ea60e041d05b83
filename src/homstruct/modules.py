"""Modules over Hom-alternative algebras.

A left module over (A, mul, alpha) is (M, act, beta) whose module associator
``act(a(x), act(y, m)) - act(mul(x, y), b(m))`` vanishes at x = y; a right module's
is ``act(act(m, x), a(y)) - act(b(m), mul(x, y))``, the Hom-associator of (m, x, y)
with its sign flipped, and vanishes at x = y too.  As with the algebra laws, checks run
on the polarized basis form, equivalent in characteristic zero.  Each associator is the
block of ``algebras._ASSOCIATOR`` that the split-null extension A + M holds beyond A
(``laws.restricted``), polarized in its algebra letters (``laws.polarized``).
"""

from __future__ import annotations

from dataclasses import replace

from .algebras import (
    _ASSOCIATOR,
    HomAlgebra,
    check_endomorphism,
    negate as negate_algebra,
    opposite as opposite_algebra,
)
from .errors import AlgebraMismatch, DimensionMismatch, NotEndomorphism, WrongSide
from .exact import ActionTensor, LinearMap, Record
from .laws import (COMMUTES, NEGATE, SWAP, Law, Plan, check, check_map, compose, construct,
                   polarized, rebuild, restricted)
from .report import AxiomReport

LEFT_MODULE = "LEFT_MODULE"
RIGHT_MODULE = "RIGHT_MODULE"
MODULE_MORPHISM = "MODULE_MORPHISM"
MODULE_MORPHISM_INTERTWINES = "MODULE_MORPHISM_INTERTWINES"
MODULE_MORPHISM_BETA_COMMUTES = "MODULE_MORPHISM_BETA_COMMUTES"


class HomModule(Record):
    """A ``side`` Hom-module (K^dim_mod, action, beta) over ``algebra``."""

    algebra: HomAlgebra
    dim_mod: int
    beta: LinearMap
    action: ActionTensor
    side: str

    def __init__(self, algebra, dim_mod, beta, action, side):
        if side not in ("left", "right"):
            raise WrongSide(f"unknown side {side!r}")
        if action.side != side:
            raise WrongSide("action tensor side does not match module side")
        if action.dim_alg != algebra.dim or action.dim_mod != dim_mod:
            raise DimensionMismatch("action tensor does not match algebra/module dims")
        if not beta.is_square(dim_mod):
            raise DimensionMismatch("beta is not square of size dim_mod")
        self._store(algebra, dim_mod, beta, action, side)

    def laws(self, axiom: str) -> list[tuple]:
        """The ``laws.Plan`` row of ``axiom``, the module law of this module's side."""
        law, side = _LAWS[axiom], "left" if axiom == LEFT_MODULE else "right"
        if self.side != side:
            raise WrongSide(f"{side} check on a {self.side} module")
        return [(axiom, law, {**vars(self.algebra), **vars(self)})]


# A + M's operands (mu with one argument in M is action, alpha on M beta); the associators
# are the Hom-associator at (x, y, m) (left) and minus it at (m, x, y) (right).
_EXTENSION = {"mu.AMM": "action", "mu.MAM": "action", "alpha.MM": "beta"}
_LEFT, _RIGHT = dict(i="A", j="A", k="M"), dict(i="M", j="A", k="A")
_LAWS = {LEFT_MODULE: polarized(restricted(_ASSOCIATOR, _LEFT, _EXTENSION), swap="ij"),
         RIGHT_MODULE: polarized(restricted(_ASSOCIATOR, _RIGHT, _EXTENSION, -1), swap="jk")}

# A right module's row is the left one's with each action's legs exchanged (``_MIRROR``).
_MIRROR = {f"{name}.AMM": f"{name}.bac" for name in ("t", "src", "dst")}
# f(act(x, m)) = act'(x, f(m)) on basis pairs, per side, for f from (src) to (dst).
_INTERTWINES = {"left": Law("ip", "q", "+ src.ipr f.qr", "- f.rp dst.irq")}
_INTERTWINES["right"] = restricted(_INTERTWINES["left"], dict(i="A", p="M"), _MIRROR)
_MORPHISM_PARTS = {side: ((MODULE_MORPHISM_INTERTWINES, law, "action"),
                          (MODULE_MORPHISM_BETA_COMMUTES, COMMUTES, "beta"))
                   for side, law in _INTERTWINES.items()}


# Constructions, one term each (``laws.rebuild``) on the action t, square = alpha^2
# built once; each side's twist feeds the algebra argument through it.
_TWIST = {"left": Law("ip", "q", "+ square.ji t.jpq")}  # act(a^2(x), m)
_TWIST["right"] = restricted(_TWIST["left"], dict(p="M", i="A"), _MIRROR)  # act(m, a^2(x))


def check_left_module(mod: HomModule, plan: Plan | None = None) -> AxiomReport:
    return check(mod, LEFT_MODULE, plan)


def check_right_module(mod: HomModule, plan: Plan | None = None) -> AxiomReport:
    return check(mod, RIGHT_MODULE, plan)


def twist_module(mod: HomModule) -> HomModule:
    """Replace the action by act . (alpha^2 @ id); beta and the algebra stay.

    For right modules the mirrored composition act . (id @ alpha^2) is used.
    Refuses unless the algebra's alpha is multiplicative, without which the
    twisted action need not satisfy the module law.
    """
    endo = check_endomorphism(mod.algebra, mod.algebra.alpha)
    if not endo.holds:
        raise NotEndomorphism(
            f"algebra alpha is not multiplicative at {endo.total_failures} basis pairs"
        )
    alpha = mod.algebra.alpha
    return rebuild(mod, _TWIST[mod.side], ("action",), square=compose(alpha, alpha))


def negate_module(mod: HomModule) -> HomModule:
    """(M, -act, beta) over the negated algebra."""
    if mod.side != "left":
        raise WrongSide("negation construction is stated for left modules")
    return rebuild(mod, NEGATE, ("action",), {"algebra": negate_algebra(mod.algebra)})


def opposite_module(mod: HomModule) -> HomModule:
    """(M, act_op, beta), act_op(m, x) = act(x, m), as a right module over the opposite algebra."""
    if mod.side != "left":
        raise WrongSide("opposite construction is stated for left modules")
    action = replace(mod.action, a=construct(SWAP, t=mod.action), side="right")
    return replace(mod, action=action, side="right", algebra=opposite_algebra(mod.algebra))


def check_module_morphism(
    f: LinearMap, m1: HomModule, m2: HomModule, strict: bool = False
) -> AxiomReport:
    """Verify f(act(x, m)) = act'(x, f(m)) on basis pairs.

    ``strict`` additionally requires f . beta = beta' . f, a stronger notion
    than the bare intertwining condition.
    """
    if m1.algebra != m2.algebra:
        raise AlgebraMismatch("modules live over different algebras")
    if m1.side != m2.side:
        raise WrongSide("modules have different sides")
    parts = _MORPHISM_PARTS[m1.side][: None if strict else -1]
    return check_map(MODULE_MORPHISM, parts, f, m1, m2, (m1.dim_mod, m2.dim_mod))


def regular_module(alg: HomAlgebra, side: str = "left") -> HomModule:
    """The algebra acting on itself: M = A, beta = alpha, action = mul."""
    return HomModule(alg, alg.dim, alg.alpha, ActionTensor(alg.mu.c, alg.dim, alg.dim, side), side)


# What each verb runs on a module, as ``algebras.VERBS``, by its side; one twist serves both.
VERBS = {
    "suites": {"left": (LEFT_MODULE,), "right": (RIGHT_MODULE,)},
    "checks": {LEFT_MODULE: check_left_module, RIGHT_MODULE: check_right_module},
    "twists": {"left": twist_module, "right": twist_module},
    "transforms": {"negate": negate_module, "opposite": opposite_module},
    "morphism": check_module_morphism,
}
