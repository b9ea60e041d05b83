"""Point evaluation in nested ``Fraction`` loops: the test oracle's evaluator.

Each formula is summed in plain loops over nested sequences, a tensor's entry
tuples or drawn lists, and returns lists; a factor that is zero is skipped,
never multiplied, and a structure constant of 1 or -1 adds or subtracts.
Nothing here reads ``scaled`` or calls ``homstruct.exact``'s contraction
core (``test_reference_eval.py`` holds that for this file and for
``reference_checks``), so the oracle and the checker it judges share no
evaluator.  A point is a list of ``Fraction`` coordinates.
"""

from __future__ import annotations

from fractions import Fraction

from homstruct.comodules import HomComodule
from homstruct.errors import DimensionMismatch, WrongSide


ZERO = Fraction(0)


def flat(tensor) -> list:
    """Every entry of a map or tensor, in the lexicographic order of its index tuples."""
    level = [getattr(tensor, tensor._nested)]
    for _ in tensor.shape:
        level = [x for nested in level for x in nested]
    return level


def zeros(*shape):
    """A nested list of ``shape`` holding one shared zero (a ``Fraction`` is immutable)."""
    if len(shape) < 2:
        return [ZERO] * shape[0] if shape else ZERO
    return [zeros(*shape[1:]) for _ in range(shape[0])]


# --- the formulas, each on nested sequences of the shape its arguments give ---------

def compose_ref(f, g, rows, inner, cols):
    """(f . g)[i][j] = sum_l f[i][l] g[l][j]."""
    out = zeros(rows, cols)
    for i in range(rows):
        for l in range(inner):
            a = f[i][l]
            if a:
                g_row = g[l]
                for j in range(cols):
                    if g_row[j]:
                        out[i][j] += a * g_row[j]
    return out


def map_apply_ref(a, v, rows, cols):
    """f(v)[i] = sum_j a[i][j] v[j]."""
    out = zeros(rows)
    for j in range(cols):
        if v[j]:
            for i in range(rows):
                if a[i][j]:
                    out[i] += a[i][j] * v[j]
    return out


def mul_apply_ref(c, x, y, n):
    """mul(x, y)[k] = sum_ij x_i y_j c[i][j][k]."""
    out = zeros(n)
    for i in range(n):
        if x[i]:
            for j in range(n):
                if y[j]:
                    xy = x[i] * y[j]
                    for k, c_k in enumerate(c[i][j]):
                        if c_k:
                            out[k] += xy if c_k == 1 else -xy if c_k == -1 else xy * c_k
    return out


def comul_apply_ref(d, v, n):
    """comul(v)[i][j] = sum_k v_k d[k][i][j]."""
    out = zeros(n, n)
    for k in range(n):
        if v[k]:
            for i in range(n):
                row = d[k][i]
                for j in range(n):
                    if row[j]:
                        out[i][j] += v[k] * row[j]
    return out


def act_ref(a, x, m, side, n, dm):
    """act(x, m)[q] = sum_ip x_i m_p a[i][p][q] (left) or a[p][i][q] (right)."""
    out = zeros(dm)
    for i in range(n):
        if x[i]:
            for p in range(dm):
                if m[p]:
                    xm = x[i] * m[p]
                    for q, a_q in enumerate(a[i][p] if side == "left" else a[p][i]):
                        if a_q:
                            out[q] += xm if a_q == 1 else -xm if a_q == -1 else xm * a_q
    return out


def coact_apply_ref(g, m, n, dm):
    """coact(m)[i][q] = sum_p m_p g[p][i][q]."""
    out = zeros(n, dm)
    for p in range(dm):
        if m[p]:
            for i in range(n):
                row = g[p][i]
                for q in range(dm):
                    if row[q]:
                        out[i][q] += m[p] * row[q]
    return out


# --- points ----------------------------------------------------------------------------

def basis(dim: int, index: int) -> list:
    return [Fraction(int(i == index)) for i in range(dim)]


def point(rng, dim: int) -> list:
    """A point of ``dim`` small rationals from a ``catalog.DeterministicRng``."""
    return [rng.point_entry() for _ in range(dim)]


def is_zero(v) -> bool:
    return not any(v)


def add(x, y) -> list:
    if len(x) != len(y):
        raise DimensionMismatch(f"vector dims {len(x)} != {len(y)}")
    return [a + b for a, b in zip(x, y)]


def sub(x, y) -> list:
    if len(x) != len(y):
        raise DimensionMismatch(f"vector dims {len(x)} != {len(y)}")
    return [a - b for a, b in zip(x, y)]


def neg(x) -> list:
    return [-a for a in x]


# --- maps and structure tensors at points ----------------------------------------------

def column(rows, j: int) -> list:
    """Column j of a matrix given by its rows: the image of e_j."""
    return [row[j] for row in rows]


def apply(f, v) -> list:
    return map_apply_ref(f.entries, v, f.dim_out, f.dim_in)


def composite(f, g) -> list:
    """The rows of f . g, for ``LinearMap``s f and g."""
    return compose_ref(f.entries, g.entries, f.dim_out, f.dim_in, g.dim_in)


def mul(mu, x, y) -> list:
    return mul_apply_ref(mu.c, x, y, mu.dim)


def act(action, x, m) -> list:
    """act(x, m) of an ``ActionTensor`` of either side, algebra argument first."""
    return act_ref(action.a, x, m, action.side, action.dim_alg, action.dim_mod)


# --- the laws at points ------------------------------------------------------------------

class NotAnticommuting(ValueError):
    """``check_anticommute_identity`` was given x and y with mul(x, y) != -mul(y, x)."""


def left_alternative_defect(a, x, y) -> list:
    """mul(alpha(x), mul(x, y)) - mul(mul(x, x), alpha(y)): the unpolarized left law."""
    mu = a.mu
    return sub(mul(mu, apply(a.alpha, x), mul(mu, x, y)), mul(mu, mul(mu, x, x), apply(a.alpha, y)))


def right_alternative_defect(a, x, y) -> list:
    """mul(alpha(x), mul(y, y)) - mul(mul(x, y), alpha(y)): the unpolarized right law."""
    mu = a.mu
    return sub(mul(mu, apply(a.alpha, x), mul(mu, y, y)), mul(mu, mul(mu, x, y), apply(a.alpha, y)))


def check_anticommute_identity(a, x, y, z) -> bool:
    """For anticommuting x and y, test the two swap identities at (x, y, z).

    Precondition: mul(x, y) = -mul(y, x); raises ``NotAnticommuting`` otherwise.
    Returns whether both ``mul(a(x), mul(y, z)) = -mul(a(y), mul(x, z))`` and
    ``mul(mul(z, x), a(y)) = -mul(mul(z, y), a(x))`` hold at these vectors.
    """
    mu = a.mu
    if not is_zero(add(mul(mu, x, y), mul(mu, y, x))):
        raise NotAnticommuting("arguments do not anticommute")
    ax, ay = apply(a.alpha, x), apply(a.alpha, y)
    first = add(mul(mu, ax, mul(mu, y, z)), mul(mu, ay, mul(mu, x, z)))
    second = add(mul(mu, mul(mu, z, x), ay), mul(mu, mul(mu, z, y), ax))
    return is_zero(first) and is_zero(second)


def left_module_defect(mod, x, m) -> list:
    """act(alpha(x), act(x, m)) - act(mul(x, x), beta(m)): the unpolarized left module law."""
    alg, action = mod.algebra, mod.action
    return sub(act(action, apply(alg.alpha, x), act(action, x, m)),
               act(action, mul(alg.mu, x, x), apply(mod.beta, m)))


def module_hom_associator(mod, x, y, m) -> list:
    """assoc(x, y, m) = act(a(x), act(y, m)) - act(mul(x, y), b(m)), exact."""
    if mod.side != "left":
        raise WrongSide("module associator is defined for left modules")
    alg, action = mod.algebra, mod.action
    return sub(act(action, apply(alg.alpha, x), act(action, y, m)),
               act(action, mul(alg.mu, x, y), apply(mod.beta, m)))


def with_coalgebra(c: HomComodule, base) -> HomComodule:
    """The same structure maps viewed over a different base coalgebra."""
    if base.dim != c.coalgebra.dim:
        raise DimensionMismatch("replacement coalgebra has a different dimension")
    return HomComodule(base, c.dim_mod, c.beta, c.kind, c.delta_m, c.gamma_m)
