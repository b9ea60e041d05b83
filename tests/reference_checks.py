"""Reference implementation of every basis-scan check: the test oracle.

These are the hand-unrolled ``Fraction`` loops the library used before its
laws became rows of signed contraction terms, kept verbatim but for three
edits: ``from_scan`` and ``witness_of``, formerly classmethods of
``AxiomReport`` and ``Witness``, are functions here, and the algebra and
module scans, and every ``f . x = y . f`` scan, evaluate maps and tensors at
points with ``reference_eval``'s loops where they called the package's own
evaluation.  ``test_differential.py``
requires the library's reports to equal these, field for field.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Sequence

from homstruct.algebras import (
    ENDOMORPHISM,
    HOM_ASSOC,
    LEFT_HOM_ALT,
    MORPHISM,
    MORPHISM_MULTIPLICATIVE,
    MORPHISM_TWIST_COMMUTES,
    RIGHT_HOM_ALT,
    HomAlgebra,
)
from homstruct.coalgebras import (
    COALGEBRA_MORPHISM,
    COALGEBRA_MORPHISM_DELTA,
    COALGEBRA_MORPHISM_GAMMA,
    COALGEBRA_MORPHISM_TWIST_COMMUTES,
    COCOMMUTATIVITY,
    DELTA_MULTIPLICATIVITY,
    GAMMA_MULTIPLICATIVITY,
    HOM_COASSOC_COALGEBRA,
    HOM_COASSOCIATIVITY,
    HOM_COJACOBI,
    HOM_COLEIBNIZ,
    HOM_LIE_COALGEBRA,
    HOM_POISSON_COALGEBRA,
    SKEW_COSYMMETRY,
    HomPoissonCoalgebra,
)
from homstruct.comodules import (
    COASSOC_COMODULE,
    COMODULE_COLEIBNIZ,
    COMODULE_COMULT_COMPAT,
    COMODULE_MORPHISM,
    COMODULE_MORPHISM_BETA_COMMUTES,
    COMODULE_MORPHISM_DELTA,
    COMODULE_MORPHISM_GAMMA,
    DELTA_COACTION_COASSOCIATIVITY,
    DELTA_COACTION_MULTIPLICATIVITY,
    GAMMA_COACTION_COMPATIBILITY,
    GAMMA_COACTION_MULTIPLICATIVITY,
    LIE_COMODULE,
    POISSON_COMODULE,
    HomComodule,
)
from homstruct.errors import (
    AlgebraMismatch,
    CoalgebraMismatch,
    DimensionMismatch,
    KindMismatch,
    WrongSide,
)
from homstruct.exact import CoactionTensor, ComulTensor, LinearMap, Vector
from homstruct.modules import (
    LEFT_MODULE,
    MODULE_MORPHISM,
    MODULE_MORPHISM_BETA_COMMUTES,
    MODULE_MORPHISM_INTERTWINES,
    RIGHT_MODULE,
    HomModule,
)
from homstruct.report import WITNESS_CAP, AxiomReport, Witness
from reference_eval import act, add, apply, basis, column, composite, is_zero, mul, sub

_ZERO = Fraction(0)


def from_scan(axiom: str, failures: Iterator[Witness]) -> AxiomReport:
    kept: list[Witness] = []
    total = 0
    for w in failures:
        total += 1
        if len(kept) < WITNESS_CAP:
            kept.append(w)
    return AxiomReport(axiom, total == 0, tuple(kept), total)


def witness_of(index: tuple[int, ...], residual: Vector) -> Witness:
    """The witness of a residual given as a ``Vector`` of rationals."""
    scale = lcm(*(x.denominator for x in residual.entries))
    return Witness(index, tuple(x.numerator * (scale // x.denominator) for x in residual.entries),
                   scale)


def flatten_matrix(mat: Sequence[Sequence[Fraction]]) -> Vector:
    """Flatten an n1 x n2 coefficient matrix to the lexicographic tensor basis."""
    return Vector(tuple(x for row in mat for x in row))


def flatten_cube(cube: Iterable[Iterable[Iterable[Fraction]]]) -> Vector:
    return Vector(tuple(x for plane in cube for row in plane for x in row))


# --- algebras -----------------------------------------------------------


def _witness(index: tuple[int, ...], r: list) -> Witness:
    return witness_of(index, Vector(tuple(r)))


def check_left_hom_alternative(a: HomAlgebra) -> AxiomReport:
    """Decide the left Hom-alternative law via its polarized basis form."""
    mu, c = a.mu, a.mu.c
    cols = [column(a.alpha.entries, i) for i in range(a.dim)]

    def scan() -> Iterator[Witness]:
        n = a.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    r = add(
                        sub(mul(mu, cols[i], c[j][k]), mul(mu, c[i][j], cols[k])),
                        sub(mul(mu, cols[j], c[i][k]), mul(mu, c[j][i], cols[k])),
                    )
                    if not is_zero(r):
                        yield _witness((i, j, k), r)

    return from_scan(LEFT_HOM_ALT, scan())


def check_right_hom_alternative(a: HomAlgebra) -> AxiomReport:
    """Decide the right Hom-alternative law via its polarized basis form."""
    mu, c = a.mu, a.mu.c
    cols = [column(a.alpha.entries, i) for i in range(a.dim)]

    def scan() -> Iterator[Witness]:
        n = a.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    r = add(
                        sub(mul(mu, cols[i], c[j][k]), mul(mu, c[i][j], cols[k])),
                        sub(mul(mu, cols[i], c[k][j]), mul(mu, c[i][k], cols[j])),
                    )
                    if not is_zero(r):
                        yield _witness((i, j, k), r)

    return from_scan(RIGHT_HOM_ALT, scan())


def check_hom_associative(a: HomAlgebra) -> AxiomReport:
    mu, c = a.mu, a.mu.c
    cols = [column(a.alpha.entries, i) for i in range(a.dim)]

    def scan() -> Iterator[Witness]:
        n = a.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    r = sub(mul(mu, cols[i], c[j][k]), mul(mu, c[i][j], cols[k]))
                    if not is_zero(r):
                        yield _witness((i, j, k), r)

    return from_scan(HOM_ASSOC, scan())


def check_endomorphism(a: HomAlgebra, phi: LinearMap) -> AxiomReport:
    """Verify phi(e_i e_j) = phi(e_i) phi(e_j) on all basis pairs."""
    if not phi.is_square(a.dim):
        raise DimensionMismatch("endomorphism candidate has wrong shape")
    mu = a.mu
    cols = [column(phi.entries, i) for i in range(a.dim)]

    def scan() -> Iterator[Witness]:
        for i in range(a.dim):
            for j in range(a.dim):
                r = sub(apply(phi, mu.c[i][j]), mul(mu, cols[i], cols[j]))
                if not is_zero(r):
                    yield _witness((i, j), r)

    return from_scan(ENDOMORPHISM, scan())


def _commute_scan(f: LinearMap, x: LinearMap, y: LinearMap) -> Iterator[Witness]:
    """f . x = y . f, column by column."""
    fx, yf = composite(f, x), composite(y, f)
    for i in range(x.dim_in):
        r = sub(column(fx, i), column(yf, i))
        if not is_zero(r):
            yield _witness((i,), r)


def check_morphism(f: LinearMap, a: HomAlgebra, b: HomAlgebra) -> AxiomReport:
    """Verify f(xy) = f(x)f(y) on basis pairs and f . alpha = alpha' . f."""
    if f.dim_in != a.dim or f.dim_out != b.dim:
        raise DimensionMismatch("morphism candidate has wrong shape")
    cols = [column(f.entries, i) for i in range(a.dim)]

    def scan_mult() -> Iterator[Witness]:
        for i in range(a.dim):
            for j in range(a.dim):
                r = sub(apply(f, a.mu.c[i][j]), mul(b.mu, cols[i], cols[j]))
                if not is_zero(r):
                    yield _witness((i, j), r)

    parts = (
        from_scan(MORPHISM_MULTIPLICATIVE, scan_mult()),
        from_scan(MORPHISM_TWIST_COMMUTES, _commute_scan(f, a.alpha, b.alpha)),
    )
    return AxiomReport.aggregate(MORPHISM, parts)


# --- modules ------------------------------------------------------------
#
# act(e_i, f_p) is the row a[i][p] of a left action and a[p][i] of a right one.


def check_left_module(mod: HomModule) -> AxiomReport:
    if mod.side != "left":
        raise WrongSide("left check on a right module")
    alg = mod.algebra
    action, a = mod.action, mod.action.a
    acols = [column(alg.alpha.entries, i) for i in range(alg.dim)]
    bcols = [column(mod.beta.entries, p) for p in range(mod.dim_mod)]

    def scan() -> Iterator[Witness]:
        for i in range(alg.dim):
            for j in range(alg.dim):
                mu_ij = alg.mu.c[i][j]
                mu_ji = alg.mu.c[j][i]
                for p in range(mod.dim_mod):
                    r = add(
                        sub(act(action, acols[i], a[j][p]), act(action, mu_ij, bcols[p])),
                        sub(act(action, acols[j], a[i][p]), act(action, mu_ji, bcols[p])),
                    )
                    if not is_zero(r):
                        yield _witness((i, j, p), r)

    return from_scan(LEFT_MODULE, scan())


def check_right_module(mod: HomModule) -> AxiomReport:
    if mod.side != "right":
        raise WrongSide("right check on a left module")
    alg = mod.algebra
    action, a = mod.action, mod.action.a
    acols = [column(alg.alpha.entries, i) for i in range(alg.dim)]
    bcols = [column(mod.beta.entries, p) for p in range(mod.dim_mod)]

    def scan() -> Iterator[Witness]:
        for p in range(mod.dim_mod):
            for i in range(alg.dim):
                for j in range(alg.dim):
                    r = sub(
                        add(act(action, acols[j], a[p][i]), act(action, acols[i], a[p][j])),
                        add(act(action, alg.mu.c[i][j], bcols[p]),
                            act(action, alg.mu.c[j][i], bcols[p])),
                    )
                    if not is_zero(r):
                        yield _witness((p, i, j), r)

    return from_scan(RIGHT_MODULE, scan())


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
    if f.dim_in != m1.dim_mod or f.dim_out != m2.dim_mod:
        raise DimensionMismatch("morphism candidate has wrong shape")
    alg = m1.algebra
    a1 = m1.action.a
    fcols = [column(f.entries, p) for p in range(m1.dim_mod)]

    def scan_intertwine() -> Iterator[Witness]:
        for i in range(alg.dim):
            e_i = basis(alg.dim, i)
            for p in range(m1.dim_mod):
                lhs = apply(f, a1[i][p] if m1.side == "left" else a1[p][i])
                r = sub(lhs, act(m2.action, e_i, fcols[p]))
                if not is_zero(r):
                    yield _witness((i, p), r)

    parts = [from_scan(MODULE_MORPHISM_INTERTWINES, scan_intertwine())]
    if strict:
        parts.append(from_scan(MODULE_MORPHISM_BETA_COMMUTES, _commute_scan(f, m1.beta, m2.beta)))
    return AxiomReport.aggregate(MODULE_MORPHISM, parts)


# --- coalgebras ---------------------------------------------------------


def _comul_of_alpha_image(t: ComulTensor, alpha: LinearMap, k: int):
    """Coefficient matrix of comul(alpha(e_k))."""
    n = t.dim
    out = [[_ZERO] * n for _ in range(n)]
    for l in range(n):
        a = alpha.entries[l][k]
        if not a:
            continue
        plane = t.d[l]
        for i in range(n):
            for j in range(n):
                v = plane[i][j]
                if v:
                    out[i][j] += a * v
    return out


def _two_leg_alpha(t: ComulTensor, alpha: LinearMap, k: int):
    """Coefficient matrix of (alpha @ alpha)(comul(e_k))."""
    n = t.dim
    out = [[_ZERO] * n for _ in range(n)]
    plane = t.d[k]
    for a_idx in range(n):
        for b_idx in range(n):
            v = plane[a_idx][b_idx]
            if not v:
                continue
            for i in range(n):
                ai = alpha.entries[i][a_idx]
                if not ai:
                    continue
                for j in range(n):
                    bj = alpha.entries[j][b_idx]
                    if bj:
                        out[i][j] += v * ai * bj
    return out


def check_cocommutativity(c: HomPoissonCoalgebra) -> AxiomReport:
    """delta = tau . delta, i.e. the output coefficient matrix is symmetric."""
    n = c.dim

    def scan() -> Iterator[Witness]:
        for k in range(n):
            plane = c.delta.d[k]
            res = [[plane[i][j] - plane[j][i] for j in range(n)] for i in range(n)]
            if any(x for row in res for x in row):
                yield witness_of((k,), flatten_matrix(res))

    return from_scan(COCOMMUTATIVITY, scan())


def _multiplicativity_report(axiom: str, t: ComulTensor, alpha: LinearMap) -> AxiomReport:
    n = t.dim

    def scan() -> Iterator[Witness]:
        for k in range(n):
            lhs = _comul_of_alpha_image(t, alpha, k)
            rhs = _two_leg_alpha(t, alpha, k)
            res = [[lhs[i][j] - rhs[i][j] for j in range(n)] for i in range(n)]
            if any(x for row in res for x in row):
                yield witness_of((k,), flatten_matrix(res))

    return from_scan(axiom, scan())


def _coassociativity_report(t: ComulTensor, alpha: LinearMap) -> AxiomReport:
    n = t.dim

    def scan() -> Iterator[Witness]:
        for k in range(n):
            lhs = [[[_ZERO] * n for _ in range(n)] for _ in range(n)]
            rhs = [[[_ZERO] * n for _ in range(n)] for _ in range(n)]
            plane = t.d[k]
            for a_idx in range(n):
                for b_idx in range(n):
                    v = plane[a_idx][b_idx]
                    if not v:
                        continue
                    # (alpha @ delta): alpha on the first leg, split the second
                    for i in range(n):
                        ai = alpha.entries[i][a_idx]
                        if ai:
                            inner = t.d[b_idx]
                            for j in range(n):
                                for l in range(n):
                                    w = inner[j][l]
                                    if w:
                                        lhs[i][j][l] += v * ai * w
                    # (delta @ alpha): split the first leg, alpha on the second
                    inner = t.d[a_idx]
                    for i in range(n):
                        for j in range(n):
                            w = inner[i][j]
                            if not w:
                                continue
                            for l in range(n):
                                al = alpha.entries[l][b_idx]
                                if al:
                                    rhs[i][j][l] += v * w * al
            res = [
                [[lhs[i][j][l] - rhs[i][j][l] for l in range(n)] for j in range(n)]
                for i in range(n)
            ]
            if any(x for plane2 in res for row in plane2 for x in row):
                yield witness_of((k,), flatten_cube(res))

    return from_scan(HOM_COASSOCIATIVITY, scan())


def check_hom_coassociative(c: HomPoissonCoalgebra) -> AxiomReport:
    """Multiplicativity of alpha for delta plus Hom-coassociativity."""
    parts = (
        _multiplicativity_report(DELTA_MULTIPLICATIVITY, c.delta, c.alpha),
        _coassociativity_report(c.delta, c.alpha),
    )
    return AxiomReport.aggregate(HOM_COASSOC_COALGEBRA, parts)


def _skew_report(t: ComulTensor) -> AxiomReport:
    n = t.dim

    def scan() -> Iterator[Witness]:
        for k in range(n):
            plane = t.d[k]
            res = [[plane[i][j] + plane[j][i] for j in range(n)] for i in range(n)]
            if any(x for row in res for x in row):
                yield witness_of((k,), flatten_matrix(res))

    return from_scan(SKEW_COSYMMETRY, scan())


def _alpha_gamma_gamma(t: ComulTensor, alpha: LinearMap, k: int):
    """(alpha @ gamma) . gamma applied to e_k, as an n x n x n coefficient cube."""
    n = t.dim
    out = [[[_ZERO] * n for _ in range(n)] for _ in range(n)]
    plane = t.d[k]
    for a_idx in range(n):
        for b_idx in range(n):
            v = plane[a_idx][b_idx]
            if not v:
                continue
            inner = t.d[b_idx]
            for i in range(n):
                ai = alpha.entries[i][a_idx]
                if not ai:
                    continue
                for j in range(n):
                    for l in range(n):
                        w = inner[j][l]
                        if w:
                            out[i][j][l] += v * ai * w
    return out


def _cojacobi_report(t: ComulTensor, alpha: LinearMap) -> AxiomReport:
    n = t.dim

    def scan() -> Iterator[Witness]:
        for k in range(n):
            base = _alpha_gamma_gamma(t, alpha, k)
            res = [[[_ZERO] * n for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    for l in range(n):
                        # identity + rotation + rotation^2 of x1@x2@x3 -> x3@x1@x2
                        res[i][j][l] = base[i][j][l] + base[j][l][i] + base[l][i][j]
            if any(x for plane2 in res for row in plane2 for x in row):
                yield witness_of((k,), flatten_cube(res))

    return from_scan(HOM_COJACOBI, scan())


def check_hom_lie_coalgebra(l: HomPoissonCoalgebra) -> AxiomReport:
    parts = (
        _skew_report(l.gamma),
        _multiplicativity_report(GAMMA_MULTIPLICATIVITY, l.gamma, l.alpha),
        _cojacobi_report(l.gamma, l.alpha),
    )
    return AxiomReport.aggregate(HOM_LIE_COALGEBRA, parts)


def _coleibniz_report(delta: ComulTensor, gamma: ComulTensor, alpha: LinearMap) -> AxiomReport:
    n = delta.dim

    def scan() -> Iterator[Witness]:
        for k in range(n):
            lhs = [[[_ZERO] * n for _ in range(n)] for _ in range(n)]
            rhs = [[[_ZERO] * n for _ in range(n)] for _ in range(n)]
            # (alpha @ delta) . gamma
            for a_idx in range(n):
                for b_idx in range(n):
                    v = gamma.d[k][a_idx][b_idx]
                    if not v:
                        continue
                    inner = delta.d[b_idx]
                    for i in range(n):
                        ai = alpha.entries[i][a_idx]
                        if not ai:
                            continue
                        for j in range(n):
                            for l in range(n):
                                w = inner[j][l]
                                if w:
                                    lhs[i][j][l] += v * ai * w
            for a_idx in range(n):
                for b_idx in range(n):
                    v = delta.d[k][a_idx][b_idx]
                    if not v:
                        continue
                    # (gamma @ alpha) . delta
                    inner = gamma.d[a_idx]
                    for i in range(n):
                        for j in range(n):
                            w = inner[i][j]
                            if not w:
                                continue
                            for l in range(n):
                                al = alpha.entries[l][b_idx]
                                if al:
                                    rhs[i][j][l] += v * w * al
                    # (tau @ id) . (alpha @ gamma) . delta: swap the first two legs
                    inner = gamma.d[b_idx]
                    for j in range(n):
                        aj = alpha.entries[j][a_idx]
                        if not aj:
                            continue
                        for i in range(n):
                            for l in range(n):
                                w = inner[i][l]
                                if w:
                                    rhs[i][j][l] += v * aj * w
            res = [
                [[lhs[i][j][l] - rhs[i][j][l] for l in range(n)] for j in range(n)]
                for i in range(n)
            ]
            if any(x for plane2 in res for row in plane2 for x in row):
                yield witness_of((k,), flatten_cube(res))

    return from_scan(HOM_COLEIBNIZ, scan())


def check_hom_coleibniz(p: HomPoissonCoalgebra) -> AxiomReport:
    return _coleibniz_report(p.delta, p.gamma, p.alpha)


def check_hom_poisson_coalgebra(p: HomPoissonCoalgebra) -> AxiomReport:
    """Aggregate verdict over all axioms; cocommutativity only when expected."""
    parts: list[AxiomReport] = []
    if p.cocommutative_expected:
        parts.append(check_cocommutativity(p))
    parts.extend(check_hom_coassociative(p).parts)
    parts.extend(check_hom_lie_coalgebra(p).parts)
    parts.append(_coleibniz_report(p.delta, p.gamma, p.alpha))
    return AxiomReport.aggregate(HOM_POISSON_COALGEBRA, parts)


def check_coendomorphism(p: HomPoissonCoalgebra, phi: LinearMap) -> AxiomReport:
    """Verify delta . phi = (phi @ phi) . delta and likewise for gamma."""
    if not phi.is_square(p.dim):
        raise DimensionMismatch("coendomorphism candidate has wrong shape")
    n = p.dim

    def scan(t: ComulTensor, tag: str) -> AxiomReport:
        def gen() -> Iterator[Witness]:
            for k in range(n):
                lhs = _comul_of_alpha_image(t, phi, k)
                rhs = _two_leg_alpha(t, phi, k)
                res = [[lhs[i][j] - rhs[i][j] for j in range(n)] for i in range(n)]
                if any(x for row in res for x in row):
                    yield witness_of((k,), flatten_matrix(res))

        return from_scan(tag, gen())

    parts = (scan(p.delta, COALGEBRA_MORPHISM_DELTA), scan(p.gamma, COALGEBRA_MORPHISM_GAMMA))
    return AxiomReport.aggregate(COALGEBRA_MORPHISM, parts)


def check_coalgebra_morphism(
    f: LinearMap, p1: HomPoissonCoalgebra, p2: HomPoissonCoalgebra
) -> AxiomReport:
    """(f @ f) . delta1 = delta2 . f, same for gamma, and f . alpha1 = alpha2 . f."""
    if f.dim_in != p1.dim or f.dim_out != p2.dim:
        raise DimensionMismatch("morphism candidate has wrong shape")
    n1, n2 = p1.dim, p2.dim

    def tensor_side(t1: ComulTensor, t2: ComulTensor, tag: str) -> AxiomReport:
        def gen() -> Iterator[Witness]:
            for k in range(n1):
                lhs = [[_ZERO] * n2 for _ in range(n2)]
                for a_idx in range(n1):
                    for b_idx in range(n1):
                        v = t1.d[k][a_idx][b_idx]
                        if not v:
                            continue
                        for i in range(n2):
                            fi = f.entries[i][a_idx]
                            if not fi:
                                continue
                            for j in range(n2):
                                fj = f.entries[j][b_idx]
                                if fj:
                                    lhs[i][j] += v * fi * fj
                rhs = [[_ZERO] * n2 for _ in range(n2)]
                for l in range(n2):
                    fl = f.entries[l][k]
                    if not fl:
                        continue
                    plane = t2.d[l]
                    for i in range(n2):
                        for j in range(n2):
                            w = plane[i][j]
                            if w:
                                rhs[i][j] += fl * w
                res = [[lhs[i][j] - rhs[i][j] for j in range(n2)] for i in range(n2)]
                if any(x for row in res for x in row):
                    yield witness_of((k,), flatten_matrix(res))

        return from_scan(tag, gen())

    parts = (
        tensor_side(p1.delta, p2.delta, COALGEBRA_MORPHISM_DELTA),
        tensor_side(p1.gamma, p2.gamma, COALGEBRA_MORPHISM_GAMMA),
        from_scan(COALGEBRA_MORPHISM_TWIST_COMMUTES, _commute_scan(f, p1.alpha, p2.alpha)),
    )
    return AxiomReport.aggregate(COALGEBRA_MORPHISM, parts)


# --- comodules ----------------------------------------------------------


def _beta_compat_report(axiom: str, t: CoactionTensor, alpha: LinearMap, beta: LinearMap) -> AxiomReport:
    """coaction . beta = (alpha @ beta) . coaction, per basis vector of M."""
    n, m = t.dim_coalg, t.dim_mod

    def scan() -> Iterator[Witness]:
        for p in range(m):
            lhs = [[_ZERO] * m for _ in range(n)]
            for r in range(m):
                b = beta.entries[r][p]
                if not b:
                    continue
                plane = t.g[r]
                for i in range(n):
                    for q in range(m):
                        v = plane[i][q]
                        if v:
                            lhs[i][q] += b * v
            rhs = [[_ZERO] * m for _ in range(n)]
            plane = t.g[p]
            for a_idx in range(n):
                for q_idx in range(m):
                    v = plane[a_idx][q_idx]
                    if not v:
                        continue
                    for i in range(n):
                        ai = alpha.entries[i][a_idx]
                        if not ai:
                            continue
                        for q in range(m):
                            bq = beta.entries[q][q_idx]
                            if bq:
                                rhs[i][q] += v * ai * bq
            res = [[lhs[i][q] - rhs[i][q] for q in range(m)] for i in range(n)]
            if any(x for row in res for x in row):
                yield witness_of((p,), flatten_matrix(res))

    return from_scan(axiom, scan())


def _coassoc_compat_report(t: CoactionTensor, delta: ComulTensor, alpha: LinearMap, beta: LinearMap) -> AxiomReport:
    """(alpha @ dm) . dm = (delta @ beta) . dm in A @ A @ M."""
    n, m = t.dim_coalg, t.dim_mod

    def scan() -> Iterator[Witness]:
        for p in range(m):
            lhs = [[[_ZERO] * m for _ in range(n)] for _ in range(n)]
            rhs = [[[_ZERO] * m for _ in range(n)] for _ in range(n)]
            plane = t.g[p]
            for a_idx in range(n):
                for q_idx in range(m):
                    v = plane[a_idx][q_idx]
                    if not v:
                        continue
                    inner = t.g[q_idx]
                    for i in range(n):
                        ai = alpha.entries[i][a_idx]
                        if not ai:
                            continue
                        for j in range(n):
                            for q in range(m):
                                w = inner[j][q]
                                if w:
                                    lhs[i][j][q] += v * ai * w
                    dplane = delta.d[a_idx]
                    for i in range(n):
                        for j in range(n):
                            w = dplane[i][j]
                            if not w:
                                continue
                            for q in range(m):
                                bq = beta.entries[q][q_idx]
                                if bq:
                                    rhs[i][j][q] += v * w * bq
            res = [
                [[lhs[i][j][q] - rhs[i][j][q] for q in range(m)] for j in range(n)]
                for i in range(n)
            ]
            if any(x for plane2 in res for row in plane2 for x in row):
                yield witness_of((p,), flatten_cube(res))

    return from_scan(DELTA_COACTION_COASSOCIATIVITY, scan())


def check_coassoc_comodule(c: HomComodule) -> AxiomReport:
    if c.kind not in ("coassociative", "poisson"):
        raise KindMismatch("comultiplication-side check needs a coassociative or poisson comodule")
    base = c.coalgebra
    parts = (
        _beta_compat_report(DELTA_COACTION_MULTIPLICATIVITY, c.delta_m, base.alpha, c.beta),
        _coassoc_compat_report(c.delta_m, base.delta, base.alpha, c.beta),
    )
    return AxiomReport.aggregate(COASSOC_COMODULE, parts)


def _lie_compat_report(t: CoactionTensor, gamma: ComulTensor, alpha: LinearMap, beta: LinearMap) -> AxiomReport:
    """(gamma @ beta) . gm = (alpha @ gm) . gm - swap12 . (alpha @ gm) . gm."""
    n, m = t.dim_coalg, t.dim_mod

    def scan() -> Iterator[Witness]:
        for p in range(m):
            lhs = [[[_ZERO] * m for _ in range(n)] for _ in range(n)]
            plane = t.g[p]
            for a_idx in range(n):
                for q_idx in range(m):
                    v = plane[a_idx][q_idx]
                    if not v:
                        continue
                    gplane = gamma.d[a_idx]
                    for i in range(n):
                        for j in range(n):
                            w = gplane[i][j]
                            if not w:
                                continue
                            for q in range(m):
                                bq = beta.entries[q][q_idx]
                                if bq:
                                    lhs[i][j][q] += v * w * bq
            rhs = [[[_ZERO] * m for _ in range(n)] for _ in range(n)]
            for a_idx in range(n):
                for q_idx in range(m):
                    v = plane[a_idx][q_idx]
                    if not v:
                        continue
                    inner = t.g[q_idx]
                    for i in range(n):
                        ai = alpha.entries[i][a_idx]
                        if not ai:
                            continue
                        for j in range(n):
                            for q in range(m):
                                w = inner[j][q]
                                if w:
                                    s = v * ai * w
                                    rhs[i][j][q] += s
                                    rhs[j][i][q] -= s
            res = [
                [[lhs[i][j][q] - rhs[i][j][q] for q in range(m)] for j in range(n)]
                for i in range(n)
            ]
            if any(x for plane2 in res for row in plane2 for x in row):
                yield witness_of((p,), flatten_cube(res))

    return from_scan(GAMMA_COACTION_COMPATIBILITY, scan())


def check_lie_comodule(c: HomComodule) -> AxiomReport:
    if c.kind not in ("lie", "poisson"):
        raise KindMismatch("cobracket-side check needs a lie or poisson comodule")
    base = c.coalgebra
    parts = (
        _beta_compat_report(GAMMA_COACTION_MULTIPLICATIVITY, c.gamma_m, base.alpha, c.beta),
        _lie_compat_report(c.gamma_m, base.gamma, base.alpha, c.beta),
    )
    return AxiomReport.aggregate(LIE_COMODULE, parts)


def _mixed_coleibniz_report(c: HomComodule) -> AxiomReport:
    """alpha(m[-1]) @ dm(m[0]) = gamma(m(-1)) @ beta(m(0)) + swap12(alpha(m(-1)) @ gm(m(0)))."""
    base = c.coalgebra
    dm, gm = c.delta_m, c.gamma_m
    n, m = base.dim, c.dim_mod
    alpha, beta = base.alpha, c.beta

    def scan() -> Iterator[Witness]:
        for p in range(m):
            lhs = [[[_ZERO] * m for _ in range(n)] for _ in range(n)]
            for a_idx in range(n):
                for q_idx in range(m):
                    v = gm.g[p][a_idx][q_idx]
                    if not v:
                        continue
                    inner = dm.g[q_idx]
                    for i in range(n):
                        ai = alpha.entries[i][a_idx]
                        if not ai:
                            continue
                        for j in range(n):
                            for q in range(m):
                                w = inner[j][q]
                                if w:
                                    lhs[i][j][q] += v * ai * w
            rhs = [[[_ZERO] * m for _ in range(n)] for _ in range(n)]
            for a_idx in range(n):
                for q_idx in range(m):
                    v = dm.g[p][a_idx][q_idx]
                    if not v:
                        continue
                    gplane = base.gamma.d[a_idx]
                    for i in range(n):
                        for j in range(n):
                            w = gplane[i][j]
                            if not w:
                                continue
                            for q in range(m):
                                bq = beta.entries[q][q_idx]
                                if bq:
                                    rhs[i][j][q] += v * w * bq
                    inner = gm.g[q_idx]
                    for j in range(n):
                        aj = alpha.entries[j][a_idx]
                        if not aj:
                            continue
                        for i in range(n):
                            for q in range(m):
                                w = inner[i][q]
                                if w:
                                    rhs[i][j][q] += v * aj * w
            res = [
                [[lhs[i][j][q] - rhs[i][j][q] for q in range(m)] for j in range(n)]
                for i in range(n)
            ]
            if any(x for plane2 in res for row in plane2 for x in row):
                yield witness_of((p,), flatten_cube(res))

    return from_scan(COMODULE_COLEIBNIZ, scan())


def _mixed_comult_report(c: HomComodule) -> AxiomReport:
    """delta(m[-1]) @ beta(m[0]) = alpha(m(-1)) @ gm(m(0)) + swap12 of the same."""
    base = c.coalgebra
    dm, gm = c.delta_m, c.gamma_m
    n, m = base.dim, c.dim_mod
    alpha, beta = base.alpha, c.beta

    def scan() -> Iterator[Witness]:
        for p in range(m):
            lhs = [[[_ZERO] * m for _ in range(n)] for _ in range(n)]
            for a_idx in range(n):
                for q_idx in range(m):
                    v = gm.g[p][a_idx][q_idx]
                    if not v:
                        continue
                    dplane = base.delta.d[a_idx]
                    for i in range(n):
                        for j in range(n):
                            w = dplane[i][j]
                            if not w:
                                continue
                            for q in range(m):
                                bq = beta.entries[q][q_idx]
                                if bq:
                                    lhs[i][j][q] += v * w * bq
            rhs = [[[_ZERO] * m for _ in range(n)] for _ in range(n)]
            for a_idx in range(n):
                for q_idx in range(m):
                    v = dm.g[p][a_idx][q_idx]
                    if not v:
                        continue
                    inner = gm.g[q_idx]
                    for i in range(n):
                        ai = alpha.entries[i][a_idx]
                        if not ai:
                            continue
                        for j in range(n):
                            for q in range(m):
                                w = inner[j][q]
                                if w:
                                    s = v * ai * w
                                    rhs[i][j][q] += s
                                    rhs[j][i][q] += s
            res = [
                [[lhs[i][j][q] - rhs[i][j][q] for q in range(m)] for j in range(n)]
                for i in range(n)
            ]
            if any(x for plane2 in res for row in plane2 for x in row):
                yield witness_of((p,), flatten_cube(res))

    return from_scan(COMODULE_COMULT_COMPAT, scan())


def check_poisson_comodule(c: HomComodule) -> AxiomReport:
    if c.kind != "poisson":
        raise KindMismatch("poisson check needs a poisson comodule")
    parts: list[AxiomReport] = []
    parts.extend(check_coassoc_comodule(c).parts)
    parts.extend(check_lie_comodule(c).parts)
    parts.append(_mixed_coleibniz_report(c))
    parts.append(_mixed_comult_report(c))
    return AxiomReport.aggregate(POISSON_COMODULE, parts)


def check_comodule_morphism(
    f: LinearMap, c1: HomComodule, c2: HomComodule, strict: bool = False
) -> AxiomReport:
    """Verify (id @ f) . coaction1 = coaction2 . f for the maps the kind carries."""
    if c1.coalgebra != c2.coalgebra:
        raise CoalgebraMismatch("comodules live over different coalgebras")
    if c1.kind != c2.kind:
        raise KindMismatch("comodules have different kinds")
    if f.dim_in != c1.dim_mod or f.dim_out != c2.dim_mod:
        raise DimensionMismatch("morphism candidate has wrong shape")
    n = c1.coalgebra.dim

    def intertwine(t1: CoactionTensor, t2: CoactionTensor, tag: str) -> AxiomReport:
        def gen() -> Iterator[Witness]:
            for p in range(c1.dim_mod):
                lhs = [[_ZERO] * c2.dim_mod for _ in range(n)]
                plane = t1.g[p]
                for i in range(n):
                    for q_idx in range(c1.dim_mod):
                        v = plane[i][q_idx]
                        if not v:
                            continue
                        for q in range(c2.dim_mod):
                            fq = f.entries[q][q_idx]
                            if fq:
                                lhs[i][q] += v * fq
                rhs = [[_ZERO] * c2.dim_mod for _ in range(n)]
                for r in range(c2.dim_mod):
                    fr = f.entries[r][p]
                    if not fr:
                        continue
                    plane2 = t2.g[r]
                    for i in range(n):
                        for q in range(c2.dim_mod):
                            w = plane2[i][q]
                            if w:
                                rhs[i][q] += fr * w
                res = [[lhs[i][q] - rhs[i][q] for q in range(c2.dim_mod)] for i in range(n)]
                if any(x for row in res for x in row):
                    yield witness_of((p,), flatten_matrix(res))

        return from_scan(tag, gen())

    parts: list[AxiomReport] = []
    if c1.kind in ("coassociative", "poisson"):
        parts.append(intertwine(c1.delta_m, c2.delta_m, COMODULE_MORPHISM_DELTA))
    if c1.kind in ("lie", "poisson"):
        parts.append(intertwine(c1.gamma_m, c2.gamma_m, COMODULE_MORPHISM_GAMMA))
    if strict:
        parts.append(from_scan(COMODULE_MORPHISM_BETA_COMMUTES, _commute_scan(f, c1.beta, c2.beta)))
    return AxiomReport.aggregate(COMODULE_MORPHISM, parts)
