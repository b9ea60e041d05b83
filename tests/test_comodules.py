import dataclasses
from fractions import Fraction
from itertools import product

import pytest

from homstruct import (
    HomComodule,
    HomPoissonCoalgebra,
    check_coassoc_comodule,
    check_comodule_morphism,
    check_hom_coassociative,
    check_hom_lie_coalgebra,
    check_hom_poisson_coalgebra,
    check_lie_comodule,
    check_poisson_comodule,
    negate_coalgebra,
    negate_poisson_comodule,
    regular_comodule,
    twist_coassoc_comodule,
    twist_lie_comodule,
    twist_poisson_comodule,
)
from homstruct.catalog import (
    DeterministicRng,
    entries,
    lie_only_coalgebra,
    poisson_dual_dim4,
    primitive_coalgebra,
)
from homstruct.coalgebras import (
    DELTA_MULTIPLICATIVITY,
    HOM_COASSOCIATIVITY,
    yau_twist_coalgebra,
)
from homstruct.comodules import (
    COACTIONS,
    DELTA_COACTION_COASSOCIATIVITY,
    DELTA_COACTION_MULTIPLICATIVITY,
    KINDS,
)
from homstruct.errors import CoalgebraMismatch, DimensionMismatch, KindMismatch
from homstruct.exact import CoactionTensor, ComulTensor, LinearMap


def comodule_entries():
    return [e for e in entries() if isinstance(e.payload, HomComodule)]


def passing_comodules():
    out = []
    for e in comodule_entries():
        c = e.payload
        checker = {
            "coassociative": check_coassoc_comodule,
            "lie": check_lie_comodule,
            "poisson": check_poisson_comodule,
        }[c.kind]
        if checker(c).holds:
            out.append(c)
    return out


def line_comodule():
    return HomComodule(
        primitive_coalgebra(),
        1,
        LinearMap.identity(1),
        "coassociative",
        CoactionTensor.from_entries([[[1], [0]]], 2, 1),
    )


# --- defining laws ------------------------------------------------------------

def test_regular_comodule_reduces_to_base_axioms():
    # including the failing catalogue entry: the verdict transfers exactly
    for e in entries():
        if not isinstance(e.payload, HomPoissonCoalgebra):
            continue
        base = e.payload
        reg = regular_comodule(base, "coassociative")
        rep = check_coassoc_comodule(reg)
        base_rep = check_hom_coassociative(base)
        assert rep.holds == base_rep.holds, e.name
        assert (
            rep.part(DELTA_COACTION_MULTIPLICATIVITY).holds
            == base_rep.part(DELTA_MULTIPLICATIVITY).holds
        )
        assert (
            rep.part(DELTA_COACTION_COASSOCIATIVITY).holds
            == base_rep.part(HOM_COASSOCIATIVITY).holds
        )


def test_zero_coaction_comodule_holds():
    base = primitive_coalgebra()
    mod = HomComodule(base, 3, LinearMap.identity(3), "coassociative", CoactionTensor.zero(2, 3))
    assert check_coassoc_comodule(mod).holds


def test_regular_lie_comodule_holds():
    base = lie_only_coalgebra()
    assert check_hom_lie_coalgebra(base).holds
    assert check_lie_comodule(regular_comodule(base, "lie")).holds


def test_corrupt_coaction_fails_with_witness():
    base = poisson_dual_dim4()
    reg = regular_comodule(base)
    cube = [[list(row) for row in plane] for plane in reg.gamma_m.g]
    cube[1][0][1] += 1
    bad = HomComodule(
        base, 4, base.alpha, "poisson", reg.delta_m, CoactionTensor.from_entries(cube, 4, 4)
    )
    rep = check_poisson_comodule(bad)
    assert not rep.holds
    assert rep.witnesses


def test_poisson_comodule_with_zero_cobracket_sides():
    base = primitive_coalgebra()  # gamma = 0
    reg = regular_comodule(base)  # gamma_m = 0
    assert check_poisson_comodule(reg).holds


def test_regular_poisson_comodule_with_nonzero_cobracket():
    assert check_poisson_comodule(regular_comodule(poisson_dual_dim4())).holds


def test_kind_mismatch_errors():
    reg = regular_comodule(primitive_coalgebra(), "coassociative")
    with pytest.raises(KindMismatch):
        check_lie_comodule(reg)
    with pytest.raises(KindMismatch):
        check_poisson_comodule(reg)
    with pytest.raises(KindMismatch):
        twist_lie_comodule(reg)
    with pytest.raises(KindMismatch):
        negate_poisson_comodule(reg)
    with pytest.raises(KindMismatch):
        HomComodule(primitive_coalgebra(), 1, LinearMap.identity(1), "lie",
                    CoactionTensor.zero(2, 1), None)


# --- twisting -------------------------------------------------------------------

def test_twists_with_identity_alpha_change_nothing():
    reg = regular_comodule(poisson_dual_dim4())
    assert twist_poisson_comodule(reg) == reg
    line = line_comodule()
    assert twist_coassoc_comodule(line) == line


def test_twists_preserve_passing_across_catalogue():
    for c in passing_comodules():
        if c.kind in ("coassociative", "poisson"):
            assert check_coassoc_comodule(twist_coassoc_comodule(c)).holds
        if c.kind in ("lie", "poisson"):
            assert check_lie_comodule(twist_lie_comodule(c)).holds
        if c.kind == "poisson":
            assert check_poisson_comodule(twist_poisson_comodule(c)).holds


def test_twisted_regular_comodule_over_twisted_base():
    base = yau_twist_coalgebra(primitive_coalgebra(), LinearMap.diagonal([1, 3]))
    reg = regular_comodule(base, "coassociative")
    assert check_coassoc_comodule(reg).holds
    twisted = twist_coassoc_comodule(reg)
    assert twisted.delta_m != reg.delta_m  # alpha is nontrivial here
    assert check_coassoc_comodule(twisted).holds


def test_twist_and_negation_commute_on_data():
    reg = regular_comodule(poisson_dual_dim4())
    a = negate_poisson_comodule(twist_poisson_comodule(reg))
    b = twist_poisson_comodule(negate_poisson_comodule(reg))
    assert a == b


# --- negation ----------------------------------------------------------------------

def test_negation_passes_over_negated_base():
    for c in passing_comodules():
        if c.kind != "poisson":
            continue
        neg = negate_poisson_comodule(c)
        assert neg.coalgebra == negate_coalgebra(c.coalgebra)
        assert check_poisson_comodule(neg).holds


def test_double_negation_is_identity():
    reg = regular_comodule(poisson_dual_dim4())
    assert negate_poisson_comodule(negate_poisson_comodule(reg)) == reg


# --- morphisms -----------------------------------------------------------------------

def test_identity_zero_scalar_comodule_morphisms():
    reg = regular_comodule(poisson_dual_dim4())
    assert check_comodule_morphism(LinearMap.identity(4), reg, reg).holds
    assert check_comodule_morphism(LinearMap.zero(4, 4), reg, reg).holds
    assert check_comodule_morphism(LinearMap.diagonal([3, 3, 3, 3]), reg, reg).holds


def test_line_embedding_is_comodule_morphism():
    base = primitive_coalgebra()
    line = line_comodule()
    reg = regular_comodule(base, "coassociative")
    embed = LinearMap.from_rows([[1], [0]])
    assert check_comodule_morphism(embed, line, reg).holds


def test_comodule_morphism_survives_twisting():
    base = yau_twist_coalgebra(primitive_coalgebra(), LinearMap.diagonal([1, 3]))
    reg = regular_comodule(base)
    f = LinearMap.diagonal([5, 5])
    assert check_comodule_morphism(f, reg, reg).holds
    assert check_comodule_morphism(
        f, twist_poisson_comodule(reg), twist_poisson_comodule(reg)
    ).holds


def test_comodule_morphism_strict_mode():
    base = primitive_coalgebra()
    c1 = HomComodule(base, 1, LinearMap.diagonal([2]), "coassociative", CoactionTensor.zero(2, 1))
    c2 = HomComodule(base, 1, LinearMap.diagonal([3]), "coassociative", CoactionTensor.zero(2, 1))
    f = LinearMap.diagonal([1])
    assert check_comodule_morphism(f, c1, c2).holds
    assert not check_comodule_morphism(f, c1, c2, strict=True).holds


def test_comodule_morphism_mismatch_errors():
    r1 = regular_comodule(primitive_coalgebra())
    r2 = regular_comodule(poisson_dual_dim4())
    with pytest.raises(CoalgebraMismatch):
        check_comodule_morphism(LinearMap.zero(4, 2), r1, r2)
    with pytest.raises(KindMismatch):
        check_comodule_morphism(
            LinearMap.identity(2), regular_comodule(primitive_coalgebra(), "coassociative"), r1
        )
    with pytest.raises(DimensionMismatch):
        check_comodule_morphism(LinearMap.identity(3), r1, r1)


def test_non_morphism_detected():
    base = yau_twist_coalgebra(primitive_coalgebra(), LinearMap.diagonal([1, 3]))
    reg = regular_comodule(base)
    rep = check_comodule_morphism(LinearMap.from_rows([[0, 1], [1, 0]]), reg, reg)
    assert not rep.holds


# --- the coextension -----------------------------------------------------------------------
# M is a comodule over C exactly when C + M, its comultiplication delta on C and the coaction
# on M (C @ M; for the poisson kind mirrored into M @ C too), its cobracket gamma on C and the
# cobracket coaction less its mirror on M, and twisted by alpha + beta, is a coalgebra of the
# kind's law, if C is.  This holds each comodule row against the coalgebra rows alone.

KIND_LAWS = {  # kind -> (the coalgebra law, the comodule law)
    "coassociative": (check_hom_coassociative, check_coassoc_comodule),
    "lie": (check_hom_lie_coalgebra, check_lie_comodule),
    "poisson": (check_hom_poisson_coalgebra, check_poisson_comodule),
}


def coextension(c: HomComodule) -> HomPoissonCoalgebra:
    """C + M as a Hom-coalgebra, built from the coactions alone; M's basis follows C's."""
    base, n, d = c.coalgebra, c.coalgebra.dim, c.dim_mod
    cubes = {}
    for name, mirror in (("delta", 1 if c.kind == "poisson" else 0), ("gamma", -1)):
        cube = [[[0] * (n + d) for _ in range(n + d)] for _ in range(n + d)]
        for k, i, j in product(range(n), repeat=3):
            cube[k][i][j] = getattr(base, name).d[k][i][j]
        coaction = getattr(c, f"{name}_m")
        for p, a, s in product(range(d), range(n), range(d)) if coaction is not None else ():
            cube[n + p][a][n + s] = coaction.g[p][a][s]  # m_p -> e_a @ m_s
            cube[n + p][n + s][a] = mirror * coaction.g[p][a][s]  # and its mirror
        cubes[name] = ComulTensor.from_entries(cube)
    twist = [list(row) + [0] * d for row in base.alpha.entries]
    twist += [[0] * n + list(row) for row in c.beta.entries]
    return HomPoissonCoalgebra(n + d, cubes["delta"], cubes["gamma"],
                               LinearMap.from_rows(twist, n + d), base.cocommutative_expected)


def small_rational(rng: DeterministicRng) -> Fraction:
    return Fraction(rng.int_between(-2, 2), rng.int_between(1, 2))


def random_coalgebra(seed: int, n: int) -> HomPoissonCoalgebra:
    rng = DeterministicRng(seed)
    cube = lambda: ComulTensor.from_entries(  # noqa: E731
        [[[small_rational(rng) for _ in range(n)] for _ in range(n)] for _ in range(n)])
    delta, gamma = cube(), cube()
    alpha = LinearMap.from_rows([[small_rational(rng) for _ in range(n)] for _ in range(n)], n)
    return HomPoissonCoalgebra(n, delta, gamma, alpha)


def random_comodule(seed: int, base: HomPoissonCoalgebra, kind: str, d: int,
                    zero: bool = False) -> HomComodule:
    """Seeded coactions of ``kind`` (all zero if ``zero``) and beta, M of dim ``d``."""
    rng, n = DeterministicRng(seed), base.dim
    draw = (lambda: 0) if zero else (lambda: small_rational(rng))
    coactions = {name: CoactionTensor.from_entries(
        [[[draw() for _ in range(d)] for _ in range(n)] for _ in range(d)], n, d)
        for name in COACTIONS[kind]}
    beta = LinearMap.from_rows([[small_rational(rng) for _ in range(d)] for _ in range(d)], d)
    return HomComodule(base, d, beta, kind, **coactions)


def raised(c: HomComodule, name: str) -> HomComodule:
    """``c`` with one constant of its coaction ``name`` raised by 1."""
    cube = [[list(row) for row in plane] for plane in getattr(c, name).g]
    cube[-1][0][-1] += 1
    coaction = CoactionTensor.from_entries(cube, c.coalgebra.dim, c.dim_mod)
    return dataclasses.replace(c, **{name: coaction})


def coextension_cases() -> list[HomComodule]:
    """Every catalogue comodule, and it once per coaction with a constant raised; each
    kind's regular comodule and two seeded ones over every catalogue coalgebra; and over
    two seeded coalgebras that fail every law, each kind with zero and with seeded
    coactions."""
    cases = [e.payload for e in comodule_entries()]
    cases += [raised(c, name) for c in list(cases) for name in COACTIONS[c.kind]]
    bases = [e.payload for e in entries() if isinstance(e.payload, HomPoissonCoalgebra)]
    for b, base in enumerate(bases):
        for k, kind in enumerate(KINDS):
            cases.append(regular_comodule(base, kind))
            cases += [random_comodule(8000 + 100 * b + 10 * k + s, base, kind, 1 + s)
                      for s in range(2)]
    for b, base in enumerate(random_coalgebra(8900 + n, n) for n in (2, 3)):
        for k, kind in enumerate(KINDS):
            cases += [random_comodule(8950 + 10 * b + k, base, kind, 2, zero=True),
                      random_comodule(8970 + 10 * b + k, base, kind, 2)]
    return cases


def nonzero(report, shape: tuple) -> dict:
    """``{(index, residual key): value}`` over the witnesses of ``report``, a residual
    being over ``shape``."""
    return {(*w.index, *key): v for w in report.witnesses
            for key, v in zip(product(*map(range, shape)), w.residual.entries) if v}


def test_a_comodule_law_is_its_coextensions_coalgebra_law():
    seen = set()
    for c in coextension_cases():
        coalgebra_law, comodule_law = KIND_LAWS[c.kind]
        ext, base, own = coalgebra_law(coextension(c)), coalgebra_law(c.coalgebra), comodule_law(c)
        assert ext.holds == (base.holds and own.holds), c
        if c.kind != "poisson":  # the mirrored coproduct adds failures at mixed indices
            assert ext.total_failures == base.total_failures + own.total_failures, c
        seen.add((c.kind, base.holds, own.holds))
        if c.kind != "coassociative":
            continue
        # At an index in C the residual is the base's; at m_p it is the comodule's, its
        # last leg in M.
        n, d = c.coalgebra.dim, c.dim_mod
        for legs, part, own_part in ((2, DELTA_MULTIPLICATIVITY, DELTA_COACTION_MULTIPLICATIVITY),
                                     (3, HOM_COASSOCIATIVITY, DELTA_COACTION_COASSOCIATIVITY)):
            want = nonzero(base.part(part), (n,) * legs)
            want.update({(n + p, *key, n + q): v for (p, *key, q), v
                         in nonzero(own.part(own_part), (n,) * (legs - 1) + (d,)).items()})
            assert nonzero(ext.part(part), (n + d,) * legs) == want, c
    # Each kind meets every pair of verdicts.
    assert seen == set(product(KINDS, (True, False), (True, False)))
