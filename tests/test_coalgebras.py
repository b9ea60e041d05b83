import random
from fractions import Fraction
from itertools import product

import pytest

import reference_checks as ref
from reference_eval import basis, module_hom_associator
from homstruct import (
    HomAlgebra,
    HomComodule,
    HomModule,
    HomPoissonCoalgebra,
    check_coalgebra_morphism,
    check_cocommutativity,
    check_coendomorphism,
    check_hom_coassociative,
    check_hom_coleibniz,
    check_hom_lie_coalgebra,
    check_hom_poisson_coalgebra,
    laws,
    negate_coalgebra,
    opposite_coalgebra,
    yau_twist_coalgebra,
)
from homstruct.algebras import HOM_ASSOC
from homstruct.catalog import (
    coleibniz_failing_coalgebra,
    entries,
    grouplike_coalgebra,
    lie_only_coalgebra,
    noncocommutative_coalgebra,
    poisson_dual_dim4,
    primitive_coalgebra,
)
from homstruct.coalgebras import (
    COCOMMUTATIVITY,
    DELTA_MULTIPLICATIVITY,
    GAMMA_MULTIPLICATIVITY,
    HOM_COASSOCIATIVITY,
    HOM_COJACOBI,
    HOM_COLEIBNIZ,
    SKEW_COSYMMETRY,
)
from homstruct.comodules import DELTA_COACTION_COASSOCIATIVITY, check_coassoc_comodule
from homstruct.errors import AlreadyTwisted, NotCoendomorphism
from homstruct.exact import ActionTensor, CoactionTensor, ComulTensor, LinearMap, MulTensor
from homstruct.report import WITNESS_CAP


def coalgebra_entries():
    return [e for e in entries() if isinstance(e.payload, HomPoissonCoalgebra)]


def verified_coalgebras():
    return [
        e.payload for e in coalgebra_entries() if check_hom_poisson_coalgebra(e.payload).holds
    ]


# --- cocommutativity ---------------------------------------------------------

def test_grouplike_is_cocommutative():
    p = grouplike_coalgebra()
    assert check_cocommutativity(p).holds


def test_single_asymmetric_entry_fails_cocommutativity():
    d = [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]
    c = HomPoissonCoalgebra(
        2, ComulTensor.from_entries(d), ComulTensor.zero(2), LinearMap.identity(2)
    )
    rep = check_cocommutativity(c)
    assert not rep.holds
    assert rep.witnesses[0].index == (0,)


def test_dual_of_commutative_algebra_is_cocommutative():
    p = poisson_dual_dim4()
    assert check_cocommutativity(p).holds


# --- coassociative side --------------------------------------------------------

def test_grouplike_with_identity_holds():
    p = grouplike_coalgebra()
    assert check_hom_coassociative(p).holds


def test_grouplike_with_doubling_fails_multiplicativity():
    c = HomPoissonCoalgebra(
        1, ComulTensor.from_entries([[[1]]]), ComulTensor.zero(1), LinearMap.diagonal([2])
    )
    rep = check_hom_coassociative(c)
    assert not rep.holds
    part = rep.part(DELTA_MULTIPLICATIVITY)
    assert not part.holds
    # comul(2 e) = 2 e@e versus (2 @ 2) e@e = 4 e@e
    assert part.witnesses[0].residual.entries == (Fraction(-2),)
    assert rep.part(HOM_COASSOCIATIVITY).holds


def test_twisted_catalogue_coalgebras_stay_coassociative():
    for p in verified_coalgebras():
        assert check_hom_coassociative(p).holds


# --- Lie side --------------------------------------------------------------------

def test_zero_cobracket_holds():
    p = primitive_coalgebra()
    assert check_hom_lie_coalgebra(p).holds


def test_antisymmetric_dim2_cobracket_holds():
    rep = check_hom_lie_coalgebra(lie_only_coalgebra())
    assert rep.holds
    assert rep.part(SKEW_COSYMMETRY).holds
    assert rep.part(HOM_COJACOBI).holds


def test_symmetric_cobracket_fails_skew_cosymmetry():
    g = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
    l = HomPoissonCoalgebra(
        2, ComulTensor.zero(2), ComulTensor.from_entries(g), LinearMap.identity(2)
    )
    rep = check_hom_lie_coalgebra(l)
    assert not rep.part(SKEW_COSYMMETRY).holds


# --- full Poisson coalgebra ---------------------------------------------------------

def test_grouplike_and_primitive_pass_every_axiom():
    for p in (grouplike_coalgebra(), primitive_coalgebra()):
        rep = check_hom_poisson_coalgebra(p)
        assert rep.holds
        for axiom in (
            COCOMMUTATIVITY,
            DELTA_MULTIPLICATIVITY,
            HOM_COASSOCIATIVITY,
            SKEW_COSYMMETRY,
            GAMMA_MULTIPLICATIVITY,
            HOM_COJACOBI,
            HOM_COLEIBNIZ,
        ):
            assert rep.part(axiom).holds


def test_coleibniz_failure_with_recorded_witness():
    p = coleibniz_failing_coalgebra()
    rep = check_hom_poisson_coalgebra(p)
    assert not rep.holds
    leib = rep.part(HOM_COLEIBNIZ)
    assert not leib.holds
    assert leib.witnesses[0].index == (0,)
    assert leib.witnesses[0].residual.entries[0] == -1
    assert all(x == 0 for x in leib.witnesses[0].residual.entries[1:])
    # the comultiplication side of the non-example is fine
    assert rep.part(DELTA_MULTIPLICATIVITY).holds
    assert rep.part(HOM_COASSOCIATIVITY).holds
    assert not rep.part(SKEW_COSYMMETRY).holds
    assert not rep.part(HOM_COJACOBI).holds


def test_noncocommutative_example_is_verified_without_cocommutativity():
    p = noncocommutative_coalgebra()
    assert check_hom_poisson_coalgebra(p).holds
    assert not check_cocommutativity(p).holds


def test_cocommutativity_not_checked_when_not_expected():
    p = noncocommutative_coalgebra()
    parts = [part.axiom for part in check_hom_poisson_coalgebra(p).parts]
    assert COCOMMUTATIVITY not in parts


def test_poisson_dual_dim4_has_nonzero_verified_cobracket():
    p = poisson_dual_dim4()
    assert any(x for plane in p.gamma.d for row in plane for x in row)
    assert check_hom_poisson_coalgebra(p).holds


# --- opposite and negation -----------------------------------------------------------

def test_cocommutative_opposite_keeps_tensors():
    for p in verified_coalgebras():
        if p.cocommutative_expected:
            assert opposite_coalgebra(p).delta == p.delta


def test_opposite_swaps_entries():
    d = [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]
    p = HomPoissonCoalgebra(
        2, ComulTensor.from_entries(d), ComulTensor.zero(2), LinearMap.identity(2), False
    )
    assert opposite_coalgebra(p).delta.d[0][1][0] == 1


def test_opposite_and_negation_are_data_involutions():
    for p in verified_coalgebras():
        assert opposite_coalgebra(opposite_coalgebra(p)).delta == p.delta
        twice = negate_coalgebra(negate_coalgebra(p))
        assert twice == p


def test_opposite_and_negation_metamorphic_suite():
    for p in verified_coalgebras():
        assert check_hom_poisson_coalgebra(opposite_coalgebra(p)).holds
        assert check_hom_poisson_coalgebra(negate_coalgebra(p)).holds


def test_opposite_stepwise_identities():
    # multiplicativity, Hom-coassociativity, and the co-Leibniz law each hold
    # individually for the reversed comultiplication
    for p in verified_coalgebras():
        opp = opposite_coalgebra(p)
        coassoc = check_hom_coassociative(opp)
        assert coassoc.part(DELTA_MULTIPLICATIVITY).holds
        assert coassoc.part(HOM_COASSOCIATIVITY).holds
        assert check_hom_coleibniz(opp).holds


# --- twisting --------------------------------------------------------------------------

def test_coalgebra_twist_with_identity_is_identity():
    p = primitive_coalgebra()
    assert yau_twist_coalgebra(p, LinearMap.identity(2)) == p


def test_grouplike_twist_only_identity_scaling():
    p = grouplike_coalgebra()
    assert check_coendomorphism(p, LinearMap.diagonal([1])).holds
    assert not check_coendomorphism(p, LinearMap.diagonal([2])).holds
    assert yau_twist_coalgebra(p, LinearMap.diagonal([1])) == p


def test_primitive_twist_by_scaling():
    p = primitive_coalgebra()
    phi = LinearMap.diagonal([1, 3])
    twisted = yau_twist_coalgebra(p, phi)
    # comul(phi e1) = 3 (e0 @ e1 + e1 @ e0)
    assert twisted.delta.d[1][0][1] == 3
    assert twisted.delta.d[1][1][0] == 3
    assert twisted.alpha == phi
    assert check_hom_poisson_coalgebra(twisted).holds


def test_twist_pairs_metamorphic_suite():
    pairs = [
        (grouplike_coalgebra(), LinearMap.identity(1)),
        (primitive_coalgebra(), LinearMap.diagonal([1, 0])),
        (primitive_coalgebra(), LinearMap.diagonal([1, 2])),
        (primitive_coalgebra(), LinearMap.diagonal([1, 3])),
        (poisson_dual_dim4(), LinearMap.diagonal([1, 2, 3, 6])),
        (lie_only_coalgebra(), LinearMap.diagonal([2, 1])),
    ]
    for p, phi in pairs:
        assert check_coendomorphism(p, phi).holds
        assert check_hom_poisson_coalgebra(yau_twist_coalgebra(p, phi)).holds


def test_twist_rejections():
    p = primitive_coalgebra()
    with pytest.raises(NotCoendomorphism):
        yau_twist_coalgebra(p, LinearMap.diagonal([2, 1]))
    twisted = yau_twist_coalgebra(p, LinearMap.diagonal([1, 3]))
    with pytest.raises(AlreadyTwisted):
        yau_twist_coalgebra(twisted, LinearMap.identity(2))


def test_twist_preserves_cocommutativity_flag_and_symmetry():
    p = primitive_coalgebra()
    twisted = yau_twist_coalgebra(p, LinearMap.diagonal([1, 3]))
    assert twisted.cocommutative_expected
    assert check_cocommutativity(twisted).holds


# --- morphisms ---------------------------------------------------------------------------

def test_identity_and_zero_coalgebra_morphisms():
    p = primitive_coalgebra()
    assert check_coalgebra_morphism(LinearMap.identity(2), p, p).holds
    assert check_coalgebra_morphism(LinearMap.zero(2, 2), p, p).holds


def test_coendomorphism_is_self_morphism():
    p = primitive_coalgebra()
    assert check_coalgebra_morphism(LinearMap.diagonal([1, 3]), p, p).holds


def test_non_morphism_detected():
    p = primitive_coalgebra()
    rep = check_coalgebra_morphism(LinearMap.diagonal([2, 1]), p, p)
    assert not rep.holds


# --- duality: a coalgebra law is its dual algebra's law ------------------------------------

def transposed(f: LinearMap) -> LinearMap:
    n, a = f.dim_out, f.entries  # a square twist
    return LinearMap.from_rows([[a[j][i] for j in range(n)] for i in range(n)], n)


def dual_algebra(c: HomPoissonCoalgebra) -> HomAlgebra:
    """``(delta^T, alpha^T)``: ``mu[i][j][k] = delta[k][i][j]`` and the transposed twist."""
    n, d = c.dim, c.delta.d
    mu = [[[d[k][i][j] for k in range(n)] for j in range(n)] for i in range(n)]
    return HomAlgebra(n, MulTensor.from_entries(mu), transposed(c.alpha))


def dense_coalgebra(rng: random.Random, n: int) -> HomPoissonCoalgebra:
    """Every entry of delta and alpha a nonzero rational; gamma zero."""
    def entry():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))

    delta = ComulTensor.from_entries([[[entry() for _ in range(n)] for _ in range(n)]
                                      for _ in range(n)])
    alpha = LinearMap.from_rows([[entry() for _ in range(n)] for _ in range(n)], n)
    return HomPoissonCoalgebra(n, delta, ComulTensor.zero(n), alpha)


def test_hom_coassociativity_is_the_dual_algebras_hom_associativity(monkeypatch):
    # The oracle with no witness cap gives every failing index's full residual.
    monkeypatch.setattr(ref, "WITNESS_CAP", 10**6)
    cases = [c.payload for c in coalgebra_entries()]
    cases += [dense_coalgebra(random.Random(100 * n + seed), n)
              for n, seed in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1))]
    verdicts = []
    for c in cases:
        n, mu = c.dim, dual_algebra(c)
        holds = laws.check(c, HOM_COASSOCIATIVITY).holds
        assert holds == laws.check(mu, HOM_ASSOC).holds
        co = ref.check_hom_coassociative(c).part(HOM_COASSOCIATIVITY).witnesses
        algebra = ref.check_hom_associative(mu).witnesses
        # Coalgebra index (k; i, j, l) is algebra index (i, j, l; k).
        got = {(*w.index, *key): v for w in co
               for key, v in zip(product(range(n), repeat=3), w.residual.entries) if v}
        want = {(k, *w.index): v for w in algebra for k, v in enumerate(w.residual.entries) if v}
        assert got == want and holds == (not got)
        verdicts.append(holds)
    assert True in verdicts and False in verdicts


def dense_comodule(rng: random.Random, n: int, d: int) -> HomComodule:
    """A coassociative comodule of dim ``d`` over ``dense_coalgebra``, every entry of its
    coaction and beta a nonzero rational."""
    def entry():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))

    dm = [[[entry() for _ in range(d)] for _ in range(n)] for _ in range(d)]
    beta = LinearMap.from_rows([[entry() for _ in range(d)] for _ in range(d)], d)
    return HomComodule(dense_coalgebra(rng, n), d, beta, "coassociative",
                       CoactionTensor.from_entries(dm, n, d))


def test_coaction_coassociativity_is_the_dual_modules_hom_associator():
    # The dual left module: mu[i][j][k] = delta[k][i][j], act[i][p][q] = dm[q][i][p], and
    # the transposed twists.  Residual (p; i, j, q) is the associator's coordinate p at
    # (e_i, e_j, f_q).
    cases = [e.payload for e in entries()
             if isinstance(e.payload, HomComodule) and e.payload.delta_m is not None]
    cases += [dense_comodule(random.Random(1000 * n + 10 * d + seed), n, d)
              for n, d, seed in ((1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 1), (4, 2, 1))]
    assert len(cases) == 12
    verdicts = []
    for c in cases:
        n, d, dm = c.coalgebra.dim, c.dim_mod, c.delta_m.g
        act = [[[dm[q][i][p] for q in range(d)] for p in range(d)] for i in range(n)]
        mod = HomModule(dual_algebra(c.coalgebra), d, transposed(c.beta),
                        ActionTensor.from_entries(act, n, d, "left"), "left")
        report = check_coassoc_comodule(c).part(DELTA_COACTION_COASSOCIATIVITY)
        got = {(*w.index, *key): v for w in report.witnesses
               for key, v in zip(product(range(n), range(n), range(d)), w.residual.entries) if v}
        want = {}
        for i, j, q in product(range(n), range(n), range(d)):
            at = module_hom_associator(mod, basis(n, i), basis(n, j), basis(d, q))
            want.update({(p, i, j, q): v for p, v in enumerate(at) if v})
        assert got == want
        assert report.total_failures == len({p for p, *_ in want}) < WITNESS_CAP
        verdicts.append(report.holds)
    assert True in verdicts and False in verdicts


def test_the_transposed_commutator_of_a_hom_associative_algebra_is_hom_lie():
    # gamma[k][i][j] = mu[i][j][k] - mu[j][i][k] with alpha^T: the dual of mu - mu^op.
    checked = {}
    for entry in entries():
        alg = entry.payload
        if not isinstance(alg, HomAlgebra):
            continue
        n, c = alg.dim, alg.mu.c
        gamma = [[[c[i][j][k] - c[j][i][k] for j in range(n)] for i in range(n)] for k in range(n)]
        coalg = HomPoissonCoalgebra(n, ComulTensor.zero(n), ComulTensor.from_entries(gamma),
                                    transposed(alg.alpha))
        checked[entry.name] = (entry.expected_verdicts[HOM_ASSOC], check_hom_lie_coalgebra(coalg))
    associative = [name for name, (assoc, _) in checked.items() if assoc]
    assert len(associative) == 6
    assert all(checked[name][1].holds for name in associative)
    report = checked["octonions"][1]
    assert [(p.axiom, p.total_failures) for p in report.parts if not p.holds] == [(HOM_COJACOBI, 7)]
