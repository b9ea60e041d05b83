from itertools import product

import pytest

from corpus import module_corpus, point_rng, random_structure, tensor_entry, POINTS_PER_STRUCTURE
from homstruct import (
    HomAlgebra,
    HomModule,
    check_left_module,
    check_module_morphism,
    check_right_module,
    negate,
    negate_module,
    opposite,
    opposite_module,
    regular_module,
    twist_module,
)
from homstruct.algebras import check_left_hom_alternative, check_right_hom_alternative
from homstruct.catalog import (
    DeterministicRng,
    dual_numbers,
    dual_numbers_twisted,
    entries,
    octonions,
    zero_algebra,
)
from homstruct.errors import AlgebraMismatch, DimensionMismatch, NotEndomorphism, WrongSide
from homstruct.exact import ActionTensor, LinearMap, MulTensor, action_shape
from homstruct.report import Witness
from homstruct.laws import Law, compose, construct
from homstruct.modules import _LAWS, _TWIST, LEFT_MODULE
from reference_eval import (
    add,
    basis,
    is_zero,
    left_module_defect,
    module_hom_associator,
    point,
    zeros,
)
from reference_laws import check_row


def module_entries():
    return [e for e in entries() if isinstance(e.payload, HomModule)]


def left_passing_modules():
    return [
        e.payload
        for e in module_entries()
        if e.payload.side == "left" and check_left_module(e.payload).holds
    ]


# --- the defining law -----------------------------------------------------------

def test_regular_module_of_twisted_dual_numbers_holds():
    assert check_left_module(regular_module(dual_numbers_twisted())).holds


def test_zero_action_module_holds():
    alg = octonions()
    mod = HomModule(alg, 3, LinearMap.identity(3), ActionTensor.zero(8, 3, "left"), "left")
    assert check_left_module(mod).holds


def test_corrupting_one_action_constant_fails_with_witness():
    alg = octonions()
    reg = regular_module(alg)
    assert check_left_module(reg).holds
    cube = [[list(row) for row in plane] for plane in reg.action.a]
    cube[1][2][3] += 1
    bad = HomModule(alg, 8, alg.alpha, ActionTensor.from_entries(cube, 8, 8, "left"), "left")
    rep = check_left_module(bad)
    assert not rep.holds
    assert rep.witnesses
    for w in rep.witnesses:
        assert not is_zero(w.residual.entries)


def test_right_regular_module_of_octonions_holds():
    assert check_right_module(regular_module(octonions(), "right")).holds


def test_wrong_side_errors():
    reg = regular_module(octonions())
    with pytest.raises(WrongSide):
        check_right_module(reg)
    with pytest.raises(WrongSide):
        check_left_module(regular_module(octonions(), "right"))


def test_dim_zero_module_vacuously_holds():
    alg, _ = dual_numbers(2)
    mod = HomModule(alg, 0, LinearMap.from_rows([]), ActionTensor.zero(2, 0, "left"), "left")
    assert check_left_module(mod).holds
    assert check_left_module(twist_module(mod)).holds


# --- module associator ------------------------------------------------------------

def test_associator_vanishes_on_diagonal_at_random_points():
    for tag, mod in enumerate(left_passing_modules()):
        rng = point_rng(50000 + tag)
        for _ in range(POINTS_PER_STRUCTURE):
            x = point(rng, mod.algebra.dim)
            m = point(rng, mod.dim_mod)
            assert is_zero(module_hom_associator(mod, x, x, m))


def test_associator_zero_arguments():
    mod = regular_module(octonions())
    zero8 = zeros(8)
    assert is_zero(module_hom_associator(mod, zero8, basis(8, 2), basis(8, 3)))
    assert is_zero(module_hom_associator(mod, basis(8, 1), basis(8, 2), zero8))


def test_associator_octonion_values():
    # act(a(x), act(y, m)) - act(mul(x, y), b(m)) on the regular octonions: e1 e2 = e3,
    # so it vanishes at (e1, e2, e3) and is -2 e7 at (e1, e2, e4)
    mod = regular_module(octonions())
    e = lambda i: basis(8, i)
    assert is_zero(module_hom_associator(mod, e(1), e(2), e(3)))
    value = module_hom_associator(mod, e(1), e(2), e(4))
    assert value == [0] * 7 + [-2]
    # The kernel's left module row, its first two terms, as a one-row plan: its
    # witnesses are listed in index order, so (1, 2, 3) would precede (1, 2, 4).
    law = _LAWS[LEFT_MODULE]
    (_, _, operands), = mod.laws(LEFT_MODULE)
    report = check_row(Law(law.index, law.residual, *law.terms[:2]), "ASSOCIATOR", **operands)
    residuals = {w.index: list(w.residual.entries) for w in report.witnesses}
    assert (1, 2, 3) not in residuals and residuals[(1, 2, 4)] == value


def test_associator_antisymmetry_at_random_points():
    for tag, mod in enumerate(left_passing_modules()):
        rng = point_rng(60000 + tag)
        for _ in range(10):
            x = point(rng, mod.algebra.dim)
            y = point(rng, mod.algebra.dim)
            m = point(rng, mod.dim_mod)
            total = add(module_hom_associator(mod, x, y, m), module_hom_associator(mod, y, x, m))
            assert is_zero(total)


# --- twisting -----------------------------------------------------------------------

def test_twist_module_with_identity_alpha_is_identity():
    mod = regular_module(octonions())
    assert twist_module(mod).action == mod.action


def test_twist_module_dual_numbers_scales_action():
    mod = regular_module(dual_numbers_twisted())
    twisted = twist_module(mod)
    for p in range(2):
        for q in range(2):
            assert twisted.action.a[0][p][q] == mod.action.a[0][p][q]
            assert twisted.action.a[1][p][q] == 4 * mod.action.a[1][p][q]


def test_twist_module_preserves_left_verdict_across_catalogue():
    for mod in left_passing_modules():
        assert check_left_module(twist_module(mod)).holds


def test_twist_module_refuses_an_alpha_that_is_not_multiplicative():
    # The octonions with alpha = 2 id are left Hom-alternative and their regular
    # module holds, but alpha is not multiplicative, and the twisted action would
    # fail LEFT_MODULE at 176 indices.
    alg = HomAlgebra(8, octonions().mu, LinearMap.diagonal([2] * 8))
    mod = regular_module(alg)
    assert check_left_module(mod).holds
    square = compose(alg.alpha, alg.alpha)
    action = ActionTensor(construct(_TWIST["left"], square=square, t=mod.action), 8, 8, "left")
    assert check_left_module(HomModule(alg, 8, mod.beta, action, "left")).total_failures == 176
    for side in ("left", "right"):
        with pytest.raises(NotEndomorphism, match="not multiplicative at 64 basis pairs"):
            twist_module(regular_module(alg, side))


def test_twist_right_module_preserves_verdict():
    # the mirrored composition act . (id @ alpha^2)
    for alg in (octonions(), dual_numbers_twisted()):
        mod = regular_module(alg, "right")
        assert check_right_module(mod).holds
        assert check_right_module(twist_module(mod)).holds


# --- negation / opposite --------------------------------------------------------------

def test_negate_module_zero_action():
    alg, _ = dual_numbers(2)
    mod = HomModule(alg, 2, LinearMap.identity(2), ActionTensor.zero(2, 2, "left"), "left")
    assert negate_module(mod).action == mod.action


def test_negate_module_passes_over_negated_algebra():
    mod = regular_module(dual_numbers_twisted())
    neg = negate_module(mod)
    assert neg.algebra == negate(mod.algebra)
    assert neg.action.a[0][0][0] == -1
    assert check_left_module(neg).holds


def test_opposite_module_passes_right_check_over_opposite_algebra():
    mod = regular_module(octonions())
    opp = opposite_module(mod)
    assert opp.side == "right"
    assert opp.algebra == opposite(octonions())
    assert check_right_module(opp).holds


def test_opposite_module_over_dim_zero_algebra():
    mod = HomModule(zero_algebra(0), 2, LinearMap.identity(2), ActionTensor.zero(0, 2, "left"), "left")
    opp = opposite_module(mod)
    assert opp.side == "right" and opp.action.shape == (2, 0, 2)
    assert opp.action == ActionTensor.zero(0, 2, "right")
    assert check_right_module(opp).holds


def test_negate_opposite_require_left_side():
    right = regular_module(octonions(), "right")
    with pytest.raises(WrongSide):
        negate_module(right)
    with pytest.raises(WrongSide):
        opposite_module(right)


# --- morphisms ---------------------------------------------------------------------------

def multiplication_by_one_plus_two_x():
    return LinearMap.from_rows([[1, 0], [2, 1]])


def test_identity_and_zero_module_morphisms():
    mod = regular_module(octonions())
    assert check_module_morphism(LinearMap.identity(8), mod, mod).holds
    assert check_module_morphism(LinearMap.zero(8, 8), mod, mod).holds


def test_multiplication_map_is_module_morphism():
    mod = regular_module(dual_numbers(2)[0])
    f = multiplication_by_one_plus_two_x()
    assert check_module_morphism(f, mod, mod).holds


def test_module_morphism_survives_twisting():
    mod = regular_module(dual_numbers(2)[0])
    f = multiplication_by_one_plus_two_x()
    assert check_module_morphism(f, twist_module(mod), twist_module(mod)).holds
    scaled = LinearMap.diagonal([3, 3])
    tw = regular_module(dual_numbers_twisted())
    assert check_module_morphism(scaled, tw, tw).holds
    assert check_module_morphism(scaled, twist_module(tw), twist_module(tw)).holds


def test_strict_mode_adds_beta_commutation():
    alg, _ = dual_numbers(2)
    m1 = HomModule(alg, 1, LinearMap.diagonal([2]), ActionTensor.zero(2, 1, "left"), "left")
    m2 = HomModule(alg, 1, LinearMap.diagonal([3]), ActionTensor.zero(2, 1, "left"), "left")
    f = LinearMap.diagonal([1])
    assert check_module_morphism(f, m1, m2).holds
    strict = check_module_morphism(f, m1, m2, strict=True)
    assert not strict.holds
    assert not strict.part("MODULE_MORPHISM_BETA_COMMUTES").holds


def test_module_morphism_mismatch_errors():
    mod1 = regular_module(dual_numbers(2)[0])
    mod2 = regular_module(dual_numbers_twisted())
    with pytest.raises(AlgebraMismatch):
        check_module_morphism(LinearMap.identity(2), mod1, mod2)
    with pytest.raises(DimensionMismatch):
        check_module_morphism(LinearMap.identity(3), mod1, mod1)


# --- polarization agreement -----------------------------------------------------------------

def test_module_polarization_agrees_with_direct_evaluation():
    corpus = module_corpus(100)
    verdicts = set()
    for idx, mod in enumerate(corpus):
        basis_verdict = check_left_module(mod).holds
        rng = point_rng(70000 + idx)
        point_verdict = all(
            is_zero(left_module_defect(mod, point(rng, mod.algebra.dim), point(rng, mod.dim_mod)))
            for _ in range(POINTS_PER_STRUCTURE)
        )
        assert basis_verdict == point_verdict, f"instance {idx}"
        verdicts.add(basis_verdict)
    assert verdicts == {True, False}


# --- the split-null extension ------------------------------------------------------------------
# M is a left (right) Hom-alternative module over A exactly when A + M, multiplied by
# (x, m)(y, n) = (xy, x.n) (right: (xy, m.y)) and twisted by alpha + beta, is a left
# (right) Hom-alternative algebra (Schafer 1952 untwisted).  This holds each module row
# against the algebra row it comes from, however either is written.


def split_null_extension(mod: HomModule) -> HomAlgebra:
    """A + M as a Hom-algebra, built from the action alone; M's basis follows A's."""
    n, d, act = mod.algebra.dim, mod.dim_mod, mod.action.a
    c = [[[0] * (n + d) for _ in range(n + d)] for _ in range(n + d)]
    for i, j, k in product(range(n), repeat=3):
        c[i][j][k] = mod.algebra.mu.c[i][j][k]
    for x, p, q in product(range(n), range(d), range(d)):
        if mod.side == "left":
            c[x][n + p][n + q] = act[x][p][q]  # x.m_p
        else:
            c[n + p][x][n + q] = act[p][x][q]  # m_p.x
    twist = [list(row) + [0] * d for row in mod.algebra.alpha.entries]
    twist += [[0] * n + list(row) for row in mod.beta.entries]
    return HomAlgebra(n + d, MulTensor.from_entries(c), LinearMap.from_rows(twist, n + d))


def raised(mod: HomModule) -> HomModule:
    """``mod`` with one action constant raised by 1."""
    cube = [[list(row) for row in plane] for plane in mod.action.a]
    cube[-1][0][-1] += 1
    action = ActionTensor.from_entries(cube, mod.algebra.dim, mod.dim_mod, mod.side)
    return HomModule(mod.algebra, mod.dim_mod, mod.beta, action, mod.side)


def extension_cases() -> list[HomModule]:
    """Every catalogue module; each catalogue algebra's regular module of each side, and
    it raised; seeded random modules of both sides, every third with a zero action."""
    cases = [e.payload for e in module_entries()]
    for alg in [e.payload for e in entries() if isinstance(e.payload, HomAlgebra)]:
        for side in ("left", "right"):
            cases += [regular_module(alg, side), raised(regular_module(alg, side))]
    for seed in range(24):
        rng = DeterministicRng(6000 + seed)
        side, n, d = ("left", "right")[seed % 2], 1 + seed % 3, 1 + seed // 2 % 3
        beta = LinearMap.from_rows([[rng.point_entry() for _ in range(d)] for _ in range(d)])
        draw = (lambda: 0) if seed % 3 == 2 else (lambda: tensor_entry(rng))
        shape = action_shape(n, d, side)
        cube = [[[draw() for _ in range(shape[2])] for _ in range(shape[1])] for _ in range(shape[0])]
        cases.append(HomModule(random_structure(7000 + seed, n, "algebra"), d, beta,
                               ActionTensor.from_entries(cube, n, d, side), side))
    return cases


def test_a_module_law_is_its_split_null_extensions_algebra_law():
    seen = set()
    for mod in extension_cases():
        n, left = mod.algebra.dim, mod.side == "left"
        law = check_left_hom_alternative if left else check_right_hom_alternative
        ext, alg = law(split_null_extension(mod)), law(mod.algebra)
        own = (check_left_module if left else check_right_module)(mod)
        assert ext.holds == (alg.holds and own.holds), mod
        assert ext.total_failures == alg.total_failures + own.total_failures
        seen.add((mod.side, alg.holds, own.holds))
        # Only an index with its module slot in M (left: the last, right: the first)
        # fails in M; there the residual is the module's, its sign flipped on the right.
        on_alg, on_mod = {w.index: w for w in alg.witnesses}, {w.index: w for w in own.witnesses}
        slot = 2 if left else 0
        for w in ext.witnesses:
            index, in_a, in_m = list(w.index), w.digits[:n], w.digits[n:]
            if index[slot] < n:
                assert w.index in on_alg and not any(in_m)
                assert Witness(w.index, in_a, w.scale) == on_alg[w.index]
            else:
                index[slot] -= n
                if not left:
                    in_m = tuple([-digit for digit in in_m])
                assert max(index[:slot] + index[slot + 1 :]) < n and not any(in_a)
                assert Witness(tuple(index), in_m, w.scale) == on_mod[tuple(index)]
    # Each side meets every pair of verdicts.
    assert seen == set(product(("left", "right"), (True, False), (True, False)))
