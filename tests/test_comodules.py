import pytest

from homstruct import (
    HomComodule,
    HomPoissonCoalgebra,
    check_coassoc_comodule,
    check_comodule_morphism,
    check_hom_coassociative,
    check_hom_lie_coalgebra,
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
    DELTA_COACTION_COASSOCIATIVITY,
    DELTA_COACTION_MULTIPLICATIVITY,
)
from homstruct.errors import CoalgebraMismatch, DimensionMismatch, KindMismatch
from homstruct.exact import CoactionTensor, LinearMap


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
