"""Every construction against a nested-loop Fraction evaluation of its formula.

The oracles read the drawn nested lists, never the tensors built from them,
and use nothing from ``homstruct`` but the shared zero they check for; the
point evaluations are ``reference_eval``'s, the test oracle's own.  The
constructions are the ``laws.construct`` rows of the structure modules,
``compose``, and the terms that evaluate a map or tensor at a point.  Last,
each public construction is held to ``laws.rebuild``'s contract on the
catalogue.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homstruct import algebras, catalog, cli, coalgebras, comodules, modules
from homstruct.comodules import regular_comodule
from homstruct.errors import KernelError
from homstruct.exact import (
    _ZERO,
    ActionTensor,
    CoactionTensor,
    ComulTensor,
    LinearMap,
    MulTensor,
    Vector,
)
from homstruct.laws import NEGATE, SWAP, Law, compose, construct
from homstruct.modules import regular_module
from reference_eval import (
    act_ref,
    coact_apply_ref,
    comul_apply_ref,
    compose_ref,
    map_apply_ref,
    mul_apply_ref,
    zeros,
)

# The terms that evaluate a map or tensor at a point (x, y in the algebra, m in the
# module): f(v), mul(x, y), comul(x), act(x, m) of either side and coact(m).
MAP_AT = Law("", "i", "+ t.ij v.j")
MUL_AT = Law("", "k", "+ x.i t.ijk y.j")
COMUL_AT = Law("i", "j", "+ v.k t.kij")
ACT_AT = {"left": Law("", "q", "+ x.i t.ipq m.p"), "right": Law("", "q", "+ x.i t.piq m.p")}
COACT_AT = Law("i", "q", "+ m.p t.piq")

# Few distinct small values, so sums often cancel to zero; zeros of both spellings.
ENTRIES = st.one_of(
    st.sampled_from([0, Fraction(0), 1, -1, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)]),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
)


def block(data, *shape):
    """Nested lists of drawn rationals of ``shape``, drawn as one flat list."""
    size = 1
    for axis in shape:
        size *= axis
    flat = iter(data.draw(st.lists(ENTRIES, min_size=size, max_size=size)))

    def nest(*shape):
        if not shape:
            return Fraction(next(flat))
        return [nest(*shape[1:]) for _ in range(shape[0])]

    return nest(*shape)


def assert_entries(result, want):
    """``result`` (nested tuples) equals ``want`` (nested lists), every zero is the
    shared ``_ZERO`` and every other entry a ``Fraction``."""
    if isinstance(want, list):
        assert type(result) is tuple and len(result) == len(want)
        for r, w in zip(result, want):
            assert_entries(r, w)
        return
    assert result == want
    assert result is _ZERO if not want else type(result) is Fraction


# --- the oracles: each construction's docstring formula, summed in loops ------------

def negated_ref(t):
    """t'[...] = -t[...]."""
    return [negated_ref(x) for x in t] if isinstance(t, list) else -t


def swap_first_ref(t, a, b, c):
    """t'[j][i][k] = t[i][j][k], for t of shape a x b x c."""
    out = zeros(b, a, c)
    for i in range(a):
        for j in range(b):
            for k in range(c):
                out[j][i][k] = t[i][j][k]
    return out


def swap_last_ref(t, a, b, c):
    """t'[i][k][j] = t[i][j][k], for t of shape a x b x c."""
    out = zeros(a, c, b)
    for i in range(a):
        for j in range(b):
            for k in range(c):
                out[i][k][j] = t[i][j][k]
    return out


def then_map_ref(c, phi, n):
    """c'[i][j][k] = sum_l c[i][j][l] phi[k][l]."""
    out = zeros(n, n, n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    out[i][j][k] += c[i][j][l] * phi[k][l]
    return out


def precompose_ref(d, phi, n):
    """d'[k][i][j] = sum_l phi[l][k] d[l][i][j]."""
    out = zeros(n, n, n)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                for l in range(n):
                    out[k][i][j] += phi[l][k] * d[l][i][j]
    return out


def precompose_algebra_ref(a, phi, side, n, dm):
    """act'(e_i, f_p) = act(phi(e_i), f_p): a'[i][p][q] = sum_j phi[j][i] a[j][p][q]
    (left), a'[p][i][q] = sum_j phi[j][i] a[p][j][q] (right)."""
    if side == "left":
        out = zeros(n, dm, dm)
        for i in range(n):
            for p in range(dm):
                for q in range(dm):
                    for j in range(n):
                        out[i][p][q] += phi[j][i] * a[j][p][q]
        return out
    out = zeros(dm, n, dm)
    for p in range(dm):
        for i in range(n):
            for q in range(dm):
                for j in range(n):
                    out[p][i][q] += phi[j][i] * a[p][j][q]
    return out


def postcompose_coalgebra_ref(g, phi, n, dm):
    """g'[p][i][q] = sum_l phi[i][l] g[p][l][q]."""
    out = zeros(dm, n, dm)
    for p in range(dm):
        for i in range(n):
            for q in range(dm):
                for l in range(n):
                    out[p][i][q] += phi[i][l] * g[p][l][q]
    return out


# --- the property ---------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.sampled_from(["left", "right"]),
       st.data())
def test_every_construction_equals_its_fraction_formula(n, dm, k, side, data):
    # maps: f is n x k and g is k x dm, so an empty k composes (n, 0) with (0, dm)
    f_rows, g_rows, phi_rows = block(data, n, k), block(data, k, dm), block(data, n, n)
    f = LinearMap.from_rows(f_rows, k)
    g = LinearMap.from_rows(g_rows, dm)
    phi = LinearMap.from_rows(phi_rows, n)
    phi2_rows = compose_ref(phi_rows, phi_rows, n, n, n)  # alpha^2 of the (co)module twists
    assert_entries(compose(f, g).entries, compose_ref(f_rows, g_rows, n, k, dm))
    v_k, x, y, m = block(data, k), block(data, n), block(data, n), block(data, dm)
    assert_entries(construct(MAP_AT, t=f, v=Vector.from_entries(v_k)),
                   map_apply_ref(f_rows, v_k, n, k))

    c = block(data, n, n, n)
    mu = MulTensor.from_entries(c)
    x_vec, y_vec, m_vec = map(Vector.from_entries, (x, y, m))
    assert_entries(construct(MUL_AT, x=x_vec, t=mu, y=y_vec), mul_apply_ref(c, x, y, n))
    assert_entries(construct(algebras._YAU_TWIST, t=mu, phi=phi), then_map_ref(c, phi_rows, n))
    assert_entries(construct(NEGATE, t=mu), negated_ref(c))
    assert_entries(construct(SWAP, t=mu), swap_first_ref(c, n, n, n))

    d = block(data, n, n, n)
    delta = ComulTensor.from_entries(d)
    assert_entries(construct(COMUL_AT, v=x_vec, t=delta), comul_apply_ref(d, x, n))
    assert_entries(construct(coalgebras._YAU_TWIST, t=delta, phi=phi), precompose_ref(d, phi_rows, n))
    assert_entries(construct(NEGATE, t=delta), negated_ref(d))
    assert_entries(construct(coalgebras._OPPOSITE, t=delta), swap_last_ref(d, n, n, n))

    shape = (n, dm, dm) if side == "left" else (dm, n, dm)
    a = block(data, *shape)
    action = ActionTensor.from_entries(a, n, dm, side)
    assert_entries(construct(ACT_AT[side], x=x_vec, t=action, m=m_vec),
                   act_ref(a, x, m, side, n, dm))
    assert_entries(construct(modules._TWIST[side], square=compose(phi, phi), t=action),
                   precompose_algebra_ref(a, phi2_rows, side, n, dm))
    # negation and the mirror read a right action as they read a left one
    assert_entries(construct(NEGATE, t=action), negated_ref(a))
    assert_entries(construct(SWAP, t=action), swap_first_ref(a, *shape))

    h = block(data, dm, n, dm)
    coaction = CoactionTensor.from_entries(h, n, dm)
    assert_entries(construct(COACT_AT, m=m_vec, t=coaction), coact_apply_ref(h, m, n, dm))
    assert_entries(construct(comodules._TWIST, square=compose(phi, phi), t=coaction),
                   postcompose_coalgebra_ref(h, phi2_rows, n, dm))
    assert_entries(construct(NEGATE, t=coaction), negated_ref(h))


def test_empty_shapes_and_cancelling_sums_give_the_shared_zero():
    wide, tall = LinearMap.zero(3, 0), LinearMap.zero(0, 2)
    assert compose(wide, tall).entries == ((_ZERO, _ZERO),) * 3
    assert all(x is _ZERO for row in compose(wide, tall).entries for x in row)
    none = compose(LinearMap.zero(0, 3), wide)
    assert none.entries == () and none.shape == (0, 0)
    assert construct(MAP_AT, t=wide, v=Vector.zero(0)) == (_ZERO,) * 3
    # rationals in, rationals out; the last entry is 1 - 1, a sum that cancels
    f = LinearMap.from_rows([[Fraction(1, 2), Fraction(1, 3)], [1, 1]])
    g = LinearMap.from_rows([[2, 1], [Fraction(-3, 2), -1]])
    product = compose(f, g).entries
    assert product == ((Fraction(1, 2), Fraction(1, 6)), (Fraction(1, 2), _ZERO))
    assert product[1][1] is _ZERO
    empty = ActionTensor.zero(0, 2, "right")
    assert construct(modules._TWIST["right"], square=LinearMap.zero(0, 0), t=empty) == ((), ())
    acted = construct(ACT_AT["right"], x=Vector.zero(0), t=empty, m=Vector.from_entries([1, 2]))
    assert acted == (_ZERO, _ZERO)


# --- what a public construction rebuilds, and what it keeps -------------------------

# Per construction: the tensors it rebuilds, and the other fields it sets.
REBUILDS = {
    algebras.yau_twist: (("mu",), ("alpha",)),
    algebras.negate: (("mu",), ()),
    algebras.opposite: (("mu",), ()),
    coalgebras.yau_twist_coalgebra: (("delta", "gamma"), ("alpha",)),
    coalgebras.negate_coalgebra: (("delta", "gamma"), ()),
    coalgebras.opposite_coalgebra: (("delta",), ("cocommutative_expected",)),
    modules.twist_module: (("action",), ()),
    modules.negate_module: (("action",), ("algebra",)),
    modules.opposite_module: (("action",), ("algebra", "side")),
    comodules.twist_coassoc_comodule: (("delta_m",), ()),
    comodules.twist_lie_comodule: (("gamma_m",), ()),
    comodules.twist_poisson_comodule: (("delta_m", "gamma_m"), ()),
    comodules.negate_poisson_comodule: (("delta_m", "gamma_m"), ("coalgebra",)),
}
ALONG_A_MAP = (algebras.yau_twist, coalgebras.yau_twist_coalgebra)


@pytest.mark.parametrize("name", [entry.name for entry in catalog.entries()])
def test_a_construction_keeps_every_field_it_does_not_rebuild(name):
    assert set(REBUILDS) == {*cli._TWISTS.values(), *cli._TRANSFORMS.values()}
    payload = catalog.get(name).payload
    runs = [cli._TWISTS[type(payload), getattr(payload, "kind", None)]]
    runs += [f for (kind, _), f in cli._TRANSFORMS.items() if kind is type(payload)]
    for construction in runs:
        endo = (LinearMap.identity(payload.dim),) if construction in ALONG_A_MAP else ()
        try:
            out = construction(payload, *endo)
        except KernelError:  # a precondition the entry does not meet
            continue
        rebuilt, changed = REBUILDS[construction]
        for field in payload._fields:
            if field not in rebuilt + changed:
                assert getattr(out, field) is getattr(payload, field), (construction, field)
        for field in rebuilt:
            old, new = getattr(payload, field), getattr(out, field)
            kept = [f for f in old._fields if f != old._nested
                    and (f, construction) != ("side", modules.opposite_module)]
            assert [getattr(new, f) for f in kept] == [getattr(old, f) for f in kept]


def identity_twist_argv(entry, src) -> list | None:
    """The CLI twist of a catalogue entry that is a relabelling: ``--endo id`` of an
    untwisted algebra or coalgebra, the twist of a module or comodule whose base's
    alpha is the identity; None for any other entry."""
    payload = entry.payload
    base = getattr(payload, "algebra", None) or getattr(payload, "coalgebra", None)
    if base is None:
        return ["twist", src, entry.name, "--out", src, "--endo", "id"] \
            if payload.alpha.is_identity() else None
    return ["twist", src, entry.name, "--out", src] if base.alpha.is_identity() else None


def test_an_identity_twist_keeps_each_tensor_and_constructs_nothing(monkeypatch, tmp_path, capsys):
    from homstruct import laws

    calls = []
    monkeypatch.setattr(laws, "construct", lambda *args, **kwargs: calls.append(args))
    twisted = 0
    for entry in catalog.entries():
        src = str(tmp_path / f"{entry.name}.json")
        argv = identity_twist_argv(entry, src)
        if argv is None:
            continue
        assert cli.main(["catalog", "export", entry.name, "--out", src]) == 0
        exported = (tmp_path / f"{entry.name}.json").read_bytes()
        assert cli.main(argv) == 0, entry.name
        assert (tmp_path / f"{entry.name}.json").read_bytes() == exported, entry.name
        twisted += 1
    capsys.readouterr()
    assert calls == [] and twisted >= 20
    # In process, each rebuilt tensor is the tensor itself; a map twist keeps its fields.
    alg = catalog.get("octonions").payload
    out = algebras.yau_twist(alg, LinearMap.identity(8))
    assert out.mu is alg.mu and out.alpha == LinearMap.identity(8)
    square = LinearMap.identity(3)
    assert compose(square, square) is square
    tall = LinearMap.from_rows([[1, 2], [3, 4], [5, 6]])
    assert compose(square, tall) is tall and compose(tall, LinearMap.identity(2)) is tall


# Each construction row derived from another row, its statement by hand before it was
# derived, and whether ``rebuild`` keeps ``t`` with every other operand the identity.
DERIVED = {
    "coalgebra twist": (coalgebras._YAU_TWIST, Law("ki", "j", "+ phi.lk t.lij"), True),
    "coalgebra opposite": (coalgebras._OPPOSITE, Law("ki", "j", "+ t.kji"), False),
    "comodule twist": (comodules._TWIST, Law("pi", "q", "+ square.il t.plq"), True),
    "right module twist": (modules._TWIST["right"], Law("pi", "q", "+ square.ji t.pjq"), True),
}


@pytest.mark.parametrize("name", list(DERIVED))
def test_each_derived_construction_builds_what_its_hand_written_statement_built(name):
    # On poisson_dual4's delta and gamma, its regular comodule's coactions and the
    # octonions' right regular module's action, along a map that is not the identity.
    derived, stated, _ = DERIVED[name]
    coalg = catalog.get("poisson_dual4").payload
    comod = regular_comodule(coalg)
    ts = {"comodule twist": (comod.delta_m, comod.gamma_m),
          "right module twist": (regular_module(catalog.get("octonions").payload, "right").action,),
          }.get(name, (coalg.delta, coalg.gamma))
    n = ts[0].shape[1]  # the base's dim, the middle axis of each of these tensors
    phi = LinearMap.from_rows([[Fraction(i - 2 * j, 1 + j) for j in range(n)] for i in range(n)], n)
    maps = {"phi": phi, "square": compose(phi, phi)}
    maps = {key: maps[key] for key in stated.names if key != "t"}
    for t in ts:
        built = construct(derived, t=t, **maps)
        assert built == construct(stated, t=t, **maps), name
        assert any(x for plane in built for row in plane for x in row), name


# Rows on the octonions' ``mu`` or ``alpha`` (letters ``ijo`` or ``ij``), each other
# operand bound to the identity but in the last case.
@pytest.mark.parametrize("row, field, kept", [
    (algebras._YAU_TWIST, "mu", True),
    (coalgebras._YAU_TWIST, "mu", True),
    (modules._TWIST["left"], "mu", True),
    (modules._TWIST["right"], "mu", True),
    (comodules._TWIST, "mu", True),
    (NEGATE, "mu", False),  # a sign is no relabelling
    (SWAP, "mu", False),  # t.jik is not t.ijk
    (Law("i", "j", "+ t.ik f.kj"), "alpha", True),
    (Law("i", "j", "+ f.ik t.kj f.il"), "alpha", False),  # l is summed over f alone
    (Law("ij", "k", "+ t.ij f.kl"), "alpha", False),  # an outer product with the identity
    (Law("", "i", "+ t.ik f.kk"), "alpha", False),  # a trace, not a relabelling
    (Law("i", "j", "+ f.ab t.ij"), "alpha", False),  # a summed factor: 8 times t
    (Law("ij", "o", "+ t.ijq f.oq g.ab"), "mu", False),
    (coalgebras._OPPOSITE, "mu", False),  # t.kji is not t.kij
    *[(stated, "mu", kept) for _, stated, kept in DERIVED.values()],  # as derived rows are
])
def test_rebuild_keeps_t_where_its_row_less_its_identity_maps_is_t(row, field, kept, monkeypatch):
    from homstruct import laws

    calls = []
    monkeypatch.setattr(laws, "construct", lambda row, t, **operands:
                        calls.append(row) or getattr(t, t._nested))
    alg, one = catalog.get("octonions").payload, LinearMap.identity(8)
    names = set(row.names) - {"t"}
    operands = {name: one if name != "g" else LinearMap.diagonal(range(1, 9)) for name in names}
    out = laws.rebuild(alg, row, (field,), **operands)
    assert (getattr(out, field) is getattr(alg, field)) is kept
    assert calls == ([] if kept else [row])
