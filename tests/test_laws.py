"""Guards on the law core: the packed plan, its slots, and invariances of the inputs."""

import copy
import pathlib
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, product
from math import isqrt, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_checks as ref
from reference_eval import flat
from homstruct import algebras, axioms, coalgebras, comodules, laws, modules
from homstruct.algebras import (
    HomAlgebra,
    check_hom_associative,
    check_left_hom_alternative,
    check_right_hom_alternative,
)
from homstruct.catalog import DeterministicRng, matrix_algebra
from homstruct.coalgebras import HomPoissonCoalgebra, check_hom_poisson_coalgebra
from homstruct.comodules import HomComodule, check_poisson_comodule
from homstruct.exact import (
    ActionTensor,
    CoactionTensor,
    ComulTensor,
    LinearMap,
    MulTensor,
    _Tensor,
    compiled,
)
from homstruct.laws import COMMUTES, Law, Plan, _layout, construct, polarized, restricted
from homstruct.modules import HomModule, check_left_module, check_right_module, regular_module
from reference_laws import UnpackedLaw, check_row, compiled_row

# (terms, distinct contractions, packed letters) of every row.  The packed
# letters are the residual's last two, or its only one.  Terms that are one
# contraction up to a permutation of the unpacked output letters are
# contracted once; a term that moves a packed letter to another operand or
# axis is a contraction of its own.
ROWS = {
    "LEFT_HOM_ALT": (algebras._LAWS[algebras.LEFT_HOM_ALT], 4, 2, "o"),
    "RIGHT_HOM_ALT": (algebras._LAWS[algebras.RIGHT_HOM_ALT], 4, 2, "o"),
    "HOM_ASSOC": (algebras._LAWS[algebras.HOM_ASSOC], 2, 2, "o"),
    "algebra multiplicative": (algebras._MULTIPLICATIVE, 2, 2, "o"),
    "COMMUTES": (COMMUTES, 2, 2, "o"),
    "LEFT_MODULE": (modules._LAWS[modules.LEFT_MODULE], 4, 2, "o"),
    "RIGHT_MODULE": (modules._LAWS[modules.RIGHT_MODULE], 4, 2, "o"),
    "module intertwines left": (modules._INTERTWINES["left"], 2, 2, "q"),
    "module intertwines right": (modules._INTERTWINES["right"], 2, 2, "q"),
    "COCOMMUTATIVITY": (coalgebras._LAWS[coalgebras.COCOMMUTATIVITY], 2, 2, "ij"),
    "coalgebra multiplicative": (coalgebras._MULTIPLICATIVE, 2, 2, "ij"),
    "HOM_COASSOCIATIVITY": (coalgebras._LAWS[coalgebras.HOM_COASSOCIATIVITY], 2, 2, "jk"),
    "SKEW_COSYMMETRY": (coalgebras._LAWS[coalgebras.SKEW_COSYMMETRY], 2, 2, "ij"),
    "HOM_COJACOBI": (coalgebras._LAWS[coalgebras.HOM_COJACOBI], 3, 3, "jk"),
    "HOM_COLEIBNIZ": (coalgebras._LAWS[coalgebras.HOM_COLEIBNIZ], 3, 3, "jk"),
    "coalgebra morphism": (coalgebras._MORPHISM, 2, 2, "ij"),
    "coaction multiplicative": (comodules._MULTIPLICATIVE, 2, 2, "ij"),
    "DELTA_COACTION_COASSOCIATIVITY": (
        comodules._LAWS[comodules.DELTA_COACTION_COASSOCIATIVITY], 2, 2, "jk"
    ),
    "GAMMA_COACTION_COMPATIBILITY": (
        comodules._LAWS[comodules.GAMMA_COACTION_COMPATIBILITY], 3, 3, "ki"
    ),
    "COMODULE_COLEIBNIZ": (comodules._LAWS[comodules.COMODULE_COLEIBNIZ], 3, 3, "jk"),
    "COMODULE_COMULT_COMPAT": (comodules._LAWS[comodules.COMODULE_COMULT_COMPAT], 3, 3, "ki"),
    "comodule intertwines": (comodules._INTERTWINES, 2, 2, "ip"),
}


@pytest.mark.parametrize("row", list(ROWS))
def test_row_compiles_to_its_distinct_contractions(row):
    law, terms, contractions, packed = ROWS[row]
    groups = compiled_row(law)[0]
    assert sum(len(uses) for *_, uses in groups) == terms == len(law.terms)
    assert len(groups) == contractions
    assert law.residual[-2:] == packed
    for ids, spec, _, _ in groups:
        # Each packed letter rides in exactly one operand axis of each contraction.
        assert sorted(p for _, axes in ids for _, p in axes) == list(range(len(packed)))
        assert not set(packed) & set(spec)


def test_shared_term_adds_under_its_own_permutation():
    # t.ikj is t.kij with the unpacked letters k and i swapped: one contraction, two uses.
    t = MulTensor.from_entries([[[1, 2], [3, 4]], [[5, 6], [7, 8]]])
    law = Law("ki", "j", "+ t.kij", "+ t.ikj", "- t.kij")
    report = check_row(law, "TRANSPOSED", t=t)
    assert len(compiled_row(law)[0]) == 1
    assert [w.residual.entries for w in report.witnesses] == [(1, 2), (5, 6), (3, 4), (7, 8)]
    # t.kji moves the packed letter j to another axis of t: a contraction of its own.
    law = Law("k", "ij", "+ t.kij", "+ t.kji", "- t.kij")
    report = check_row(law, "SYMMETRIC_PART", t=t)
    assert len(compiled_row(law)[0]) == 2
    assert [w.residual.entries for w in report.witnesses] == [(1, 3, 2, 4), (5, 7, 6, 8)]


@pytest.mark.parametrize(
    "terms",
    [
        ("+ f.oa g.ao",),  # the packed letter in two operands
        ("+ t.ioo",),  # twice in one operand
        ("+ f.ia",),  # missing from a term
        ("+ f.oa x.ai", "- x.ia"),  # missing from one term of several
        # A residual "po" packs p as well: each letter must be held once.
        ("+ f.pao g.ap",),  # the second letter in two operands
        ("+ t.ippo",),  # twice in one operand
        ("+ f.oa x.ai", "- f.oa y.ap"),  # missing from one term of several
        ("+ f.po", "- g.pa h.ao k.ob"),  # the first letter in two operands of one term
    ],
)
def test_row_must_hold_the_packed_letter_in_exactly_one_operand(terms):
    residual = "po" if any("p" in term for term in terms) else "o"
    with pytest.raises(ValueError, match="exactly one operand"):
        Law("i", residual, *terms)


@pytest.mark.parametrize("sign", ["+-", "-+", ""])
def test_each_term_needs_a_sign_of_its_own(sign):
    # A sign is one of "+" and "-", not any part of "+-".
    with pytest.raises(ValueError, match="needs a sign"):
        Law("i", "o", f"{sign} f.oa x.ai")


@pytest.mark.parametrize("term", ["+ f", "+ f.oa.x x.ai", "+ .oa x.ai", "+ f. x.ai", "+"])
def test_each_operand_is_a_name_a_dot_and_letters(term):
    # "+ f" once ended in an IndexError, and "+ f.oa.x x.ai" dropped ".x" without a word.
    message = re.escape(f"term {term!r} needs operands written name.letters")
    with pytest.raises(ValueError, match=message):
        Law("i", "o", term)
    with pytest.raises(ValueError, match=message):  # a construction row is a law too
        construct(Law("o", "i", term), f=LinearMap.identity(2), x=LinearMap.identity(2))


def test_polarized_swaps_operand_letters_and_never_names():
    law = polarized(Law("ij", "o", "+ ij.iao x.aj", "- ij.jio"), swap="ij")
    assert law.terms == ("+ ij.iao x.aj", "- ij.jio", "+ ij.jao x.ai", "- ij.ijo")
    with pytest.raises(ValueError, match=re.escape("term '+ f' needs operands")):
        polarized(Law("i", "o", "+ f"), swap="ij")  # read by the grammar's own parser


def test_restricted_drops_a_term_with_a_product_of_two_module_letters():
    law = Law("ij", "o", "+ mu.ijo", "- f.oi")
    assert restricted(law, {"i": "M", "j": "M"}, {"f.MM": "beta"}).terms == ("- beta.oi",)
    # A block that every term of a product law drops, as a module's (A, M, M) block of
    # the associator, leaves no row.
    with pytest.raises(ValueError, match="needs a residual letter to pack and a term"):
        restricted(algebras._ASSOCIATOR, {"i": "A", "j": "M", "k": "M"}, {})


def test_restricted_names_a_term_with_a_letter_no_operand_blocks():
    with pytest.raises(ValueError, match=re.escape("term '+ mu.abo f.ai' has a letter")):
        restricted(Law("i", "o", "- f.oi", "+ mu.abo f.ai"), {"i": "A"}, {})


def test_restricted_mirrors_a_bracket_and_applies_the_overall_sign():
    bracket = Law("ij", "k", "+ br.ijk")
    assert restricted(bracket, {"i": "M", "j": "A"}, {"br.MAM": "-gm.bac"}).terms == ("- gm.jik",)
    assert restricted(bracket, {"j": "A", "i": "M"}, {}).index == "ji"  # the index as listed
    commutator = Law("ij", "k", "+ mu.ijk", "- mu.jik")
    names = {"mu.AMM": "act", "mu.MAM": "act"}
    assert restricted(commutator, {"i": "A", "j": "M"}, names).terms == ("+ act.ijk", "- act.jik")
    # Negated, the row is listed from its first + term on, as every stated row starts.
    assert restricted(commutator, {"i": "A", "j": "M"}, names, -1).terms == ("+ act.jik",
                                                                             "- act.ijk")


# Each row derived from a stated row (``transposed``, ``restricted`` or both), and its
# statement by hand before it was derived.
HAND_WRITTEN = {
    "LEFT_MODULE": (
        modules._LAWS[modules.LEFT_MODULE],
        ("ijp", "q", "+ alpha.ai act.arq act.jpr", "- beta.rp act.arq mu.ija",
         "+ alpha.aj act.arq act.ipr", "- beta.rp act.arq mu.jia"),
    ),
    "RIGHT_MODULE": (
        modules._LAWS[modules.RIGHT_MODULE],
        ("pij", "q", "+ alpha.aj act.raq act.pir", "- beta.rp act.raq mu.ija",
         "+ alpha.ai act.raq act.pjr", "- beta.rp act.raq mu.jia"),
    ),
    "COCOMMUTATIVITY": (
        coalgebras._LAWS[coalgebras.COCOMMUTATIVITY], ("k", "ij", "+ t.kij", "- t.kji"),
    ),
    "HOM_COASSOCIATIVITY": (
        coalgebras._LAWS[coalgebras.HOM_COASSOCIATIVITY],
        ("k", "ijl", "+ t.kab t.bjl alpha.ia", "- t.kab alpha.lb t.aij"),
    ),
    "SKEW_COSYMMETRY": (
        coalgebras._LAWS[coalgebras.SKEW_COSYMMETRY], ("k", "ij", "+ t.kij", "+ t.kji"),
    ),
    "HOM_COJACOBI": (
        coalgebras._LAWS[coalgebras.HOM_COJACOBI],
        ("k", "ijl", "+ t.kab t.bjl alpha.ia", "+ t.kab alpha.ja t.bli", "+ t.kab alpha.la t.bij"),
    ),
    "HOM_COLEIBNIZ": (
        coalgebras._LAWS[coalgebras.HOM_COLEIBNIZ],
        ("k", "ijl", "+ gamma.kab delta.bjl alpha.ia", "- delta.kab alpha.lb gamma.aij",
         "- delta.kab alpha.ja gamma.bil"),
    ),
    "coalgebra multiplicative": (
        coalgebras._MULTIPLICATIVE, ("k", "ij", "+ f.lk src.lij", "- dst.kab f.ia f.jb"),
    ),
    "coalgebra morphism": (
        coalgebras._MORPHISM, ("k", "ij", "+ src.kab f.ia f.jb", "- f.lk dst.lij"),
    ),
    "coaction multiplicative": (
        comodules._MULTIPLICATIVE, ("p", "iq", "+ beta.rp t.riq", "- t.pas alpha.ia beta.qs"),
    ),
    "DELTA_COACTION_COASSOCIATIVITY": (
        comodules._LAWS[comodules.DELTA_COACTION_COASSOCIATIVITY],
        ("p", "ijq", "+ dm.pas dm.sjq alpha.ia", "- dm.pas beta.qs delta.aij"),
    ),
    "GAMMA_COACTION_COMPATIBILITY": (
        comodules._LAWS[comodules.GAMMA_COACTION_COMPATIBILITY],
        ("p", "ijq", "+ gm.pas beta.qs gamma.aij", "- gm.pas gm.sjq alpha.ia",
         "+ gm.pas alpha.ja gm.siq"),
    ),
    "COMODULE_COLEIBNIZ": (
        comodules._LAWS[comodules.COMODULE_COLEIBNIZ],
        ("p", "ijq", "+ gm.pas dm.sjq alpha.ia", "- dm.pas beta.qs gamma.aij",
         "- dm.pas alpha.ja gm.siq"),
    ),
    "COMODULE_COMULT_COMPAT": (
        comodules._LAWS[comodules.COMODULE_COMULT_COMPAT],
        ("p", "ijq", "+ gm.pas beta.qs delta.aij", "- dm.pas gm.sjq alpha.ia",
         "- dm.pas alpha.ja gm.siq"),
    ),
    "comodule intertwines": (
        comodules._INTERTWINES, ("p", "iq", "+ src.pis f.qs", "- f.rp dst.riq"),
    ),
    "module intertwines right": (
        modules._INTERTWINES["right"], ("ip", "q", "+ src.pir f.qr", "- f.rp dst.riq"),
    ),
}


@pytest.mark.parametrize("row", list(HAND_WRITTEN))
def test_each_derived_row_is_its_hand_written_statement(row):
    # The same index and residual letters in order, signs, and operands in order, up to
    # one renaming of letters per term: so the same contractions, joined in the same order.
    law, (index, residual, *terms) = HAND_WRITTEN[row]
    assert (len(law.index), len(law.residual), len(law.terms)) == (len(index), len(residual),
                                                                   len(terms))
    for (plus, operands), (stated_plus, stated) in zip(law._parsed,
                                                       Law(index, residual, *terms)._parsed):
        assert plus == stated_plus
        assert [name for name, _ in operands] == [name for name, _ in stated]
        rename = dict(zip(law.index + law.residual, index + residual))
        for (_, letters), (_, stated_letters) in zip(operands, stated):
            assert len(letters) == len(stated_letters)
            for c, was in zip(letters, stated_letters):
                assert rename.setdefault(c, was) == was, (row, letters, stated_letters)
        assert len(set(rename.values())) == len(rename)  # one to one
    # So each compiles to the stated row's program, with and without its identity maps (a
    # load's packing holds an ``itemgetter``, which compares by identity, so by its repr).
    for maps in ((), ("alpha",), ("alpha", "beta"), ("f",)):
        derived, stated = compiled_row(law, maps), compiled_row(Law(index, residual, *terms), maps)
        assert (derived[:3], repr(derived[3])) == (stated[:3], repr(stated[3])), maps


def test_readme_term_table_lists_each_law_row_as_stated():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    table = readme.split("* **The term table.**", 1)[1].split("* **The construction table.**")[0]
    stated = {axiom: law for module in (algebras, modules, coalgebras, comodules)
              for axiom, law in module._LAWS.items()}
    listed = {}
    for line in table.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].strip("`") in stated:  # a row that names one id
            listed[cells[0].strip("`")] = cells[1:]
    assert len(listed) == 14
    for axiom, (index, residual, terms) in listed.items():
        law = stated[axiom]
        assert (index, residual) == (f"`{law.index}`", f"`{law.residual}`"), axiom
        assert re.findall("`([^`]*)`", terms) == [t[0] + t[2:] for t in law.terms], axiom


# --- packed against per-coordinate evaluation ------------------------------------


@dataclass(frozen=True)
class Block(_Tensor):
    """Nested tuples of Fractions of any shape, as a law operand."""

    rows: tuple
    shape: tuple
    _nested = "rows"


def nest(flat: list, shape: tuple) -> tuple:
    if len(shape) == 1:
        return tuple(flat)
    step = len(flat) // shape[0] if shape[0] else 0
    return tuple(nest(flat[i * step : (i + 1) * step], shape[1:]) for i in range(shape[0]))


def operand_axes(law: Law) -> dict[str, list]:
    """Each operand's axes as size classes: axes one letter binds share a size.

    Output letters bind across terms; a summed letter binds within its term.
    """
    parent: dict = {}

    def find(node):
        while parent.setdefault(node, node) != node:
            node = parent[node]
        return node

    out = set(law.index + law.residual)
    shared: dict = {}
    arity: dict = {}
    for term in law.terms:
        local: dict = {}
        for op in term.split()[1:]:
            name, letters = op.split(".")
            arity[name] = len(letters)
            for axis, c in enumerate(letters):
                seen = shared if c in out else local
                if c in seen:
                    parent[find((name, axis))] = find(seen[c])
                else:
                    seen[c] = find((name, axis))
    return {name: [find((name, axis)) for axis in range(k)] for name, k in arity.items()}


def numerator(rng: random.Random) -> int:
    """Zero half the time, else an int in [-2**62, 2**62]: a bound, a small one or any."""
    kind = rng.randrange(6)
    if kind < 3:
        return 0
    if kind == 3:
        return rng.choice((-(2**62), 2**62))
    return rng.randint(-9, 9) if kind == 4 else rng.randint(-(2**62), 2**62)


def draw_operands(data, law: Law, max_size: int = 3) -> dict:
    """Random operands for ``law``: sizes 0..max_size, 62-bit numerators, mixed scales.

    Hypothesis draws the sizes, each operand's denominator and one seed; the
    entries come from ``random.Random(seed)``, since drawing each entry
    through hypothesis cost most of these tests' time."""
    axes = operand_axes(law)
    sizes: dict = {}
    operands = {}
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    for name, classes in axes.items():
        for c in classes:
            if c not in sizes:
                sizes[c] = data.draw(st.integers(0, max_size))
        shape = tuple(sizes[c] for c in classes)
        over = data.draw(st.sampled_from([1, 1, 3, 7, 11, 13]))
        flat = [Fraction(numerator(rng), rng.choice((1, over))) for _ in range(prod(shape))]
        operands[name] = Block(nest(flat, shape), shape)
    return operands


@pytest.mark.parametrize("row", list(ROWS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_packed_check_equals_per_coordinate_evaluation(row, data):
    law = ROWS[row][0]
    operands = draw_operands(data, law)
    assert check_row(law, row, **operands) == UnpackedLaw.of(law).check(row, **operands)


def filled(shape: tuple, value) -> Block:
    return Block(nest([Fraction(value)] * prod(shape), shape), shape)


@pytest.mark.parametrize("row", list(ROWS))
@pytest.mark.parametrize("size", [0, 1])
def test_every_row_at_dims_zero_and_one(row, size):
    law = ROWS[row][0]
    for value in (0, 5, Fraction(-3, 7)):
        operands = {name: filled((size,) * len(axes), value) for name, axes in operand_axes(law).items()}
        report = check_row(law, row, **operands)
        assert report == UnpackedLaw.of(law).check(row, **operands)
        if size == 0 or value == 0:
            assert report.holds and report.total_failures == 0


# --- assembly by key permutation ---------------------------------------------------

# The rows whose assembly is more than one identity class: (coefficient row,
# permutations) per class, a permutation as (sign, output positions).
CLASSES = {
    "LEFT_HOM_ALT": [(((0, 1), (1, -1)), ((1, (0, 1, 2)), (1, (1, 0, 2))))],
    "RIGHT_HOM_ALT": [(((0, 1), (1, -1)), ((1, (0, 1, 2)), (1, (0, 2, 1))))],
    "LEFT_MODULE": [(((0, 1), (1, -1)), ((1, (0, 1, 2)), (1, (1, 0, 2))))],
    "RIGHT_MODULE": [(((0, 1), (1, -1)), ((1, (0, 1, 2)), (1, (0, 2, 1))))],
    # Packing j makes the i <-> j swap of the last term a contraction of its
    # own: one class of three contractions, not a second permutation.
    "GAMMA_COACTION_COMPATIBILITY": [(((0, 1), (1, -1), (2, 1)), ((1, (0, 1)),))],
    "COMODULE_COMULT_COMPAT": [(((0, 1), (1, -1), (2, -1)), ((1, (0, 1)),))],
}


@pytest.mark.parametrize("row", list(ROWS))
def test_row_assembles_by_key_permutation(row):
    law = ROWS[row][0]
    groups, classes, _, _ = compiled_row(law)
    identity = tuple(range(len(law.index) + len(law.residual) - len(law.residual[-2:])))
    if row in CLASSES:
        assert list(classes) == CLASSES[row]
    else:
        # One identity class: its sum W is the residual itself.
        (coefficients, permutations), = classes
        assert [g for g, _ in coefficients] == list(range(len(groups)))
        assert permutations == ((1, identity),)
    # Nothing cancels in a stated row: the classes account for every term.
    assert len(law.terms) == sum(
        abs(c) * len(permutations) for coefficients, permutations in classes
        for _, c in coefficients
    )


def fractions_block(shape: tuple, denominator: int) -> Block:
    """Distinct nonzero entries ``(1 + position) / denominator``."""
    flat = [Fraction(1 + i, denominator) for i in range(prod(shape))]
    return Block(nest(flat, shape), shape)


SYNTHETIC = {
    # The identity and the swap of k and i weigh t and s differently: two classes.
    "differing": (
        Law("ki", "j", "+ t.kij", "+ t.ikj", "- s.kij"),
        ((((0, 1), (1, -1)), ((1, (0, 1)),)), (((0, 1),), ((1, (1, 0)),))),
    ),
    # Symmetrised, as the alternative laws are: one class, W = t - s, then W + swap(W).
    "symmetrised": (
        Law("ki", "j", "+ t.kij", "- s.kij", "+ t.ikj", "- s.ikj"),
        ((((0, 1), (1, -1)), ((1, (0, 1)), (1, (1, 0)))),),
    ),
    # The same, with the swap's row negated: one class, the swap added with sign -1.
    "antisymmetrised": (
        Law("ki", "j", "+ t.kij", "- s.kij", "- t.ikj", "+ s.ikj"),
        ((((0, 1), (1, -1)), ((1, (0, 1)), (-1, (1, 0)))),),
    ),
    # t cancels against its negation: its zero coefficient is dropped.
    "cancelled": (
        Law("ki", "j", "+ t.kij", "+ s.kij", "- t.kij"),
        ((((1, 1),), ((1, (0, 1)),)),),
    ),
    # Negated: the identity is added with sign -1, so the residual is a new list.
    "negated symmetrised": (
        Law("ki", "j", "- t.kij", "+ s.kij", "- t.ikj", "+ s.ikj"),
        ((((0, 1), (1, -1)), ((-1, (0, 1)), (-1, (1, 0)))),),
    ),
    # A doubled term has coefficient 2, under one permutation and under two.
    "doubled": (
        Law("ki", "j", "+ t.kij", "+ t.kij", "- s.kij"),
        ((((0, 2), (1, -1)), ((1, (0, 1)),)),),
    ),
    "doubled symmetrised": (
        Law("ki", "j", "+ t.kij", "+ t.kij", "+ t.ikj", "+ t.ikj", "- s.ikj", "- s.kij"),
        ((((0, 2), (1, -1)), ((1, (0, 1)), (1, (1, 0)))),),
    ),
}


@pytest.mark.parametrize("row", list(SYNTHETIC))
def test_synthetic_row_classes_and_reports(row):
    law, classes = SYNTHETIC[row]
    assert compiled_row(law)[1] == classes
    # Mixed scales: t carries 3, s carries 5, so common // scale is 5 for t and 3 for s.
    operands = {"t": fractions_block((3, 3, 2), 3), "s": fractions_block((3, 3, 2), 5)}
    report = check_row(law, row, **operands)
    assert not report.holds and report.witnesses
    assert report == UnpackedLaw.of(law).check(row, **operands)


@pytest.mark.parametrize("row", list(SYNTHETIC))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_synthetic_row_equals_per_coordinate_evaluation(row, data):
    law = SYNTHETIC[row][0]
    operands = draw_operands(data, law)
    assert check_row(law, row, **operands) == UnpackedLaw.of(law).check(row, **operands)


# Rows whose residual's last two letters i and j are packed together, as
# the coalgebra and comodule rows' are: (law, distinct contractions).
TWO_LETTER = {
    # Both packed letters in one operand; t.xkij is t.kxij with the unpacked
    # letters k and x swapped, so it adds the same contraction.
    "one operand": (Law("k", "xij", "+ t.kxij", "- s.kxij", "+ t.xkij"), 2),
    # i rides in f and j in g, summed over a; the other term holds both in t.
    "two operands": (Law("k", "xij", "+ f.kai g.axj", "- t.kxij"), 2),
    # t.kjix moves j alone to another axis of t, and f.kaj g.axi swaps which
    # operand holds which letter: each is a contraction of its own.
    "moved": (Law("k", "xij", "+ t.kxij", "- t.kjix", "+ f.kai g.axj", "- f.kaj g.axi"), 4),
    # Packed letters split over three operands and a summed letter.
    "three operands": (Law("k", "ij", "+ t.kab f.ia f.jb", "- f.lk t.lij"), 2),
}


@pytest.mark.parametrize("row", list(TWO_LETTER))
def test_two_letter_row_compiles_to_its_distinct_contractions(row):
    law, contractions = TWO_LETTER[row]
    groups = compiled_row(law)[0]
    assert len(groups) == contractions
    for ids, spec, _, _ in groups:
        assert sorted(p for _, axes in ids for _, p in axes) == [0, 1]
        assert not {"i", "j"} & set(spec)


@pytest.mark.parametrize("row", list(TWO_LETTER))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_two_letter_row_equals_per_coordinate_evaluation(row, data):
    law = TWO_LETTER[row][0]
    operands = draw_operands(data, law)
    assert check_row(law, row, **operands) == UnpackedLaw.of(law).check(row, **operands)


def test_two_letter_terms_that_cancel_exactly_pass():
    # t.kij holds both packed letters in t; u.kab f.ia g.jb splits them over
    # f and g.  With u = t and f = g = 1 the two terms are equal and nonzero.
    law = Law("k", "ij", "+ t.kij", "- u.kab f.ia g.jb")
    t = ComulTensor.from_entries([[[TOP, -TOP, Fraction(1, 3)], [-TOP, 2, 0], [3, 0, -1]],
                                  [[1, 5, 0], [5, 0, 7], [0, 7, TOP]], [[0] * 3] * 3])
    one = LinearMap.identity(3)
    report = check_row(law, "CANCELLED", t=t, u=t, f=one, g=one)
    assert report.holds and report.total_failures == 0
    # Doubling g leaves -t, slot for slot, in both packed layouts.
    two = LinearMap.diagonal([2, 2, 2])
    report = check_row(law, "HALF", t=t, u=t, f=one, g=two)
    assert report == UnpackedLaw.of(law).check("HALF", t=t, u=t, f=one, g=two)
    assert [w.residual.entries for w in report.witnesses] == [
        tuple(-x for row in plane for x in row) for plane in t.d[:2]
    ]


def test_a_row_that_cancels_entirely_holds():
    law = Law("k", "ij", "+ t.kij", "- t.kij")
    assert compiled_row(law)[1] == ()
    t = fractions_block((2, 2, 2), 7)
    report = check_row(law, "CANCELLED", t=t)
    assert report.holds and report.total_failures == 0
    assert report == UnpackedLaw.of(law).check("CANCELLED", t=t)


@pytest.mark.parametrize("row", list(ROWS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_check_leaves_its_operands_unchanged(row, data):
    """A contraction can be an operand (``t.kij`` alone): assembly must never write to one."""
    law = ROWS[row][0]
    operands = draw_operands(data, law)

    def state():
        return {
            name: (flat(op), op.scaled[0], dict(op.scaled[1]), op.scaled[2])
            for name, op in operands.items()
        }

    before = state()
    first = check_row(law, row, **operands)
    assert state() == before
    assert check_row(law, row, **operands) == first
    assert state() == before


# --- the residual list ----------------------------------------------------------

def weighted(abc: str, sign: int) -> list[str]:
    """The terms of ``sign * (3 t - 2 s)`` at index letters ``abc``."""
    plus, minus = ("+", "-") if sign > 0 else ("-", "+")
    return [f"{plus} t.{abc}o"] * 3 + [f"{minus} s.{abc}o"] * 2


# Rows that exercise each way a contraction writes into the residual list.
LIST_ROWS = {
    # t.kpq alone is a lone operand (the packed t); s.kpa f.aq ends in a join
    # on every letter of the packed f.a, whose tail is empty; k, p, q and a
    # all draw their own sizes.
    "lone and full-key join": Law("kp", "q", "+ t.kpq", "- s.kpa f.aq"),
    # One class of three permutations whose row weighs t by 3 and s by -2:
    # the identity and a 3-cycle add, its square (the inverse) subtracts.
    "cyclic": Law("ijk", "o", *weighted("ijk", 1), *weighted("jki", 1), *weighted("kij", -1)),
    # A 3-cycle alone in its class, spread through strided slices.
    "cycled": Law("ijk", "o", "+ t.ijko", "+ t.jkio", "- s.ijko"),
    # A symmetrised row of two joins over rectangular letters (i, j in one
    # size, p in another), as the module laws are, with coefficient 2.
    "symmetrised join": Law("ijp", "q", "+ a.ia b.japq", "+ a.ia b.japq", "+ a.ja b.iapq",
                            "+ a.ja b.iapq", "- c.ijpq", "- c.jipq"),
    # A symmetrised first class, whose W is the residual list itself, then a
    # 3-cycle of t alone in its class, added after the swap: neither add may
    # write into W.
    "symmetrised then cycled": Law("ijk", "o", "+ t.ijko", "- s.ijko", "+ t.jiko", "- s.jiko",
                                   "+ t.jkio"),
}


def test_list_rows_compile_as_intended():
    lone, full_key = compiled_row(LIST_ROWS["lone and full-key join"])[0]
    assert lone[1] == "ab->ab" and full_key[1] == "abc,c->ab"
    assert compiled_row(LIST_ROWS["cyclic"])[1] == (
        (((0, 3), (1, -2)), ((1, (0, 1, 2)), (1, (2, 0, 1)), (-1, (1, 2, 0)))),
    )
    assert compiled_row(LIST_ROWS["cycled"])[1] == (
        (((0, 1), (1, -1)), ((1, (0, 1, 2)),)), (((0, 1),), ((1, (2, 0, 1)),))
    )
    (row, permutations), = compiled_row(LIST_ROWS["symmetrised join"])[1]
    assert row == ((0, 2), (1, -1)) and len(permutations) == 2
    classes = compiled_row(LIST_ROWS["symmetrised then cycled"])[1]
    assert classes == (
        (((0, 1), (1, -1)), ((1, (0, 1, 2)), (1, (1, 0, 2)))), (((0, 1),), ((1, (2, 0, 1)),))
    )
    # Each class is summed at the identity strides and spread under each of its
    # permutations; the first spread, the identity with sign +, is W itself.  A
    # spread is one slice along W's stride for the last letter per place of the
    # others, read in order.
    strides, ((first, swap), (cycle,)) = _layout(classes, (2, 2, 2))
    assert strides == (4, 2, 1)
    assert first == (1, None)
    assert swap == (1, (slice(0, 2, 1), slice(4, 6, 1), slice(2, 4, 1), slice(6, 8, 1)))
    assert spread_read(swap[1], 8) == [0, 1, 4, 5, 2, 3, 6, 7]
    assert cycle == (1, (slice(0, 4, 2), slice(4, 8, 2), slice(1, 5, 2), slice(5, 9, 2)))
    assert spread_read(cycle[1], 8) == [0, 2, 4, 6, 1, 3, 5, 7]
    # With sign -1 on the identity, both permutations spread with sign -1.
    strides, (spreads,) = _layout(compiled_row(SYNTHETIC["negated symmetrised"][0])[1], (2, 2))
    assert strides == (2, 1) and spreads == [(-1, None), (-1, (slice(0, 4, 2), slice(1, 5, 2)))]
    assert spread_read(spreads[1][1], 4) == [0, 2, 1, 3]
    # A dim-16 swap holds one slice per place of its first two letters, not 16^3 ints.
    [[(_, slices)]] = _layout(((((0, 1),), ((1, (1, 0, 2)),)),), (16, 16, 16))[1]
    assert len(slices) == 256 and {s.step for s in slices} == {1}
    assert spread_read(slices[:2], 16**3) == [*range(16), *range(256, 272)]


def spread_read(slices: tuple, size: int) -> list:
    """The places of a ``size``-place ``W`` that a spread's slices read, in order."""
    return list(chain.from_iterable(map(list(range(size)).__getitem__, slices)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_spread_reads_the_permuted_list(data):
    # Shapes of 1-4 axes of sizes 0-4, under permutations that move the last
    # axis or keep it; the letters a permutation exchanges share a size, as in
    # a row.  Residual axis i is W's axis p[i]: the slices read W in the order
    # of a gather built key by key.
    permutation = tuple(data.draw(st.permutations(range(data.draw(st.integers(1, 4))))))
    cycle_of = {}  # letter -> its cycle's first letter: a cycle's letters share a size
    for first in permutation:
        letter = first
        while letter not in cycle_of:
            cycle_of[letter], letter = first, permutation[letter]
    sizes = {first: data.draw(st.integers(0, 4)) for first in dict.fromkeys(cycle_of.values())}
    shape = tuple([sizes[cycle_of[i]] for i in range(len(permutation))])
    strides = [prod(shape[i + 1 :]) for i in range(len(shape))]
    gather = [sum([key[i] * strides[p] for i, p in enumerate(permutation)])
              for key in product(*map(range, shape))]
    [[(_, slices)]] = _layout(((((0, 1),), ((1, permutation),)),), shape)[1]
    if slices is None:  # a permutation that moves no stride leaves W as it is
        assert gather == list(range(prod(shape)))
    else:
        assert spread_read(slices, prod(shape)) == gather
        assert len(slices) == (prod(shape[:-1]) if shape[-1] else 0)


@pytest.mark.parametrize("row", list(LIST_ROWS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_list_row_equals_per_coordinate_evaluation(row, data):
    law = LIST_ROWS[row]
    operands = draw_operands(data, law)
    assert check_row(law, row, **operands) == UnpackedLaw.of(law).check(row, **operands)


@pytest.mark.parametrize("row", list(LIST_ROWS))
def test_list_rows_at_dims_zero_and_one(row):
    law = LIST_ROWS[row]
    for size in (0, 1):
        for value in (0, 5, Fraction(-3, 7)):
            operands = {name: filled((size,) * len(axes), value)
                        for name, axes in operand_axes(law).items()}
            report = check_row(law, row, **operands)
            assert report == UnpackedLaw.of(law).check(row, **operands)
            if size == 0 or value == 0:
                assert report.holds and report.total_failures == 0


def test_failing_outer_positions_count_their_index_once():
    # Index k (size 2), unpacked residual letter x (size 3), packed i and j
    # (sizes 2 and 1): k = 0 fails at x = 0 and x = 2, k = 1 at x = 1 only.
    law = Law("k", "xij", "+ t.kxij")
    flat = [Fraction(0)] * 12
    flat[0], flat[5], flat[8] = Fraction(4), Fraction(-1, 3), Fraction(7)
    t = Block(nest(flat, (2, 3, 2, 1)), (2, 3, 2, 1))
    report = check_row(law, "OUTER", t=t)
    assert report.total_failures == 2
    assert [w.index for w in report.witnesses] == [(0,), (1,)]
    assert [w.residual.entries for w in report.witnesses] == [tuple(flat[:6]), tuple(flat[6:])]
    assert report == UnpackedLaw.of(law).check("OUTER", t=t)


# --- slot boundaries ----------------------------------------------------------

TOP = 2**62 - 1
COPY = Law("k", "ij", "+ t.kij")  # the residual is t itself, one packed row per k


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_slot_at_the_bound(sign, n):
    """Every entry at the largest magnitude, one sign: slots meet the bound B was sized for."""
    t = filled((n, n, n), sign * TOP)
    report = check_row(COPY, "COPY", t=t)
    assert report.total_failures == n
    assert all(x == sign * TOP for w in report.witnesses for x in w.residual.entries)
    # Eight uses of one contraction: the bound counts every use.
    eight = Law("k", "ij", *["+ t.kij"] * 8)
    report = check_row(eight, "EIGHT", t=t)
    assert all(x == 8 * sign * TOP for w in report.witnesses for x in w.residual.entries)
    # Three terms of one sign add up with no cancellation: sum 3 n^2 TOP^3 per slot.
    cojacobi = ROWS["HOM_COJACOBI"][0]
    operands = {"t": t, "alpha": filled((n, n), sign * TOP)}
    report = check_row(cojacobi, "HOM_COJACOBI", **operands)
    assert {x for w in report.witnesses for x in w.residual.entries} == {3 * n * n * (sign * TOP) ** 3}
    assert report == UnpackedLaw.of(cojacobi).check("HOM_COJACOBI", **operands)
    # Packed (i, j) of sizes 2 and 3: two x blocks of three slots, every slot
    # at the bound, the sign flipping where one x block meets the next.
    flat = [sign * TOP * (-1) ** i for _ in range(n) for i in range(2) for _ in range(3)]
    t = Block(nest(flat, (n, 2, 3)), (n, 2, 3))
    report = check_row(COPY, "COPY", t=t)
    assert report.total_failures == n
    assert {w.residual.entries for w in report.witnesses} == {tuple(flat[:6])}
    assert report == UnpackedLaw.of(COPY).check("COPY", t=t)


@pytest.mark.parametrize("x", [1, 2**31, TOP, Fraction(TOP, 13)])
def test_borrows_across_adjacent_slots_decode_exactly(x):
    """+x next to -x: a negative slot borrows from the one above it."""
    rows = [[x, -x, x], [-x, x, -x], [-x, -x, x]]
    t = MulTensor.from_entries([rows, [[-v for v in row] for row in rows], [[0, 0, 0]] * 3])
    report = check_row(COPY, "COPY", t=t)
    assert [w.index for w in report.witnesses] == [(0,), (1,)]
    assert [w.residual.entries for w in report.witnesses] == [
        tuple(Fraction(v) for row in plane for v in row) for plane in t.c[:2]
    ]
    assert report == UnpackedLaw.of(COPY).check("COPY", t=t)
    # Three x blocks of two slots: a negative last slot of one block borrows
    # from the first slot of the next, and the top block ends negative.
    planes = [[[x, -x], [-x, x], [x, -x]], [[-x, x], [x, -x], [-x, -x]]]
    t = Block(tuple(tuple(tuple(Fraction(v) for v in row) for row in plane) for plane in planes),
              (2, 3, 2))
    report = check_row(COPY, "COPY", t=t)
    assert [w.residual.entries for w in report.witnesses] == [
        tuple(v for row in plane for v in row) for plane in planes
    ]
    assert report == UnpackedLaw.of(COPY).check("COPY", t=t)


def test_negative_witness_coordinates_decode_exactly():
    t = MulTensor.from_entries([[[-1, 0], [0, -TOP]], [[Fraction(-1, 3), TOP], [-TOP, -2]]])
    report = check_row(COPY, "COPY", t=t)
    assert [w.residual.entries for w in report.witnesses] == [
        (-1, 0, 0, -TOP), (Fraction(-1, 3), TOP, -TOP, -2)
    ]


def test_nonzero_terms_that_cancel_exactly_pass():
    # Cocommutativity of a symmetric delta: t.kij and t.kji are two packed
    # contractions (the packed letter j moves), each nonzero, summing to 0.
    sym = [[[TOP, -TOP, 3], [-TOP, 2, 0], [3, 0, -1]], [[1, 5, 0], [5, 0, 7], [0, 7, TOP]],
           [[0] * 3] * 3]
    law = ROWS["COCOMMUTATIVITY"][0]
    t = ComulTensor.from_entries(sym)
    assert check_row(law, "COCOMMUTATIVITY", t=t).holds
    assert not check_row(COPY, "COPY", t=t).holds
    # Hom-associativity of the 2x2 matrices with large twisting-free scales:
    # both terms are nonzero and equal.
    alg = matrix_algebra(2)
    scaled = HomAlgebra(alg.dim, MulTensor.from_entries(
        [[[TOP * x for x in row] for row in plane] for plane in alg.mu.c]
    ), alg.alpha)
    for a in (alg, scaled):
        assert check_hom_associative(a).holds
        assert not check_row(COPY, "COPY", t=a.mu).holds


# --- joint scaling ------------------------------------------------------------

factors = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(lambda c: c != 0)


def fraction(rng, bound: int, denominator: int) -> Fraction:
    """A rational in [-bound, bound] with denominator at most ``denominator``: a value of
    ``st.fractions(min_value=-bound, max_value=bound, max_denominator=denominator)``.

    The entries of an example come from one seeded ``random.Random``: drawing each from
    hypothesis cost most of these tests' time."""
    d = rng.randint(1, denominator)
    return Fraction(rng.randint(-bound * d, bound * d), d)


def cube(rng, a: int, b: int, c: int):
    return [[[fraction(rng, 3, 4) for _ in range(c)] for _ in range(b)] for _ in range(a)]


def times(c, cube):
    return [[[c * x for x in row] for row in plane] for plane in cube]


def matrix(rng, rows: int, cols: int):
    return LinearMap.from_rows(cube(rng, 1, rows, cols)[0])


def assert_scaled(report, scaled, factor):
    """Same verdict, count and witness indices; every residual times ``factor``."""
    assert (scaled.holds, scaled.total_failures) == (report.holds, report.total_failures)
    assert [w.index for w in scaled.witnesses] == [w.index for w in report.witnesses]
    for w, v in zip(report.witnesses, scaled.witnesses):
        assert v.residual.entries == tuple(factor * x for x in w.residual.entries)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(0, 3), factors)
def test_jointly_scaled_laws_scale_residuals_by_c_squared(rng, n, m, c):
    """Every law is quadratic in (mu, act) jointly: scaling both by c scales residuals by c^2."""
    mu = cube(rng, n, n, n)
    alpha = matrix(rng, n, n)
    alg = HomAlgebra(n, MulTensor.from_entries(mu), alpha)
    alg_c = HomAlgebra(n, MulTensor.from_entries(times(c, mu)), alpha)
    for check in (check_left_hom_alternative, check_right_hom_alternative, check_hom_associative):
        assert_scaled(check(alg), check(alg_c), c**2)
    beta = matrix(rng, m, m)
    for side, check in (("left", check_left_module), ("right", check_right_module)):
        shape = (n, m, m) if side == "left" else (m, n, m)
        act = cube(rng, *shape)
        mod, mod_c = (
            HomModule(a, m, beta, ActionTensor.from_entries(t, n, m, side), side)
            for a, t in ((alg, act), (alg_c, times(c, act)))
        )
        assert_scaled(check(mod), check(mod_c), c**2)


# --- relabelling ----------------------------------------------------------------


def relabel(nested, perms):
    """``out[p0[i]][p1[j]]... = nested[i][j]...``: the same tensor in a permuted basis."""
    if not perms:
        return nested
    first, *rest = perms
    out = [None] * len(nested)
    for i, sub in enumerate(nested):
        out[first[i]] = relabel(sub, rest)
    return out


def relabelled_report(report, index_perms, residual_perms, residual_shape):
    """``report``'s witnesses with indices and residual positions mapped."""
    mapped = {}
    for w in report.witnesses:
        moved = relabel(nest(list(w.residual.entries), residual_shape), residual_perms)
        for _ in residual_shape[1:]:
            moved = [x for row in moved for x in row]
        mapped[tuple(p[i] for p, i in zip(index_perms, w.index))] = tuple(moved)
    return mapped


def assert_relabelled(report, moved, index_perms, residual_perms, residual_shape):
    """Same verdicts and counts per part; witnesses map under the permutation."""
    parts, moved_parts = report.parts or (report,), moved.parts or (moved,)
    assert [p.axiom for p in parts] == [p.axiom for p in moved_parts]
    for part, other in zip(parts, moved_parts):
        assert (part.holds, part.total_failures) == (other.holds, other.total_failures)
        perms = index_perms(part.axiom), residual_perms(part.axiom)
        want = relabelled_report(part, *perms, residual_shape(part.axiom))
        got = {w.index: w.residual.entries for w in other.witnesses}
        if part.total_failures <= len(part.witnesses):
            assert got == want
        for index in want.keys() & got.keys():
            assert got[index] == want[index]


def draw_entry(rng) -> Fraction:
    """Zero half the time, else a value of ``st.fractions(-2, 2, max_denominator=3)``."""
    return fraction(rng, 2, 3) if rng.randrange(2) else Fraction(0)


def draw_cube(rng, a, b, c):
    return [[[draw_entry(rng) for _ in range(c)] for _ in range(b)] for _ in range(a)]


def draw_square(rng, n):
    return draw_cube(rng, 1, n, n)[0]


@settings(max_examples=30, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(1, 3), m=st.integers(1, 3))
def test_relabelling_the_basis_maps_reports(rng, n, m):
    P = rng.sample(range(n), n)
    Q = rng.sample(range(m), m)
    mu, alpha = draw_cube(rng, n, n, n), draw_square(rng, n)
    act_l, act_r, beta = draw_cube(rng, n, m, m), draw_cube(rng, m, n, m), draw_square(rng, m)
    delta, gamma, coalpha = draw_cube(rng, n, n, n), draw_cube(rng, n, n, n), draw_square(rng, n)
    dm, gm, cobeta = draw_cube(rng, m, n, m), draw_cube(rng, m, n, m), draw_square(rng, m)
    cocommutative = bool(rng.randrange(2))

    def build(p, q):
        alg = HomAlgebra(n, MulTensor.from_entries(relabel(mu, [p, p, p])),
                         LinearMap.from_rows(relabel(alpha, [p, p])))
        left = HomModule(alg, m, LinearMap.from_rows(relabel(beta, [q, q])),
                         ActionTensor.from_entries(relabel(act_l, [p, q, q]), n, m, "left"), "left")
        right = HomModule(alg, m, LinearMap.from_rows(relabel(beta, [q, q])),
                          ActionTensor.from_entries(relabel(act_r, [q, p, q]), n, m, "right"), "right")
        coalg = HomPoissonCoalgebra(
            n, ComulTensor.from_entries(relabel(delta, [p, p, p])),
            ComulTensor.from_entries(relabel(gamma, [p, p, p])),
            LinearMap.from_rows(relabel(coalpha, [p, p])), cocommutative,
        )
        comod = HomComodule(
            coalg, m, LinearMap.from_rows(relabel(cobeta, [q, q])), "poisson",
            CoactionTensor.from_entries(relabel(dm, [q, p, q]), n, m),
            CoactionTensor.from_entries(relabel(gm, [q, p, q]), n, m),
        )
        return alg, left, right, coalg, comod

    ident_n, ident_m = list(range(n)), list(range(m))
    before, after = build(ident_n, ident_m), build(P, Q)
    alg_side = [
        (check_left_hom_alternative, 0, [P, P, P], [P], (n,)),
        (check_right_hom_alternative, 0, [P, P, P], [P], (n,)),
        (check_hom_associative, 0, [P, P, P], [P], (n,)),
        (check_left_module, 1, [P, P, Q], [Q], (m,)),
        (check_right_module, 2, [Q, P, P], [Q], (m,)),
    ]
    for check, k, index, residual, shape in alg_side:
        assert_relabelled(check(before[k]), check(after[k]), lambda _: index, lambda _: residual,
                          lambda _: shape)
    # Coalgebra parts: index k, residual ij or ijl, all in the one basis.
    assert_relabelled(
        check_hom_poisson_coalgebra(before[3]), check_hom_poisson_coalgebra(after[3]),
        lambda _: [P], lambda axiom: [P] * len(coalgebra_shape(axiom, n)),
        lambda axiom: coalgebra_shape(axiom, n),
    )
    # Comodule parts: index p in M, residual iq or ijq with q in M.
    assert_relabelled(
        check_poisson_comodule(before[4]), check_poisson_comodule(after[4]),
        lambda _: [Q], lambda axiom: [P] * (len(comodule_shape(axiom, n, m)) - 1) + [Q],
        lambda axiom: comodule_shape(axiom, n, m),
    )


def coalgebra_shape(axiom: str, n: int) -> tuple:
    three = {coalgebras.HOM_COASSOCIATIVITY, coalgebras.HOM_COJACOBI, coalgebras.HOM_COLEIBNIZ}
    return (n,) * (3 if axiom in three else 2)


def comodule_shape(axiom: str, n: int, m: int) -> tuple:
    two = {comodules.DELTA_COACTION_MULTIPLICATIVITY, comodules.GAMMA_COACTION_MULTIPLICATIVITY}
    return (n, m) if axiom in two else (n, n, m)


# --- the program cache ------------------------------------------------------------
#
# A plan's program is cached by its rows' laws, the pattern of its operand
# numbers and the operands' shapes, never by entry values: structures that
# differ only in which operands are one tensor must get programs of their own,
# and a program evicted from the bounded cache must come back the same.


def fresh(nested):
    """Nested entry tuples rebuilt as new tuples around the same entries."""
    return tuple(map(fresh, nested)) if isinstance(nested, tuple) else nested


def aliasing_cases(n: int) -> list:
    """(check, its reference reports) at dim n, rational entries: checks that
    share laws and shapes but differ in which operands share a tuple."""
    rng = DeterministicRng(260 + n)

    def square():
        return [[rng.point_entry() for _ in range(n)] for _ in range(n)]

    def cube():
        return [square() for _ in range(n)]

    alg = HomAlgebra(n, MulTensor.from_entries(cube()), LinearMap.from_rows(square()))
    regular = regular_module(alg)  # act is mu's tuple
    copied = HomModule(alg, n, alg.alpha, ActionTensor(fresh(alg.mu.c), n, n, "left"), "left")
    other = HomModule(alg, n, alg.alpha, ActionTensor.from_entries(cube(), n, n, "left"), "left")
    delta, alpha = ComulTensor.from_entries(cube()), LinearMap.from_rows(square())
    one = HomPoissonCoalgebra(n, delta, delta, alpha, True)  # gamma is delta
    twin = HomPoissonCoalgebra(n, delta, ComulTensor(fresh(delta.d)), alpha, True)
    two = HomPoissonCoalgebra(n, delta, ComulTensor.from_entries(cube()), alpha, True)
    algebra = [ref.check_left_hom_alternative(alg), ref.check_right_hom_alternative(alg),
               ref.check_hom_associative(alg)]
    # The oracle reads entries only, so equal-entry structures share its reports.
    module, coalgebra = [ref.check_left_module(regular)], [ref.check_hom_poisson_coalgebra(one)]
    structures = [(alg, algebra), (regular, module), (copied, module),
                  (other, [ref.check_left_module(other)]), (one, coalgebra), (twin, coalgebra),
                  (two, [ref.check_hom_poisson_coalgebra(two)])]
    cases = [(partial(verify_all, s), reports) for s, reports in structures]
    # Square maps: f x = y f with f, x or y one map, whose shapes are one sequence.
    a, b = alg.alpha, alpha
    for f, x, y in ((a, a, b), (a, b, b), (a, b, a), (b, a, b)):
        cases.append((partial(commutes, partial(check_row, COMMUTES), f, x, y),
                      commutes(UnpackedLaw.of(COMMUTES).check, f, x, y)))
    return cases


def verify_all(structure) -> list:
    return axioms.verify(structure, axioms.native_suite(structure))


def commutes(check, f, x, y) -> list:
    return [check("COMMUTES", f=f, src=x, dst=y)]


def commutes_cases(count: int) -> list:
    """``count`` COMMUTES rows, each on sparse maps of its own pair of sizes:
    ``f x = y f`` fails where ``f`` is nonzero and ``x``'s diagonal is not 1."""
    side = isqrt(count - 1) + 1
    cases = []
    for m, n in [(m, n) for m in range(1, side + 1) for n in range(1, side + 1)][:count]:
        f = LinearMap.from_rows([[int((o + a) % 3 == 0) for a in range(n)] for o in range(m)])
        x = LinearMap.diagonal([Fraction(a % 3 + 1, 2) for a in range(n)])
        cases.append({"f": f, "src": x, "dst": LinearMap.identity(m)})
    return cases


def session_argv(entry, out) -> list[list[str]]:
    """The README session's commands on one catalogue entry: export it, verify its
    pinned suite, then transform and twist it where its kind allows, verifying each."""
    name, payload = entry.name, entry.payload
    src, transformed, twisted = (str(out / f"{name}{suffix}.json") for suffix in ("", ".t", ".w"))
    runs = [["catalog", "export", name, "--out", src],
            ["verify", src, name, "--suite", ",".join(entry.expected_verdicts)]]
    side, kind = getattr(payload, "side", "left"), getattr(payload, "kind", "poisson")
    op = "opposite" if hasattr(payload, "alpha") else "negate"
    if side == "left" and kind == "poisson":
        runs += [["transform", src, name, op, "--out", transformed], ["verify", transformed, name]]
    if not hasattr(payload, "alpha") or payload.alpha.is_identity():
        endo = ["--endo", "id"] if hasattr(payload, "alpha") else []
        runs += [["twist", src, name, "--out", twisted, *endo], ["verify", twisted, name]]
    return runs


def test_the_catalogue_sweep_and_session_evict_no_compiled_entry(tmp_path, capsys):
    from homstruct import catalog, cli

    compiled.cache_clear()
    for entry in catalog.entries():
        reports = axioms.verify(entry.payload, list(entry.expected_verdicts))
        assert {r.axiom: r.holds for r in reports} == entry.expected_verdicts
    for entry in catalog.entries():
        for argv in session_argv(entry, tmp_path):
            assert cli.main(argv) in (0, 1), argv
    capsys.readouterr()
    info = compiled.cache_info()
    assert info.misses == info.currsize < info.maxsize  # every entry built is still held


def stated_laws() -> list:
    """Every ``Law`` the structure modules and ``laws`` hold, at module level or in
    a dict or tuple there."""
    found = {}

    def walk(value):
        if isinstance(value, Law):
            found[id(value)] = value
        elif isinstance(value, (dict, tuple, list)):
            for item in value.values() if isinstance(value, dict) else value:
                walk(item)

    for module in (laws, algebras, modules, coalgebras, comodules):
        walk(list(vars(module).values()))
    return list(found.values())


def test_a_check_leaves_every_law_as_stated(tmp_path, capsys, monkeypatch):
    # A plan compiles each row by its operands' numbers, less its identity maps
    # (``laws._row``): no check builds a Law, and each Law keeps only its row.
    from homstruct import catalog, cli

    stated = stated_laws()
    assert len(stated) > 20
    before = [copy.deepcopy(vars(law)) for law in stated]
    built, init = [], Law.__init__
    monkeypatch.setattr(Law, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    compiled.cache_clear()
    for entry in catalog.entries():
        axioms.verify(entry.payload, list(entry.expected_verdicts))
        for argv in session_argv(entry, tmp_path):
            assert cli.main(argv) in (0, 1), argv
    capsys.readouterr()
    assert built == []
    for law, was in zip(stated, before):
        assert vars(law) == was and set(was) == {"index", "residual", "terms", "_parsed", "names"}


def test_programs_are_keyed_by_laws_aliasing_and_shapes():
    bound = compiled.cache_info().maxsize
    cases = [case for n in range(1, 5) for case in aliasing_cases(n)]
    random.Random(26).shuffle(cases)
    reports = [run() for run, _ in cases]
    assert sum(not r.holds for rs in reports for r in rs) > 20  # witnesses are compared too
    for (run, expected), got in zip(cases, reports):
        assert got == expected
        compiled.cache_clear()
        assert run() == got
    # More distinct shapes than the cache holds: the first programs are evicted
    # and rebuilt equal, and so are the aliasing cases', checked again after.
    rows = commutes_cases(bound + 1)
    sweep = [check_row(COMMUTES, "COMMUTES", **operands) for operands in rows]
    assert compiled.cache_info().currsize == bound
    misses = compiled.cache_info().misses
    assert [check_row(COMMUTES, "COMMUTES", **operands) for operands in rows[:3]] == sweep[:3]
    assert compiled.cache_info().misses > misses
    oracle = UnpackedLaw.of(COMMUTES)
    for operands, got in zip(rows, sweep):
        assert got == oracle.check("COMMUTES", **operands)
    assert not all(r.holds for r in sweep)
    for run, expected in reversed(cases):
        assert run() == expected


def slot_formula(rows: list) -> tuple[int, int]:
    """The common scale and B of a plan of ``rows`` by the formula, group by group:
    a group's scale is the product of its operands' scales, and a row's bound the
    sum over its groups of common // scale * (uses * summed sizes << bits)."""
    bounds = []
    for _, law, operands in rows:
        bounds.append([])
        named = [operands[name] for name in law.names]  # operand n is law.names[n]
        for ids, _, summed, uses in compiled_row(law)[0]:
            scale = prod(named[n].scaled[0] for n, _ in ids)
            bits = sum(named[n].scaled[2] for n, _ in ids)
            count = len(uses) * prod(named[n].shape[axis] for n, axis in summed)
            bounds[-1].append((scale, count << bits))
    common = lcm(*[scale for row in bounds for scale, _ in row])
    return common, max(sum(common // s * b for s, b in row) for row in bounds).bit_length() + 2


def test_common_scale_and_slot_width_follow_the_formula():
    top = Fraction(2**40 - 3, 7)
    t = ComulTensor.from_entries([[[top, Fraction(1, 3)], [1, 0]],
                                  [[0, Fraction(-5, 2)], [top, 1]]])
    g = ComulTensor.from_entries([[[1, 2], [Fraction(1, 5), 0]], [[0, 3], [-1, 1]]])
    coalg = HomPoissonCoalgebra(2, t, g, LinearMap.from_rows([[Fraction(3, 4), 1], [0, top]]), True)
    alg = HomAlgebra(2, MulTensor.from_entries([[[top, 0], [1, Fraction(2, 9)]]] * 2),
                     LinearMap.from_rows([[1, Fraction(1, 6)], [0, 2]]))
    # COCOMMUTATIVITY (one operand), HOM_COJACOBI (three-fold products) and
    # HOM_COLEIBNIZ (delta and gamma), alone and in one plan; an algebra row too.
    rows = [row for axiom in ("COCOMMUTATIVITY", "HOM_COJACOBI", "HOM_COLEIBNIZ")
            for row in coalg.laws(axiom)]
    for plan_rows in [[row] for row in rows] + [rows, alg.laws("HOM_ASSOC")]:
        plan = Plan({axiom: [(axiom, law, operands)] for axiom, law, operands in plan_rows})
        assert plan._size()[:2] == slot_formula(plan_rows)
    # pinned, so a change to the formula shows even where both sides move together
    assert [Plan({"R": [("R", law, ops)]})._size()[:2] for _, law, ops in rows] == [
        (42, 47), (700, 56), (5880, 95)]
    assert Plan({axiom: [(axiom, law, ops)] for axiom, law, ops in rows})._size()[:2] == (29400, 97)
