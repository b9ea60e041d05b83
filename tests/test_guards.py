"""Every guard of a record or a check, and of the test oracle's point evaluation and
the test corpus's random structures, pinned by its error type and exact text; what
each twist gives with its guard bypassed; what ``laws(id)`` does with an id its
structure does not hold; and that the registry and the file format serve every
structure type that states laws."""

import contextlib
import dataclasses
import importlib
import inspect
import json
import pkgutil

import pytest

import homstruct
from corpus import random_structure
from homstruct import algebras, axioms, catalog, cli, coalgebras, comodules, fileformat, laws, modules
from homstruct.algebras import (
    HOM_ASSOC,
    LEFT_HOM_ALT,
    RIGHT_HOM_ALT,
    HomAlgebra,
    check_endomorphism,
    check_morphism,
    yau_twist,
)
from homstruct.catalog import matrix_algebra, matrix_conjugation
from homstruct.coalgebras import (
    HomPoissonCoalgebra,
    check_coalgebra_morphism,
    check_coendomorphism,
    yau_twist_coalgebra,
)
from homstruct.comodules import HomComodule, check_comodule_morphism, negate_poisson_comodule
from homstruct.errors import (
    AlgebraMismatch,
    AlreadyTwisted,
    CoalgebraMismatch,
    DimensionMismatch,
    FormatError,
    KindMismatch,
    NotCoendomorphism,
    NotEndomorphism,
    WrongSide,
)
from homstruct.exact import (
    ActionTensor,
    CoactionTensor,
    ComulTensor,
    LinearMap,
    MulTensor,
    Vector,
    rat,
)
from homstruct.fileformat import StructureFile, serialize
from homstruct.laws import Law, compose, rebuild
from homstruct.modules import (
    LEFT_MODULE,
    RIGHT_MODULE,
    HomModule,
    check_module_morphism,
    regular_module,
    twist_module,
)
from homstruct.report import AxiomReport, Witness
from reference_eval import module_hom_associator, sub

ONE, TWO = LinearMap.identity(1), LinearMap.identity(2)
V1, V2, V3 = Vector.zero(1), Vector.zero(2), Vector.zero(3)
ALG = HomAlgebra(1, MulTensor.zero(1), ONE)
COALG = HomPoissonCoalgebra(1, ComulTensor.zero(1), ComulTensor.zero(1), ONE)
CO = CoactionTensor.zero(1, 1)
DOUBLE = LinearMap.diagonal([2])
LIE = HomComodule(COALG, 1, ONE, "lie", None, CO)


def module(side: str) -> HomModule:
    return HomModule(ALG, 1, ONE, ActionTensor.zero(1, 1, side), side)


# id: (call, error type, the error's first argument)
GUARDS = {
    "algebra mu dim": (lambda: HomAlgebra(2, MulTensor.zero(1), TWO), DimensionMismatch,
                       "multiplication tensor does not match dim"),
    "algebra alpha": (lambda: HomAlgebra(1, MulTensor.zero(1), TWO), DimensionMismatch,
                      "alpha is not square of size dim"),
    "algebra morphism shape": (lambda: check_morphism(TWO, ALG, ALG), DimensionMismatch,
                               "morphism candidate has wrong shape"),
    "endomorphism shape": (lambda: check_endomorphism(ALG, TWO), DimensionMismatch,
                           "endomorphism candidate has wrong shape"),
    "twist of a twisted algebra": (lambda: yau_twist(HomAlgebra(1, MulTensor.zero(1), DOUBLE), ONE),
                                   AlreadyTwisted,
                                   "source algebra already carries a nonidentity alpha"),
    "coalgebra sizes": (lambda: HomPoissonCoalgebra(2, ComulTensor.zero(1), ComulTensor.zero(2),
                                                    TWO), DimensionMismatch,
                        "coalgebra components have inconsistent sizes"),
    "coendomorphism shape": (lambda: check_coendomorphism(COALG, TWO), DimensionMismatch,
                             "coendomorphism candidate has wrong shape"),
    "coalgebra morphism shape": (lambda: check_coalgebra_morphism(TWO, COALG, COALG),
                                 DimensionMismatch, "morphism candidate has wrong shape"),
    "twist of a twisted coalgebra": (lambda: yau_twist_coalgebra(
        HomPoissonCoalgebra(1, ComulTensor.zero(1), ComulTensor.zero(1), DOUBLE), ONE),
                                     AlreadyTwisted,
                                     "source coalgebra already carries a nonidentity alpha"),
    "comodule kind": (lambda: HomComodule(COALG, 1, ONE, "hopf"), KindMismatch,
                      "unknown comodule kind 'hopf'"),
    "comodule comultiplication side": (
        lambda: HomComodule(COALG, 1, ONE, "lie", CO, CO), KindMismatch,
        "comultiplication-side coaction presence does not match kind"),
    "comodule cobracket side": (lambda: HomComodule(COALG, 1, ONE, "coassociative", CO, CO),
                                KindMismatch,
                                "cobracket-side coaction presence does not match kind"),
    "comodule coaction dims": (lambda: HomComodule(COALG, 2, TWO, "lie", None,
                                                   CoactionTensor.zero(2, 2)), DimensionMismatch,
                               "coaction tensor does not match coalgebra/module dims"),
    "comodule beta": (lambda: HomComodule(COALG, 1, TWO, "lie", None, CO), DimensionMismatch,
                      "beta is not square of size dim_mod"),
    "comodule morphism across coalgebras": (lambda: check_comodule_morphism(
        ONE, LIE, HomComodule(HomPoissonCoalgebra(1, ComulTensor.zero(1), ComulTensor.zero(1),
                                                   DOUBLE), 1, ONE, "lie", None, CO)),
                                            CoalgebraMismatch,
                                            "comodules live over different coalgebras"),
    "comodule morphism across kinds": (lambda: check_comodule_morphism(
        ONE, LIE, HomComodule(COALG, 1, ONE, "coassociative", CO)), KindMismatch,
                                       "comodules have different kinds"),
    "comodule morphism shape": (lambda: check_comodule_morphism(TWO, LIE, LIE), DimensionMismatch,
                                "morphism candidate has wrong shape"),
    "negation of a lie comodule": (lambda: negate_poisson_comodule(LIE), KindMismatch,
                                   "negation construction is stated for poisson comodules"),
    "module side": (lambda: HomModule(ALG, 1, ONE, ActionTensor.zero(1, 1), "up"), WrongSide,
                    "unknown side 'up'"),
    "module action side": (lambda: HomModule(ALG, 1, ONE, ActionTensor.zero(1, 1, "right"),
                                             "left"), WrongSide,
                           "action tensor side does not match module side"),
    "module action dims": (lambda: HomModule(ALG, 2, TWO, ActionTensor.zero(1, 1), "left"),
                           DimensionMismatch, "action tensor does not match algebra/module dims"),
    "module beta": (lambda: HomModule(ALG, 1, TWO, ActionTensor.zero(1, 1), "left"),
                    DimensionMismatch, "beta is not square of size dim_mod"),
    "associator of a right module": (lambda: module_hom_associator(module("right"), V1, V1, V1),
                                     WrongSide, "module associator is defined for left modules"),
    "module morphism across algebras": (lambda: check_module_morphism(
        ONE, module("left"), HomModule(HomAlgebra(1, MulTensor.zero(1), DOUBLE), 1, ONE,
                                       ActionTensor.zero(1, 1), "left")),
                                        AlgebraMismatch, "modules live over different algebras"),
    "module morphism across sides": (lambda: check_module_morphism(ONE, module("left"),
                                                                   module("right")),
                                     WrongSide, "modules have different sides"),
    "module morphism shape": (lambda: check_module_morphism(TWO, module("left"), module("left")),
                              DimensionMismatch, "morphism candidate has wrong shape"),
    "compose dims": (lambda: compose(TWO, LinearMap.identity(3)), DimensionMismatch,
                     "cannot compose 2x2 after 3x3"),
    "rational of another type": (lambda: rat(0.5), TypeError, "cannot interpret 0.5 as a rational"),
    "vector difference dims": (lambda: sub(V2.entries, V3.entries), DimensionMismatch,
                               "vector dims 2 != 3"),
    "conjugation by a zero entry": (lambda: matrix_conjugation(2, [1, 0]), DimensionMismatch,
                                    "need k nonzero diagonal entries"),
    "matrix algebra size": (lambda: matrix_algebra(4), DimensionMismatch,
                            "matrix algebra catalogue covers k <= 3"),
    "random structure dims": (lambda: random_structure(0, 5, "mul"), DimensionMismatch,
                              "random structures cover dims 0..4"),
    "random structure kind": (lambda: random_structure(0, 1, "coalgebra"), DimensionMismatch,
                              "unknown random structure kind 'coalgebra'"),
    "report part missing": (lambda: AxiomReport("Q", True, (), 0).part("P"), KeyError, "P"),
    "serialize a vector": (lambda: serialize(StructureFile(1, {"v": V1}, {})), FormatError,
                           "v: cannot serialize Vector"),
    "law without residual": (lambda: Law("i", "", "+ t.i"), ValueError,
                             "a law needs a residual letter to pack and a term"),
    "law without term": (lambda: Law("i", "i"), ValueError,
                         "a law needs a residual letter to pack and a term"),
}


@pytest.mark.parametrize("guard", list(GUARDS))
def test_guard_raises_its_error_and_text(guard):
    call, error, text = GUARDS[guard]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and info.value.args == (text,)


def test_a_map_that_is_not_square_is_not_the_identity():
    assert LinearMap.from_rows([[1, 0]]).is_identity() is False


# --- each twist with its guard bypassed through laws.rebuild ---------------------------
# A guard that is only sufficient stays, as the paper's statement: each case pins what
# the unguarded twist gives and that the guard still refuses it.

def twisted_regular_module(c: int) -> tuple:
    """The regular module of matrix2 with alpha = c id, and its twist by ``rebuild`` alone."""
    alpha = LinearMap.diagonal([c] * 4)
    mod = regular_module(dataclasses.replace(catalog.get("matrix2").payload, alpha=alpha))
    return mod, rebuild(mod, modules._TWIST["left"], ("action",), square=compose(alpha, alpha))


@pytest.mark.parametrize("c", [2, 3, -1])
def test_the_module_twist_along_a_non_multiplicative_alpha(c):
    mod, twisted = twisted_regular_module(c)
    assert laws.check(mod.algebra, HOM_ASSOC).holds  # for every c; multiplicative for c in {0, 1}
    report = laws.check(twisted, LEFT_MODULE)
    if c == -1:  # the twist holds, yet the guard refuses it
        assert report.holds
    else:
        assert report.total_failures == 28
        assert report.witnesses[0] == Witness((0, 0, 0), (2 * (c**5 - c**3), 0, 0, 0), 1)
        indices = [w.index for w in laws.check(twisted_regular_module(2)[1], LEFT_MODULE).witnesses]
        assert [w.index for w in report.witnesses] == indices
    with pytest.raises(NotEndomorphism) as info:
        twist_module(mod)
    assert info.value.args == ("algebra alpha is not multiplicative at 8 basis pairs",)


@pytest.mark.parametrize("name, diagonal, failures, refused", [
    ("octonions", [1, 2] + [1] * 6, (201, 201, 254), 19),
    ("octonions", [1] + [2] * 7, (231, 231, 350), 49),
    ("matrix2", [1, 2, 3, 4], (16, 16, 8), 5),
    ("matrix2", [2] * 4, (0, 0, 0), 8),  # the twist holds, yet the guard refuses it
])
def test_the_yau_twist_along_a_non_multiplicative_map(name, diagonal, failures, refused):
    algebra, phi = catalog.get(name).payload, LinearMap.diagonal(diagonal)
    twisted = rebuild(algebra, algebras._YAU_TWIST, ("mu",), {"alpha": phi}, phi=phi)
    reports = axioms.verify(twisted, [LEFT_HOM_ALT, RIGHT_HOM_ALT, HOM_ASSOC])
    assert tuple(r.total_failures for r in reports) == failures
    with pytest.raises(NotEndomorphism) as info:
        yau_twist(algebra, phi)
    assert info.value.args == (f"map is not multiplicative at {refused} basis pairs",)


@pytest.mark.parametrize("diagonal, failing, refused", [
    ([1, 2, 3, 5], {"DELTA_MULTIPLICATIVITY": 1, "HOM_COASSOCIATIVITY": 1,
                    "GAMMA_MULTIPLICATIVITY": 1, "HOM_COLEIBNIZ": 1}, 2),
    ([2] * 4, {"DELTA_MULTIPLICATIVITY": 4, "GAMMA_MULTIPLICATIVITY": 1}, 5),
])
def test_the_coalgebra_twist_along_a_non_coendomorphism(diagonal, failing, refused):
    coalgebra, phi = catalog.get("poisson_dual4").payload, LinearMap.diagonal(diagonal)
    twisted = rebuild(coalgebra, coalgebras._YAU_TWIST, ("delta", "gamma"), {"alpha": phi}, phi=phi)
    report = laws.check(twisted, coalgebras.HOM_POISSON_COALGEBRA)
    assert {p.axiom: p.total_failures for p in report.parts if not p.holds} == failing
    with pytest.raises(NotCoendomorphism) as info:
        yau_twist_coalgebra(coalgebra, phi)
    assert info.value.args == (f"map fails the coalgebra map laws at {refused} basis vectors",)


# --- laws(id) of an id the structure does not hold -----------------------------------

def test_an_unknown_id_is_a_key_error_on_every_catalogue_entry():
    for entry in catalog.entries():
        with pytest.raises(KeyError):
            laws.check(entry.payload, "NOT_AN_AXIOM")


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_module_looks_its_id_up_before_its_side(side):
    mod = module(side)
    for axiom in (HOM_ASSOC, "NOT_AN_AXIOM"):
        with pytest.raises(KeyError):
            laws.check(mod, axiom)
    other, law = ("right", RIGHT_MODULE) if side == "left" else ("left", LEFT_MODULE)
    with pytest.raises(WrongSide) as info:
        laws.check(mod, law)
    assert str(info.value) == f"{other} check on a {side} module"


# --- one registry for every structure type ----------------------------------------------

def test_every_type_with_laws_is_verified_and_written():
    names = [info.name for info in pkgutil.iter_modules(homstruct.__path__)]
    types = {
        cls
        for name in names if name != "__main__"
        for cls in vars(importlib.import_module(f"homstruct.{name}")).values()
        if inspect.isclass(cls) and cls.__module__.startswith("homstruct.") and hasattr(cls, "laws")
    }
    assert {HomAlgebra, HomModule, HomPoissonCoalgebra, HomComodule} <= types
    assert types <= {cls for cls, kind in fileformat.TYPES.items() if kind.suites}


def test_each_kind_states_its_verbs_once():
    # every table the registry and the CLI dispatch through is its kinds' VERBS, flattened,
    # so a kind is added by its own module and its TYPES entry alone
    verbs = {cls: kind.verbs for cls, kind in fileformat.TYPES.items() if kind.verbs}
    assert set(verbs) == {HomAlgebra, HomModule, HomPoissonCoalgebra, HomComodule}

    def flat(table: str) -> dict:
        return {(cls, key): value for cls, held in verbs.items() for key, value in held[table].items()}

    assert axioms.AXIOMS == flat("checks")
    assert (cli._TWISTS, cli._TRANSFORMS) == (flat("twists"), flat("transforms"))
    assert cli._MORPHISMS == {cls: held["morphism"] for cls, held in verbs.items()}
    payloads = [entry.payload for entry in catalog.entries()]
    for cls, held in verbs.items():
        assert fileformat.TYPES[cls].suites is held["suites"]
        assert {axiom for ids in held["suites"].values() for axiom in ids} <= set(held["checks"])
        variants = {}  # a structure of each variant the catalogue holds
        for payload in payloads:
            if type(payload) is cls:
                variant = fileformat.TYPES[cls].variant
                variants.setdefault(variant and getattr(payload, variant), payload)
        assert set(variants) == set(held["suites"]), cls
        for axiom in held["checks"]:
            resolved = []
            for structure in variants.values():
                with contextlib.suppress(KindMismatch, WrongSide):
                    resolved.append(structure.laws(axiom))
            assert resolved and all(resolved), (cls, axiom)
    homes = {module.__name__ for module in (algebras, modules, coalgebras, comodules)}
    for module in (axioms, cli):
        for name, value in vars(module).items():
            defined = inspect.isfunction(value) or inspect.isclass(value)
            assert not (defined and value.__module__ in homes), (module.__name__, name)


def test_every_row_names_only_fields_of_its_structure_or_its_base():
    # A row's operands are the fields of the structure it checks, or of its base, bound as
    # themselves: no laws() renames a field or builds an operand of its own.
    seen = set()
    for entry in catalog.entries():
        structure = entry.payload
        kind = fileformat.TYPES[type(structure)]
        owners = [structure] + [getattr(structure, attribute) for key, attribute, _ in kind.fields
                                if key == kind.base]
        for axiom in kind.verbs["checks"]:
            with contextlib.suppress(KindMismatch, WrongSide):
                for part, law, operands in structure.laws(axiom):
                    seen.add((type(structure), part))
                    for name in law.names:
                        owner = next((o for o in owners if name in o._fields), None)
                        assert owner is not None, (entry.name, part, name)
                        assert operands[name] is getattr(owner, name), (entry.name, part, name)
    rows = {**algebras._LAWS, **modules._LAWS, **coalgebras._LAWS, **comodules._LAWS}
    assert {part for _, part in seen} == set(rows)
    assert {cls for cls, _ in seen} == {cls for cls, kind in fileformat.TYPES.items() if kind.verbs}


def test_every_morphism_check_binds_each_tensor_field_of_its_kind_once():
    # (part id, law, field) lists, one per side of a module: a kind added to the
    # table without a part list, or a part list without one of its maps, fails here.
    part_lists = {HomAlgebra: {None: algebras._MORPHISM_PARTS}, HomModule: modules._MORPHISM_PARTS,
                  HomPoissonCoalgebra: {None: coalgebras._MORPHISM_PARTS},
                  HomComodule: {None: comodules._MORPHISM_PARTS}}
    assert set(part_lists) == {cls for cls, kind in fileformat.TYPES.items() if kind.suites}
    assert set(modules._MORPHISM_PARTS) == set(fileformat.TYPES[HomModule].suites)
    for cls, by_variant in part_lists.items():
        tensors = sorted(attribute for _, attribute, read in fileformat.TYPES[cls].fields
                         if isinstance(read, fileformat._Array))
        for parts in by_variant.values():
            assert sorted(field for _, _, field in parts) == tensors, cls


def test_every_kind_is_written_with_its_fields_in_table_order_and_reads_back():
    maps = [("f", LinearMap.from_rows([[1, 0, "1/2"], [0, -3, 0]])), ("z", LinearMap.zero(0, 2))]
    files = [cli._catalog_file(entry) for entry in catalog.entries()]
    files += [StructureFile(1, dict(maps), {})]
    seen = set()
    for sf in files:
        data = serialize(sf)
        assert serialize(fileformat.parse_bytes(data)) == data
        for name, doc in json.loads(data)["structures"].items():
            structure = sf.structures[name]
            kind = fileformat.TYPES[type(structure)]
            keys = [key for key, attribute, _ in kind.fields
                    if attribute is None or getattr(structure, attribute) is not None]
            assert list(doc) == ["kind", *keys] and doc["kind"] == kind.wire, name
            seen.add(type(structure))
    assert seen == set(fileformat.TYPES)
