"""Every guard of a record or a check, pinned by its error type and exact text;
what ``laws(id)`` does with an id its structure does not hold; and that the
registry and the file format serve every structure type that states laws."""

import importlib
import inspect
import pkgutil

import pytest

import homstruct
from homstruct import axioms, catalog, fileformat, laws
from homstruct.algebras import HOM_ASSOC, HomAlgebra, check_morphism
from homstruct.catalog import matrix_conjugation
from homstruct.coalgebras import HomPoissonCoalgebra, check_coalgebra_morphism, check_coendomorphism
from homstruct.comodules import HomComodule
from homstruct.errors import DimensionMismatch, FormatError, KindMismatch, WrongSide
from homstruct.exact import (
    ActionTensor,
    CoactionTensor,
    ComulTensor,
    LinearMap,
    MulTensor,
    Vector,
)
from homstruct.fileformat import StructureFile, serialize
from homstruct.laws import Law
from homstruct.modules import (
    LEFT_MODULE,
    RIGHT_MODULE,
    HomModule,
    check_module_morphism,
    module_hom_associator,
)
from homstruct.report import AxiomReport

ONE, TWO = LinearMap.identity(1), LinearMap.identity(2)
V1, V2, V3 = Vector.zero(1), Vector.zero(2), Vector.zero(3)
ALG = HomAlgebra(1, MulTensor.zero(1), ONE)
COALG = HomPoissonCoalgebra(1, ComulTensor.zero(1), ComulTensor.zero(1), ONE)
CO = CoactionTensor.zero(1, 1)


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
    "coalgebra sizes": (lambda: HomPoissonCoalgebra(2, ComulTensor.zero(1), ComulTensor.zero(2),
                                                    TWO), DimensionMismatch,
                        "coalgebra components have inconsistent sizes"),
    "coendomorphism shape": (lambda: check_coendomorphism(COALG, TWO), DimensionMismatch,
                             "coendomorphism candidate has wrong shape"),
    "coalgebra morphism shape": (lambda: check_coalgebra_morphism(TWO, COALG, COALG),
                                 DimensionMismatch, "morphism candidate has wrong shape"),
    "comodule kind": (lambda: HomComodule(COALG, 1, ONE, "hopf"), KindMismatch,
                      "unknown comodule kind 'hopf'"),
    "comodule cobracket side": (lambda: HomComodule(COALG, 1, ONE, "coassociative", CO, CO),
                                KindMismatch,
                                "cobracket-side coaction presence does not match kind"),
    "comodule coaction dims": (lambda: HomComodule(COALG, 2, TWO, "lie", None,
                                                   CoactionTensor.zero(2, 2)), DimensionMismatch,
                               "coaction tensor does not match coalgebra/module dims"),
    "comodule beta": (lambda: HomComodule(COALG, 1, TWO, "lie", None, CO), DimensionMismatch,
                      "beta is not square of size dim_mod"),
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
    "module morphism across sides": (lambda: check_module_morphism(ONE, module("left"),
                                                                   module("right")),
                                     WrongSide, "modules have different sides"),
    "vector difference dims": (lambda: V2 - V3, DimensionMismatch, "vector dims 2 != 3"),
    "map apply dims": (lambda: TWO.apply(V3), DimensionMismatch, "map expects dim 2, got 3"),
    "mul apply dims": (lambda: MulTensor.zero(2).apply(V3, V2), DimensionMismatch,
                       "expected dim 2, got 3 and 2"),
    "comul apply dims": (lambda: ComulTensor.zero(2).apply(V3), DimensionMismatch,
                         "expected dim 2, got 3"),
    "left apply of a right action": (lambda: ActionTensor.zero(1, 1, "right").apply_left(V1, V1),
                                     WrongSide, "left application of a right action"),
    "right apply of a left action": (lambda: ActionTensor.zero(1, 1).apply_right(V1, V1),
                                     WrongSide, "right application of a left action"),
    "left action operand dims": (lambda: ActionTensor.zero(1, 2).apply_left(V2, V2),
                                 DimensionMismatch, "action operand dims do not match"),
    "right action operand dims": (lambda: ActionTensor.zero(1, 2, "right").apply_right(V1, V1),
                                  DimensionMismatch, "action operand dims do not match"),
    "coaction apply dims": (lambda: CoactionTensor.zero(1, 2).apply(V3), DimensionMismatch,
                            "expected dim 2, got 3"),
    "conjugation by a zero entry": (lambda: matrix_conjugation(2, [1, 0]), DimensionMismatch,
                                    "need k nonzero diagonal entries"),
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
    assert types <= set(axioms.SUITES) and types <= set(fileformat._WIRE)
