"""The record protocol every value type keeps: dataclass fields in constructor
order, no generated method, frozen fields, ``replace``, hashing and ``repr``."""

import dataclasses
import inspect
import pathlib
from fractions import Fraction

import pytest

from homstruct import exact
from homstruct.algebras import HomAlgebra
from homstruct.catalog import CatalogEntry
from homstruct.coalgebras import HomPoissonCoalgebra
from homstruct.comodules import HomComodule
from homstruct.exact import (
    ActionTensor,
    CoactionTensor,
    ComulTensor,
    LinearMap,
    MulTensor,
    Record,
    Vector,
)
from homstruct.fileformat import StructureFile
from homstruct.modules import HomModule
from homstruct.report import AxiomReport, Witness


def instances() -> dict:
    """One small instance of each record, and the ``repr`` the dataclass-generated
    methods gave it."""
    one = LinearMap.identity(1)
    mu = MulTensor.from_entries([[[2]]])
    d = ComulTensor.from_entries([[[-1]]])
    act = ActionTensor.from_entries([[[1]]], 1, 1, "right")
    co = CoactionTensor.from_entries([[["3/2"]]], 1, 1)
    w = Witness((0, 1), (2, -4), 6)
    alg = HomAlgebra(1, mu, one)
    po = HomPoissonCoalgebra(1, d, d, one, False)
    r_one = "LinearMap(entries=((Fraction(1, 1),),), dim_in=1)"
    r_mu = "MulTensor(c=(((Fraction(2, 1),),),))"
    r_d = "ComulTensor(d=(((Fraction(-1, 1),),),))"
    r_w = "Witness(index=(0, 1), digits=(1, -2), scale=3)"
    r_alg = f"HomAlgebra(dim=1, mu={r_mu}, alpha={r_one})"
    r_po = f"HomPoissonCoalgebra(dim=1, delta={r_d}, gamma={r_d}, alpha={r_one}, " \
           "cocommutative_expected=False)"
    return {
        Vector: (Vector.from_entries([Fraction(1, 2), 0]),
                 "Vector(entries=(Fraction(1, 2), Fraction(0, 1)))"),
        LinearMap: (LinearMap.from_rows([[1, "-1/3"]]),
                    "LinearMap(entries=((Fraction(1, 1), Fraction(-1, 3)),), dim_in=2)"),
        MulTensor: (mu, r_mu),
        ComulTensor: (d, r_d),
        ActionTensor: (act, "ActionTensor(a=(((Fraction(1, 1),),),), dim_alg=1, dim_mod=1, "
                            "side='right')"),
        CoactionTensor: (co, "CoactionTensor(g=(((Fraction(3, 2),),),), dim_coalg=1, dim_mod=1)"),
        Witness: (w, r_w),
        AxiomReport: (AxiomReport("Q", False, (w,), 1, (AxiomReport("P", False, (w,), 1),)),
                      f"AxiomReport(axiom='Q', holds=False, witnesses=({r_w},), total_failures=1, "
                      f"parts=(AxiomReport(axiom='P', holds=False, witnesses=({r_w},), "
                      "total_failures=1, parts=()),))"),
        HomAlgebra: (alg, r_alg),
        HomModule: (HomModule(alg, 1, one, act, "right"),
                     f"HomModule(algebra={r_alg}, dim_mod=1, beta={r_one}, action=ActionTensor("
                     "a=(((Fraction(1, 1),),),), dim_alg=1, dim_mod=1, side='right'), side='right')"),
        HomPoissonCoalgebra: (po, r_po),
        HomComodule: (HomComodule(po, 1, one, "lie", None, co),
                      f"HomComodule(coalgebra={r_po}, dim_mod=1, beta={r_one}, kind='lie', "
                      "delta_m=None, gamma_m=CoactionTensor(g=(((Fraction(3, 2),),),), "
                      "dim_coalg=1, dim_mod=1))"),
        CatalogEntry: (CatalogEntry("e", alg, {"HOM_ASSOC": True}),
                       f"CatalogEntry(name='e', payload={r_alg}, "
                       "expected_verdicts=mappingproxy({'HOM_ASSOC': True}))"),
        StructureFile: (StructureFile(1, {"A": alg}, {}),
                        f"StructureFile(version=1, structures={{'A': {r_alg}}}, base_of={{}})"),
    }


RECORDS = list(instances())


def test_every_record_is_listed():
    assert len(RECORDS) == 14


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_declares_fields_and_generates_no_method(cls):
    assert dataclasses.is_dataclass(cls) and issubclass(cls, Record)
    names = [f.name for f in dataclasses.fields(cls)]
    assert names == list(inspect.signature(cls).parameters)
    assert cls.__match_args__ == tuple(names)
    params = cls.__dataclass_params__
    assert not (params.init or params.repr or params.eq)
    assert cls.__doc__ and not cls.__doc__.startswith(f"{cls.__name__}(")
    for method in ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"):
        assert getattr(cls, method).__code__.co_filename != "<string>", method


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_frozen_and_replaces(cls):
    record, text = instances()[cls]
    assert repr(record) == text
    for f in dataclasses.fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, f.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, f.name)
    copy = dataclasses.replace(record)
    assert copy == record and copy is not record and repr(copy) == text
    assert instances()[cls][0] == record
    if cls in (CatalogEntry, StructureFile):  # they hold a mapping
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(copy) == hash(record)
    assert record.__eq__(object()) is NotImplemented


def test_replace_changes_only_the_named_field():
    alg = instances()[HomAlgebra][0]
    doubled = dataclasses.replace(alg, alpha=LinearMap.diagonal([2]))
    assert (doubled.dim, doubled.mu, doubled.alpha) == (1, alg.mu, LinearMap.diagonal([2]))
    assert doubled != alg
    mu, d = MulTensor.from_entries([[[1]]]), ComulTensor.from_entries([[[1]]])
    assert dataclasses.astuple(mu) == dataclasses.astuple(d) and mu != d


class Point(Record):
    """A record declared by subclassing alone."""

    x: int
    y: int

    def __init__(self, x, y):
        self._store(x, y)


def test_subclassing_record_declares_its_fields():
    assert Point._fields == ("x", "y") == Point.__match_args__
    assert [f.name for f in dataclasses.fields(Point)] == ["x", "y"]
    p = Point(1, 2)
    moved = dataclasses.replace(p, y=3)
    assert (moved.x, moved.y) == (1, 3) and moved != p and hash(Point(1, 2)) == hash(p)
    assert repr(moved) == f"{Point.__qualname__}(x=1, y=3)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.x = 0


def test_store_takes_one_value_per_field_in_order():
    p = Point(1, 2)
    for values in ((), (3,), (3, 4, 5)):
        with pytest.raises(ValueError):
            Point._store(p, *values)
    assert (p.x, p.y) == (1, 2)
    Point._store(p, 4, 5)
    assert (p.x, p.y) == (4, 5)


def test_only_exact_sets_a_record_attribute():
    # ``Record._store`` is the one way a record's fields are set
    package = pathlib.Path(exact.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "exact.py":
            source = path.read_text()
            assert "_set" not in source.split() and "_set(" not in source, path.name
            assert "object.__setattr__" not in source, path.name


def test_the_tensor_mixins_declare_no_field():
    for mixin in (exact._Tensor, exact._SquareCube):
        assert not dataclasses.is_dataclass(mixin) and not issubclass(mixin, Record)
    assert not hasattr(exact, "record")
