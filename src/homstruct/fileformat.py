"""Versioned JSON container for structures, with a canonical byte encoding.

Canonical form: structure names sorted, fields in a fixed per-kind order,
rationals in lowest terms (``p`` or ``p/q``), compact separators, and a
single trailing newline.  ``serialize(parse(data))`` canonicalizes any valid
file and is a byte-level fixed point on canonical ones.

Entry kinds and fields:

    hom_algebra            kind, dim, mul, alpha
    hom_module             kind, algebra, side, dim, beta, action
    hom_poisson_coalgebra  kind, dim, delta, gamma, alpha, cocommutative
    hom_comodule           kind, coalgebra, structure, dim, beta,
                           delta_m (coassociative/poisson), gamma_m (lie/poisson)
    linear_map             kind, dim_in, dim_out, matrix

Modules name their base algebra and comodules their base coalgebra; all
references must resolve inside the same file.

Each distinct numeral is validated and decoded once per file: ``parse_bytes``
keeps a ``{numeral: Fraction}`` memo for the one call, and the decoded rows go
straight into the tensor constructors.  Only valid numerals enter the memo,
so every bad entry is rejected where it first occurs.  The memo starts as
``{"0": exact._ZERO}``: ``"0"`` is the grammar's one spelling of zero, so
every zero entry of every file is that one object, and every zero row, found
by one list comparison, the one shared row of its width in ``exact.compiled``;
``scaled`` skips both without a Python call.  Writing skips zeros the same way: ``numerals`` take one
format call per nonzero entry and none per zero, ``serialize`` takes them once
per distinct array (entry tuple and shape), and a parsed tensor's are the
array it was read from (every valid numeral is canonical).

Each distinct array is read once too: a module's ``beta`` or ``action`` (a
comodule's ``beta``, ``delta_m`` or ``gamma_m``) with its base entry's dims
that equals the base's ``alpha`` or ``mul`` (``alpha``, ``delta`` or
``gamma``) as JSON is built on the base tensor's own entry tuple
(``_Numerals.like``), so ``laws.Plan`` reads it as one operand.  It is
compared with that one base array only, so parsing stays linear.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .algebras import HomAlgebra
from .coalgebras import HomPoissonCoalgebra
from .comodules import COACTIONS, KINDS, HomComodule
from .errors import FormatError
from .exact import (
    _ZERO,
    ActionTensor,
    CoactionTensor,
    ComulTensor,
    LinearMap,
    MulTensor,
    Record,
    _set,
    _Tensor,
    _zeros,
    action_shape,
    compiled,
    parse_rational,
    record,
)
from .modules import HomModule

FILE_VERSION = 1
BASES = {HomModule: "algebra", HomComodule: "coalgebra"}
"""The types that live over a base entry -> the field that holds it."""
_ENCODER = json.JSONEncoder(separators=(",", ":"))


@record
class StructureFile(Record):
    """A structure file: its named structures and, in ``base_of``, the name of each
    module's or comodule's base entry."""

    version: int
    structures: dict[str, object]
    base_of: dict[str, str]

    def __init__(self, version, structures, base_of):
        _set(self, "version", version)
        _set(self, "structures", structures)
        _set(self, "base_of", base_of)

    def get(self, name: str):
        if name not in self.structures:
            raise FormatError(f"no structure named {name!r} in file")
        return self.structures[name]


def _require(cond: bool, msg: str):
    if not cond:
        raise FormatError(msg)


def _parse_scalar(value) -> Fraction:
    _require(isinstance(value, str), f"rational entries must be strings, got {value!r}")
    return parse_rational(value)


class _Numerals(dict):
    """The numerals of one file, ``{numeral: Fraction}``, and the readers that use them.

    A miss validates and decodes the entry.  Only strings that parse are
    stored, so any other entry misses (a list or object raises ``TypeError``
    on lookup) and is rejected by ``_parse_scalar``.
    """

    def __missing__(self, value) -> Fraction:
        self[value] = number = _parse_scalar(value)
        return number

    def matrix(self, data, rows: int, cols: int, what: str) -> tuple[tuple[Fraction, ...], ...]:
        # Not _require: it would format the message for every row, valid or not.
        if not isinstance(data, list) or len(data) != rows:
            raise FormatError(f"{what}: expected {rows} rows")
        get, zeros, zero = self.__getitem__, ["0"] * cols, compiled(_zeros, (cols,))
        out = []
        for row in data:
            if not isinstance(row, list) or len(row) != cols:
                raise FormatError(f"{what}: expected {cols} columns")
            try:  # a zero row, found in one comparison in C, is the shared one ``scaled`` skips
                out.append(zero if row == zeros else tuple(map(get, row)))
            except TypeError:  # an unhashable entry; the entries before it are valid
                for x in row:
                    _parse_scalar(x)
                raise
        return tuple(out)

    def cube(self, data, d0: int, d1: int, d2: int, what: str) -> tuple:
        if not isinstance(data, list) or len(data) != d0:
            raise FormatError(f"{what}: expected {d0} planes")
        return tuple([self.matrix(plane, d1, d2, what) for plane in data])

    def like(self, entry: dict, field: str, base, base_data, what: str, *dims: int) -> tuple:
        """The entries of ``entry[field]``, an array of ``dims``: ``base``'s own tuple when
        the dims are ``base``'s and it equals ``base_data`` (one comparison, in C), else read."""
        data = entry.get(field)
        if dims == base.shape and data == base_data:
            entry[field] = base_data  # so both tensors keep one array as their numerals
            return getattr(base, base._nested)
        return (self.matrix if len(dims) == 2 else self.cube)(data, *dims, what)


def _kept(tensor, data: list):
    """``tensor``, with the array it was read from as its ``numerals``."""
    vars(tensor)["numerals"] = data
    return tensor


def _parse_dim(raw, what: str) -> int:
    _require(isinstance(raw, int) and not isinstance(raw, bool) and raw >= 0, f"{what}: bad dim")
    return raw


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """JSON object hook: a repeated key would otherwise silently keep the last value."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise FormatError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def parse_bytes(data: bytes) -> StructureFile:
    try:
        text = data.decode("utf-8")
        if text.startswith("\ufeff"):  # json.loads's check, which the decoder lacks
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc = _DECODER.decode(text)
    except ValueError as exc:  # bad UTF-8 or JSON, or an integer over 4,300 digits
        raise FormatError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise FormatError("not valid JSON: nested too deeply") from None
    _require(isinstance(doc, dict), "top level must be an object")
    version = doc.get("version")
    # type(...) is int: true == 1 and 1.0 == 1 would let other bytes give the same file
    _require(type(version) is int and version == FILE_VERSION, f"unsupported version {version!r}")
    raw = doc.get("structures")
    _require(isinstance(raw, dict) and raw is not None, "missing structures map")

    structures: dict[str, object] = {}
    base_of: dict[str, str] = {}
    pending: list[tuple[str, dict]] = []
    numerals = _Numerals({"0": _ZERO})  # the grammar's one spelling of zero

    for name, entry in raw.items():
        _require(isinstance(name, str) and name != "", "structure names must be nonempty strings")
        _require(isinstance(entry, dict), f"{name}: entry must be an object")
        kind = entry.get("kind")
        if kind == "hom_algebra":
            dim = _parse_dim(entry.get("dim"), name)
            mul, alpha = entry.get("mul"), entry.get("alpha")
            mul = _kept(MulTensor(numerals.cube(mul, dim, dim, dim, name)), mul)
            alpha = _kept(LinearMap(numerals.matrix(alpha, dim, dim, name), dim), alpha)
            structures[name] = HomAlgebra(dim, mul, alpha)
        elif kind == "hom_poisson_coalgebra":
            dim = _parse_dim(entry.get("dim"), name)
            delta, gamma, alpha = entry.get("delta"), entry.get("gamma"), entry.get("alpha")
            delta = _kept(ComulTensor(numerals.cube(delta, dim, dim, dim, name)), delta)
            gamma = _kept(ComulTensor(numerals.cube(gamma, dim, dim, dim, name)), gamma)
            alpha = _kept(LinearMap(numerals.matrix(alpha, dim, dim, name), dim), alpha)
            flag = entry.get("cocommutative")
            _require(isinstance(flag, bool), f"{name}: cocommutative must be a boolean")
            structures[name] = HomPoissonCoalgebra(dim, delta, gamma, alpha, flag)
        elif kind == "linear_map":
            dim_in = _parse_dim(entry.get("dim_in"), name)
            dim_out = _parse_dim(entry.get("dim_out"), name)
            rows = entry.get("matrix")
            matrix = numerals.matrix(rows, dim_out, dim_in, name)
            structures[name] = _kept(LinearMap(matrix, dim_in), rows)
        elif kind in ("hom_module", "hom_comodule"):
            pending.append((name, entry))
        else:
            raise FormatError(f"{name}: unknown kind {kind!r}")

    for name, entry in pending:
        if entry["kind"] == "hom_module":
            ref = entry.get("algebra")
            _require(isinstance(ref, str), f"{name}: missing algebra reference")
            base = structures.get(ref)
            _require(isinstance(base, HomAlgebra), f"{name}: algebra {ref!r} not found")
            side = entry.get("side")
            _require(side in ("left", "right"), f"{name}: bad side {side!r}")
            dim, of = _parse_dim(entry.get("dim"), name), raw[ref]
            beta = numerals.like(entry, "beta", base.alpha, of["alpha"], name, dim, dim)
            shape = action_shape(base.dim, dim, side)
            cube = numerals.like(entry, "action", base.mu, of["mul"], name, *shape)
            beta = _kept(LinearMap(beta, dim), entry["beta"])
            action = _kept(ActionTensor(cube, base.dim, dim, side), entry["action"])
            structures[name] = HomModule(base, dim, beta, action, side)
            base_of[name] = ref
        else:
            ref = entry.get("coalgebra")
            _require(isinstance(ref, str), f"{name}: missing coalgebra reference")
            base = structures.get(ref)
            _require(
                isinstance(base, HomPoissonCoalgebra), f"{name}: coalgebra {ref!r} not found"
            )
            comodule_kind = entry.get("structure")
            _require(
                comodule_kind in KINDS,
                f"{name}: bad comodule structure {comodule_kind!r}",
            )
            dim, of = _parse_dim(entry.get("dim"), name), raw[ref]
            beta = numerals.like(entry, "beta", base.alpha, of["alpha"], name, dim, dim)
            beta, coactions = _kept(LinearMap(beta, dim), entry["beta"]), {}
            for field in ("delta_m", "gamma_m"):
                if field in COACTIONS[comodule_kind]:
                    src = field.removesuffix("_m")  # its base map
                    cube = numerals.like(entry, field, getattr(base, src), of[src], name,
                                         dim, base.dim, dim)
                    coactions[field] = _kept(CoactionTensor(cube, base.dim, dim), entry[field])
                else:
                    _require(field not in entry, f"{name}: {field} not allowed for this kind")
            structures[name] = HomComodule(base, dim, beta, comodule_kind, **coactions)
            base_of[name] = ref

    return StructureFile(FILE_VERSION, structures, base_of)


def parse_file(path) -> StructureFile:
    try:
        with open(path, "rb") as fh:
            return parse_bytes(fh.read())
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _base_name(name: str, base, sf: StructureFile) -> str:
    """``sf.base_of[name]``, checked to hold ``base``: by identity first, then by ``==``."""
    ref = sf.base_of.get(name)
    held = sf.structures.get(ref)
    if held is not base and held != base:
        raise FormatError(f"{name}: base_of names {ref!r}, not the entry of its base")
    return ref


# Each written type's wire kind and its fields in wire order, as (wire key, attribute):
# a tensor is written through ``dump``, a base entry by its name, and a None field not
# at all; a linear map's matrix is the map itself.
_WIRE = {
    HomAlgebra: ("hom_algebra", (("dim", "dim"), ("mul", "mu"), ("alpha", "alpha"))),
    HomPoissonCoalgebra: ("hom_poisson_coalgebra", (
        ("dim", "dim"), ("delta", "delta"), ("gamma", "gamma"), ("alpha", "alpha"),
        ("cocommutative", "cocommutative_expected"))),
    HomModule: ("hom_module", (
        ("algebra", "algebra"), ("side", "side"), ("dim", "dim_mod"), ("beta", "beta"),
        ("action", "action"))),
    HomComodule: ("hom_comodule", (
        ("coalgebra", "coalgebra"), ("structure", "kind"), ("dim", "dim_mod"), ("beta", "beta"),
        ("delta_m", "delta_m"), ("gamma_m", "gamma_m"))),
    LinearMap: ("linear_map", (("dim_in", "dim_in"), ("dim_out", "dim_out"), ("matrix", None))),
}


def _entry_doc(name: str, structure, sf: StructureFile, dump) -> dict:
    if type(structure) not in _WIRE:
        raise FormatError(f"{name}: cannot serialize {type(structure).__name__}")
    kind, fields = _WIRE[type(structure)]
    doc = {"kind": kind}
    for key, attribute in fields:
        value = structure if attribute is None else getattr(structure, attribute)
        if key == BASES.get(type(structure)):
            doc[key] = _base_name(name, value, sf)
        elif isinstance(value, _Tensor):
            doc[key] = dump(value)
        elif value is not None:
            doc[key] = value
    return doc


def serialize(sf: StructureFile) -> bytes:
    for name in sf.base_of.values():
        if name not in sf.structures:
            raise FormatError(f"dangling reference to {name!r}")
    written: dict[tuple, list] = {}  # (id of an entry tuple, shape): its numerals

    def dump(tensor) -> list:
        key = id(getattr(tensor, tensor._nested)), tensor.shape
        if key not in written:
            written[key] = tensor.numerals
        return written[key]

    doc = {
        "version": sf.version,
        "structures": {
            name: _entry_doc(name, sf.structures[name], sf, dump) for name in sorted(sf.structures)
        },
    }
    return (_ENCODER.encode(doc) + "\n").encode("utf-8")


def write_file(path, sf: StructureFile):
    """Overwrite ``path`` in place: truncating on open makes ext4 flush it on close (README)."""
    data = serialize(sf)
    with open(path, "wb", opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as fh:
        fh.truncate(fh.write(data))


def single_structure_file(name: str, structure, base: tuple[str, object] | None = None) -> StructureFile:
    """A file holding one structure, plus its base entry when it needs one."""
    structures: dict[str, object] = {}
    base_of: dict[str, str] = {}
    if base is not None:
        base_name, base_structure = base
        structures[base_name] = base_structure
        base_of[name] = base_name
    structures[name] = structure
    return StructureFile(FILE_VERSION, structures, base_of)
