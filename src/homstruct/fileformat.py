"""Versioned JSON container for structures, with a canonical byte encoding.

Canonical form: structure names sorted, fields in a fixed per-kind order,
rationals in lowest terms (``p`` or ``p/q``), compact separators, and a
single trailing newline.  ``serialize(parse(data))`` canonicalizes any valid
file and is a byte-level fixed point on canonical ones.

``TYPES`` states each structure kind once: its wire kind, its noun, its
structure module's ``VERBS`` (what ``verify``, ``twist``, ``transform`` and
``check-morphism`` run on it), and its fields in wire order with how each is
read.  The parser walks an entry's fields in that order, so the first fault
in it is reported, and the writer writes them in it.  Modules name their base
algebra and comodules their base coalgebra; all references must resolve
inside the same file.

Each distinct numeral is validated and decoded once per file: ``parse_bytes``
keeps a ``{numeral: Fraction}`` memo for the one call, and the decoded rows go
straight into the tensor constructors.  Only valid numerals enter the memo,
so every bad entry is rejected where it first occurs.  The memo starts as
``{"0": exact._ZERO}``: ``"0"`` is the grammar's one spelling of zero, so
every zero entry of every file is that one object, and every zero row, found
by one list comparison, the one shared row of its width in ``exact.compiled``;
``scaled`` skips both without a Python call.  Writing skips them the same way:
a built tensor's text (``_text``) takes one format call per nonzero entry, and
``serialize`` puts each distinct array's text (by entry tuple and shape) once
into the document it assembles, passing only strings through the JSON encoder;
a parsed tensor's is joined from the array it was read from (every valid
numeral is canonical, and none needs escaping).  Writing the built dim-16 sedenions
and both regular modules takes ~0.85 ms, peaking at 197 KB.

Each distinct array is read once too: a tensor field whose ``TYPES`` entry
names a base tensor (a module's ``beta`` or ``action``, a comodule's ``beta``,
``delta_m`` or ``gamma_m``), when it has that tensor's dims and equals its
array as JSON, is built on the base tensor's own entry tuple
(``_Numerals.array``), so ``laws.Plan`` reads it as one operand.  It is
compared with that one base array only, so parsing stays linear.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from itertools import chain, compress, count, repeat
from operator import is_not

from .algebras import VERBS as _ALGEBRA, HomAlgebra
from .coalgebras import VERBS as _COALGEBRA, HomPoissonCoalgebra
from .comodules import COACTIONS, VERBS as _COMODULE, HomComodule
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
    _nest,
    _Tensor,
    _zeros,
    action_shape,
    compiled,
    format_rational,
    parse_rational,
)
from .modules import VERBS as _MODULE, HomModule

FILE_VERSION = 1
_ENCODER = json.JSONEncoder(separators=(",", ":"))


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


_NAMES = "structure names must be nonempty strings"


def _require(cond: bool, msg: str):
    if not cond:
        raise FormatError(msg)


class _Numerals(dict):
    """The numerals of one file, ``{numeral: Fraction}``, and the readers that use them.

    A miss validates and decodes the entry.  Only strings that parse are
    stored, so any other entry misses (a list or object raises ``TypeError``
    on lookup) and is rejected by ``__missing__``.
    """

    def __missing__(self, value) -> Fraction:
        _require(isinstance(value, str), f"rational entries must be strings, got {value!r}")
        self[value] = number = parse_rational(value)
        return number

    def matrix(self, data, rows: int, cols: int, what: str) -> tuple[tuple[Fraction, ...], ...]:
        # Not _require: it would format the message for every row, valid or not.
        if not isinstance(data, list) or len(data) != rows:
            raise FormatError(f"{what}: expected {rows} rows")
        get, zeros, out = self.__getitem__, None, []
        for row in data:
            if not isinstance(row, list) or len(row) != cols:
                raise FormatError(f"{what}: expected {cols} columns")
            if zeros is None:  # built once a row of this width is read, not from a dim alone
                zeros, zero = ["0"] * cols, compiled(_zeros, (cols,))
            try:  # a zero row, found in one comparison in C, is the shared one ``scaled`` skips
                out.append(zero if row == zeros else tuple(map(get, row)))
            except TypeError:  # an unhashable entry; the entries before it are valid
                for x in row:
                    self.__missing__(x)
                raise
        return tuple(out)

    def array(self, data, dims: tuple, what: str, like=None) -> tuple:
        """The entries of ``data``, an array of ``dims``, and the array its tensor keeps:
        ``like``'s own when the dims are ``like``'s and ``data`` equals its array (one
        comparison, in C), else what was read."""
        if like is not None and dims == like.shape and data == like.array:
            return getattr(like, like._nested), like.array
        if len(dims) == 2:
            return self.matrix(data, *dims, what), data
        if not isinstance(data, list) or len(data) != dims[0]:
            raise FormatError(f"{what}: expected {dims[0]} planes")
        return tuple([self.matrix(plane, *dims[1:], what) for plane in data]), data


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


class _Array:
    """A tensor field: its class; its shape and its constructor's arguments after the entries,
    named by earlier fields (``base.dim``: the base's dim), or a shape as a function of those
    arguments; the base tensor whose equal array it shares; and what each variant carries."""

    def __init__(self, cls, shape, args="", like=None, only=None):
        self.cls, self.args, self.like, self.only = cls, tuple(args.split()), like, only
        self.shape = shape if callable(shape) else tuple(shape.split())


class Kind:
    """A structure kind: its wire kind, its noun, its module's ``VERBS`` (None if it has no
    laws), and its fields in wire order as ``(wire key, attribute, read)``.  ``read`` is
    ``int`` for a dim, ``bool`` for a boolean, a structure type for the name of a base entry
    of that type, a string for the variant (naming it in errors), or an ``_Array``; a None
    attribute is the structure itself.  ``suites`` holds the ids ``--suite all`` runs, by
    variant; ``base`` is the field naming the base entry, and ``variant`` the attribute
    ``suites`` is keyed by, if any."""

    def __init__(self, wire: str, noun: str | None, verbs: dict | None, fields: tuple):
        self.wire, self.noun, self.verbs, self.fields = wire, noun, verbs, fields
        self.keys = frozenset(["kind", *[key for key, _, _ in fields]])
        self.suites = verbs and verbs["suites"]
        self.base = next((key for key, _, read in fields
                          if isinstance(read, type) and read not in (int, bool)), None)
        self.variant = next((attribute for _, attribute, read in fields if isinstance(read, str)), None)


_COACTION = "dim base.dim dim", "base.dim dim"  # shape, arguments
TYPES = {
    HomAlgebra: Kind("hom_algebra", "algebra", _ALGEBRA, (
        ("dim", "dim", int),
        ("mul", "mu", _Array(MulTensor, "dim dim dim")),
        ("alpha", "alpha", _Array(LinearMap, "dim dim", "dim")),
    )),
    HomModule: Kind("hom_module", "module", _MODULE, (
        ("algebra", "algebra", HomAlgebra),
        ("side", "side", "side"),
        ("dim", "dim_mod", int),
        ("beta", "beta", _Array(LinearMap, "dim dim", "dim", "alpha")),
        ("action", "action", _Array(ActionTensor, action_shape, "base.dim dim side", "mu")),
    )),
    HomPoissonCoalgebra: Kind("hom_poisson_coalgebra", "coalgebra", _COALGEBRA, (
        ("dim", "dim", int),
        ("delta", "delta", _Array(ComulTensor, "dim dim dim")),
        ("gamma", "gamma", _Array(ComulTensor, "dim dim dim")),
        ("alpha", "alpha", _Array(LinearMap, "dim dim", "dim")),
        ("cocommutative", "cocommutative_expected", bool),
    )),
    HomComodule: Kind("hom_comodule", "comodule", _COMODULE, (
        ("coalgebra", "coalgebra", HomPoissonCoalgebra),
        ("structure", "kind", "comodule structure"),
        ("dim", "dim_mod", int),
        ("beta", "beta", _Array(LinearMap, "dim dim", "dim", "alpha")),
        ("delta_m", "delta_m", _Array(CoactionTensor, *_COACTION, "delta", COACTIONS)),
        ("gamma_m", "gamma_m", _Array(CoactionTensor, *_COACTION, "gamma", COACTIONS)),
    )),
    LinearMap: Kind("linear_map", None, None, (
        ("dim_in", "dim_in", int),
        ("dim_out", "dim_out", int),
        ("matrix", None, _Array(LinearMap, "dim_out dim_in", "dim_in")),
    )),
}
"""Each structure type -> its ``Kind``, which ``parse_bytes`` and ``serialize`` read, and
from which ``axioms`` and ``cli`` build their dispatch tables."""
_BY_WIRE = {kind.wire: cls for cls, kind in TYPES.items()}


def _read(name: str, entry: dict, numerals: _Numerals, structures: dict, base_of: dict):
    """Read ``entry`` into ``structures[name]``, field by field in wire order."""
    cls = _BY_WIRE[entry["kind"]]
    kind, named = TYPES[cls], {}
    for key, attribute, read in kind.fields:
        value = entry.get(key)
        if isinstance(read, _Array):
            if read.only is not None and key not in read.only[variant]:
                _require(key not in entry, f"{name}: {key} not allowed for this kind")
            else:
                args = tuple(map(named.__getitem__, read.args))
                dims = (read.shape(*args) if callable(read.shape)
                        else tuple(map(named.__getitem__, read.shape)))
                like = read.like and getattr(base, read.like)
                entries, data = numerals.array(value, dims, name, like)
                value = read.cls(entries, *args)
                vars(value)["array"] = data  # the array it was read from
        elif read is int:
            _require(type(value) is int and value >= 0, f"{name}: bad dim")
        elif read is bool:
            _require(isinstance(value, bool), f"{name}: {key} must be a boolean")
        elif isinstance(read, str):
            _require(isinstance(value, str) and value in kind.suites, f"{name}: bad {read} {value!r}")
            variant = value
        else:
            _require(isinstance(value, str), f"{name}: missing {key} reference")
            base = structures.get(value)
            _require(isinstance(base, read), f"{name}: {key} {value!r} not found")
            value, named["base.dim"], base_of[name] = base, base.dim, value
        named[key] = value
    if not entry.keys() <= kind.keys:  # writing would drop the key: two files, one structure file
        raise FormatError(f"{name}: unknown key {min(entry.keys() - kind.keys)!r}")
    built = {attribute: named[key] for key, attribute, _ in kind.fields}
    structures[name] = built[None] if None in built else cls(**built)


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
    _require(isinstance(raw, dict), "missing structures map")

    structures, base_of, pending = {}, {}, []
    numerals = _Numerals({"0": _ZERO})  # the grammar's one spelling of zero

    for name, entry in raw.items():
        _require(isinstance(name, str) and name != "", _NAMES)
        _require(isinstance(entry, dict), f"{name}: entry must be an object")
        kind = entry.get("kind")
        _require(isinstance(kind, str) and kind in _BY_WIRE, f"{name}: unknown kind {kind!r}")
        if TYPES[_BY_WIRE[kind]].base is None:
            _read(name, entry, numerals, structures, base_of)
        else:  # read once every entry it may live over is
            pending.append((name, entry))
    for name, entry in pending:
        _read(name, entry, numerals, structures, base_of)
    if not doc.keys() <= {"version", "structures"}:
        raise FormatError(f"top level: unknown key {min(doc.keys() - {'version', 'structures'})!r}")

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


def _join(texts: list, quote: str = "") -> str:
    """The JSON text of an array of ``texts``, each in ``quote``s: numerals need no escapes."""
    return f"[{quote}{(quote + ',' + quote).join(texts)}{quote}]" if texts else "[]"


def _text(tensor: _Tensor) -> str:
    """The JSON text of ``tensor``'s array.  A parsed tensor's is joined anew from the
    array it was read from (``array``, kept for the base comparison) and not kept.  A
    built tensor's is formatted once and kept (``text``): ``"0"`` for each ``_ZERO``
    and one text for every shared zero row, both picked out in C, and
    ``format_rational`` of each other entry, joined row by row."""
    held = vars(tensor)
    if "array" in held:
        return _nest(list(map(_join, tensor._rows(held["array"]), repeat('"'))), tensor.shape, _join)
    if "text" not in held:
        rows, width = tensor._rows(), tensor.shape[-1]
        live = list(map(is_not, rows, repeat(rows and compiled(_zeros, (width,)))))
        flat = list(chain.from_iterable(compress(rows, live)))
        out = ["0"] * len(flat)
        written = list(map(is_not, flat, repeat(_ZERO)))
        for i, x in zip(compress(count(), written), compress(flat, written)):
            out[i] = format_rational(x)
        texts = [_join(["0"] * width, '"')] * len(rows) if rows else []
        for k, i in enumerate(compress(count(), live)):
            texts[i] = _join(out[k * width : (k + 1) * width], '"')
        held["text"] = _nest(texts, tensor.shape, _join)
    return held["text"]


def _json(value) -> str:
    """The JSON text of a string (by ``_ENCODER``), or of a dim or a flag (by ``str``)."""
    return _ENCODER.encode(value) if isinstance(value, str) else str(value).lower()


def _entry_text(name: str, structure, sf: StructureFile, dump) -> str:
    if type(structure) not in TYPES:
        raise FormatError(f"{name}: cannot serialize {type(structure).__name__}")
    kind = TYPES[type(structure)]
    parts = [f'{{"kind":"{kind.wire}"']
    for key, attribute, _ in kind.fields:
        value = structure if attribute is None else getattr(structure, attribute)
        if key == kind.base:
            value = _base_name(name, value, sf)
        elif value is None:
            continue
        parts.append(f'"{key}":{dump(value) if isinstance(value, _Tensor) else _json(value)}')
    return ",".join(parts) + "}"


def serialize(sf: StructureFile) -> bytes:
    _require(all(isinstance(name, str) and name for name in sf.structures), _NAMES)  # as the reader
    for name in sf.base_of.values():
        if name not in sf.structures:
            raise FormatError(f"dangling reference to {name!r}")
    written: dict[tuple, str] = {}  # (id of an entry tuple, shape): its text

    def dump(tensor) -> str:
        key = id(getattr(tensor, tensor._nested)), tensor.shape
        if key not in written:
            written[key] = _text(tensor)
        return written[key]

    entries = [_json(name) + ":" + _entry_text(name, sf.structures[name], sf, dump)
               for name in sorted(sf.structures)]
    text = f'{{"version":{_json(sf.version)},"structures":{{{",".join(entries)}}}}}\n'
    return text.encode("utf-8")


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
