"""Exact rational vectors, linear maps, and structure-constant tensors.

Everything downstream reduces to contractions of these tensors, so the basis
conventions are pinned here once:

* ``LinearMap`` entries ``a[i][j]``: the image of basis vector ``e_j`` is
  ``sum_i a[i][j] e_i`` (columns are images of basis vectors).
* ``MulTensor`` entries ``c[i][j][k]``: ``mul(e_i, e_j) = sum_k c[i][j][k] e_k``
  (input indices first, output index last).
* ``ComulTensor`` entries ``d[k][i][j]``: ``comul(e_k) = sum d[k][i][j]
  e_i @ e_j`` (element index first).
* ``ActionTensor``, side ``left``: ``a[i][p][q]`` with ``act(e_i, f_p) =
  sum_q a[i][p][q] f_q``; side ``right`` puts the module index first,
  ``a[p][i][q]`` with ``act(f_p, e_i) = sum_q a[p][i][q] f_q``.
* ``CoactionTensor`` entries ``g[p][i][q]``: the coaction of ``f_p`` is
  ``sum g[p][i][q] e_i @ f_q``.
* Tensor squares and cubes are flattened lexicographically: ``e_i @ e_j``
  sits at flat index ``i*n + j``, and ``e_i @ e_j @ e_k`` at ``i*n*n + j*n + k``
  (with the middle/last factor sizes adjusted for mixed products).

Maps and tensors share one mixin, ``_Tensor``, that states their shape guard,
freezing (``from_entries``) and zeros once; each is also a ``Record``, the
frozen base of every value type of the package.  They expose ``shape`` (axis
sizes in the index order above) and ``scaled``, their one integer reading:
the nonzero entries times the lcm ``s`` of their denominators, as ``{index
tuple: int}``, with ``s`` kept beside them.  That is the form ``contract``,
the one exact contraction every law check and construction goes through,
works on; a check divides ``s`` back out only for its reported witnesses, a
construction once per nonzero output entry.  Nothing here evaluates a map or
tensor at a point: the test oracle does that with loops of its own.

Entries are exact rationals (``fractions.Fraction``).  Zero entries are best
the one shared ``_ZERO``: ``rat``, so every ``from_entries``, ``from_rows``
and ``diagonal``, returns it for every zero, ``fileformat`` parses every
``"0"`` to it, and ``zero``, ``identity`` and contractions fill
with it; a zero row is best the one shared row of its width, which
``from_entries``, ``zero``, ``fileformat`` and ``laws.construct`` make of each.
``scaled`` picks out the other rows and entries in C, so a zero costs no Python
call; another ``Fraction(0)`` or zero row is still dropped, only more slowly.

One or two axes of an operand can also be ``pack``-ed into fixed-width
slots of a single ``int``, so that ``contract``'s Python-level multiply-adds
each act on a whole vector of coefficients inside CPython's bignum code;
``unpack`` reads the slots back.  No floating point enters the kernel, so
every identity check is an exact zero test.  All values are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import re
import sys
from collections import defaultdict
from dataclasses import FrozenInstanceError, dataclass, fields
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from itertools import chain, compress, product, repeat
from operator import attrgetter, floordiv, is_not, itemgetter, mul
from reprlib import recursive_repr

from .errors import DimensionMismatch, FormatError, WrongSide

_ZERO = Fraction(0)
_ONE = Fraction(1)
_NUMERATOR, _DENOMINATOR = attrgetter("_numerator"), attrgetter("_denominator")  # as ``rat``

_RATIONAL_RE = re.compile(r"(-?(?:0|[1-9][0-9]*))(?:/([1-9][0-9]*))?")


def rat(value) -> Fraction:
    """Coerce an int, string, or Fraction to an exact Fraction, ``_ZERO`` for every zero."""
    kind = type(value)
    if kind is Fraction:
        return value if value._numerator else _ZERO  # the slot: no Python-level call
    if kind is int and not value:
        return _ZERO
    if not isinstance(value, (Fraction, int, str)):
        raise TypeError(f"cannot interpret {value!r} as a rational")
    value = Fraction(value)
    return value if value else _ZERO


def parse_rational(text: str) -> Fraction:
    """Parse the wire form ``p`` or ``p/q``.

    The denominator must be at least 2 (write an integer bare) and the
    fraction already in lowest terms; anything else is rejected so that
    files round-trip byte-exactly.
    """
    m = _RATIONAL_RE.fullmatch(text)
    if m is None or m.group(1) == "-0" or m.group(2) == "1":
        raise FormatError(f"malformed rational {text!r}")
    try:
        num = int(m.group(1))
        den = 1 if m.group(2) is None else int(m.group(2))
    except ValueError as exc:  # more digits than int() converts
        raise FormatError(f"rational numeral is too long: {exc}") from None
    if den == 1:
        return Fraction(num)
    if gcd(abs(num), den) != 1:
        raise FormatError(f"rational {text!r} is not in lowest terms")
    return Fraction(num, den)


def format_ratio(num: int, den: int) -> str:
    """Canonical wire form of ``num / den`` (``den > 0``): ``p/q`` in lowest
    terms with q > 1, bare ``p`` otherwise.

    A term with more decimal digits than CPython converts to text
    (``sys.get_int_max_str_digits()``, 4,300 by default) is a
    ``FormatError``, as such a numeral is on input.
    """
    try:
        if den == 1:
            return str(num)
        g = gcd(num, den)
        if g == den:
            return str(num // den)
        return f"{num // g}/{den // g}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise FormatError(f"a rational term has more than {limit} digits to write") from None


def format_rational(value: Fraction) -> str:
    """Wire form of an entry: a Fraction's or int's own ``str``, else ``format_ratio``'s."""
    if type(value) is Fraction or type(value) is int:
        try:
            return str(value)
        except ValueError:  # a term too long for str: format_ratio raises its FormatError
            pass
    return format_ratio(value.numerator, value.denominator)


def _zeros(shape) -> tuple:
    """Nested entry tuples of ``shape``, every entry ``_ZERO`` and every row the shared one."""
    nested = (_ZERO,) * shape[-1] if len(shape) == 1 else compiled(_zeros, shape[-1:])
    for size in reversed(shape[:-1]):
        nested = (nested,) * size
    return nested


def _row(entries) -> tuple:
    """``entries`` made ``Fraction``s by ``rat``: the shared zero row when all are ``_ZERO``."""
    row = tuple(map(rat, entries))
    if (row and row[0] is not _ZERO) or any(map(is_not, row, repeat(_ZERO))):  # no scan, mostly
        return row
    return compiled(_zeros, (len(row),))


def _nest(rows: list, shape: tuple, wrap=tuple):
    """``rows`` along the last axis of ``shape``, in order, nested by ``wrap`` over the others."""
    for axis in range(len(shape) - 2, -1, -1):
        size = shape[axis]
        rows = [wrap(rows[i * size : (i + 1) * size]) for i in range(prod(shape[:axis]))]
    return rows[0]


def _row_keys(shape) -> list:
    """The index tuples of ``shape``, one tuple of them per row along the last axis."""
    # product reads every range whole first: a shape with an empty axis has no key, so skip it
    keys, width = list(product(*map(range, shape))) if 0 not in shape else [], shape[-1]
    return [tuple(keys[i * width : (i + 1) * width]) for i in range(prod(shape[:-1]))]


class lazy:
    """An attribute computed on first read into the instance ``__dict__``, where later
    reads find it; unlike the standard cached property before Python 3.12, with no lock."""

    def __init__(self, compute):
        self.compute, self.name, self.__doc__ = compute, compute.__name__, compute.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


_set = object.__setattr__  # how a record's ``__init__`` stores each of its fields


class Record:
    """A frozen record of the fields its subclass annotates, with the methods
    ``dataclass(frozen=True)`` would generate for it, written once.

    Subclassing declares the annotated fields in order as dataclass fields,
    generating no method, so ``dataclasses.fields``, ``replace`` and
    ``__match_args__`` read them (a subclass has a docstring, or ``dataclass``
    would write one).  Equality (same class, equal fields in order), hashing
    and ``repr`` read the fields; assigning or deleting an attribute raises
    ``FrozenInstanceError``.  Each record has its own ``__init__``, which
    checks its arguments and stores each field with ``_set``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        dataclass(init=False, repr=False, eq=False)(cls)
        cls._fields = tuple([f.name for f in fields(cls)])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    @recursive_repr()
    def __repr__(self):
        values = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({values})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class _Tensor:
    """What every map and structure tensor shares: its shape guard, freezing, zeros,
    and its integer reading, built once: a mixin, so it declares no field.

    A subclass lists ``Record`` after it among its bases, names the field
    holding its nested entry tuples in ``_nested``, their depth in ``_axes`` and
    the ``DimensionMismatch`` texts for a wrong first and a wrong later axis in
    ``_misfit`` (formatted with the tensor; None where its entries size that
    axis), gives ``shape``, and ends its ``__init__`` with ``_check_shape``.
    """

    _nested: str
    _axes: int
    _misfit: tuple = (None, None)

    def _check_shape(self):
        # The guard for a tensor however built; ``fileformat`` checks first only to
        # name the entry and axis in its error.  ~14 us for a cube at n = 16.
        level = (getattr(self, self._nested),)
        for axis, size in enumerate(self.shape):
            if axis:
                level = list(chain.from_iterable(level))
            if set(map(len, level)) - {size}:
                raise DimensionMismatch(self._misfit[min(axis, 1)].format(self))

    @classmethod
    def from_entries(cls, entries, *fields):
        """The tensor of ``fields`` whose entries, nested ``_axes`` deep, are made
        ``Fraction``s by ``rat``, each zero row the shared one (``_row``)."""
        freeze = _row
        for _ in range(cls._axes - 1):
            freeze = lambda rows, inner=freeze: tuple(map(inner, rows))
        return cls(freeze(entries), *fields)

    def _rows(self, nested=None) -> list:
        """Every row along the last axis of the entries, or of ``nested``, in index order."""
        rows = (getattr(self, self._nested) if nested is None else nested,)
        for _ in self.shape[1:]:
            rows = chain.from_iterable(rows)
        return list(rows)

    @lazy
    def scaled(self) -> tuple[int, dict[tuple[int, ...], int], int]:
        """``(s, {index tuple: s * entry}, bits)`` over the nonzero entries, ``s`` the
        lcm of their denominators.

        Read in C over the rows other than the shared zero row and their entries
        other than ``_ZERO``, keyed from ``_row_keys``; any other zero is dropped
        after.  ``bits`` is the bit length of the largest scaled entry's absolute
        value (0 when there are none), from which ``laws.Law`` bounds its slots.
        """
        rows, shape = self._rows(), self.shape
        live = list(map(is_not, rows, repeat(rows and compiled(_zeros, shape[-1:]))))
        flat = list(chain.from_iterable(compress(rows, live)))
        candidate = list(map(is_not, flat, repeat(_ZERO)))
        values = list(compress(flat, candidate))
        try:
            denominators = list(map(_DENOMINATOR, values))
        except AttributeError:  # an int put straight into a constructor has no slots
            values = list(map(Fraction, values))
            denominators = list(map(_DENOMINATOR, values))
        s = lcm(*denominators)
        scaled = map(_NUMERATOR, values)
        if s != 1:
            scaled = map(mul, scaled, map(floordiv, repeat(s), denominators))
        keys = chain.from_iterable(compress(compiled(_row_keys, shape), live))
        entries = dict(zip(compress(keys, candidate), scaled))
        if 0 in entries.values():  # another zero than _ZERO
            entries = {key: x for key, x in entries.items() if x}
        return s, entries, max(map(abs, entries.values()), default=0).bit_length()

    def is_identity(self) -> bool:
        return self._identity

    @lazy
    def _identity(self) -> bool:
        """Whether this is a square identity matrix, read once from ``scaled`` in O(n)."""
        n, *rest = self.shape
        return rest == [n] and self.scaled[:2] == (1, {(i, i): 1 for i in range(n)})

    @lazy
    def ident(self) -> tuple:
        """``(id of the entry tuple, shape)``, which fix ``scaled``, the id being None
        for an identity map, whose shape fixes it: a ``laws.Plan`` numbers its
        operands by it, so a regular module's action is its algebra's
        multiplication, and every identity map of a shape is one operand."""
        return None if self.is_identity() else id(getattr(self, self._nested)), self.shape


class Vector(_Tensor, Record):
    """Element of K^n with exact rational coordinates."""

    entries: tuple[Fraction, ...]
    _nested, _axes = "entries", 1

    def __init__(self, entries):
        _set(self, "entries", entries)
        self._check_shape()

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def shape(self) -> tuple[int]:
        return (self.dim,)

    @classmethod
    def zero(cls, dim: int) -> "Vector":
        return cls(compiled(_zeros, (dim,)))


class LinearMap(_Tensor, Record):
    """Matrix of a linear map K^dim_in -> K^dim_out; column j is the image of e_j.

    ``dim_in`` defaults to the row width; give it when there are no rows.
    """

    entries: tuple[tuple[Fraction, ...], ...]
    dim_in: int
    _nested, _axes, _misfit = "entries", 2, (None, "matrix rows are not all {0.dim_in} wide")

    def __init__(self, entries, dim_in=None):
        _set(self, "entries", entries)
        _set(self, "dim_in", max(map(len, entries), default=0) if dim_in is None else dim_in)
        self._check_shape()

    @property
    def dim_out(self) -> int:
        return len(self.entries)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim_out, self.dim_in)

    @classmethod
    def from_rows(cls, rows, dim_in: int | None = None) -> "LinearMap":
        return cls.from_entries(rows, dim_in)

    @classmethod
    def identity(cls, dim: int) -> "LinearMap":
        return cls(tuple(tuple(_ONE if i == j else _ZERO for j in range(dim)) for i in range(dim)))

    @classmethod
    def zero(cls, dim_out: int, dim_in: int) -> "LinearMap":
        return cls(_zeros((dim_out, dim_in)), dim_in)

    @classmethod
    def diagonal(cls, values) -> "LinearMap":
        vals = list(values)
        return cls.from_entries([[x if i == j else 0 for j in range(len(vals))]
                                 for i, x in enumerate(vals)], len(vals))

    def is_square(self, dim: int) -> bool:
        return self.dim_in == dim and self.dim_out == dim


class _SquareCube(_Tensor):
    """A structure tensor of shape n x n x n on K^n."""

    _axes = 3

    @property
    def dim(self) -> int:
        return len(getattr(self, self._nested))

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.dim,) * 3

    @classmethod
    def zero(cls, dim: int):
        return cls(_zeros((dim,) * 3))


class MulTensor(_SquareCube, Record):
    """Structure constants of a bilinear multiplication on K^n."""

    c: tuple[tuple[tuple[Fraction, ...], ...], ...]
    _nested, _misfit = "c", (None, "multiplication tensor is not n x n x n")

    def __init__(self, c):
        _set(self, "c", c)
        self._check_shape()


class ComulTensor(_SquareCube, Record):
    """Structure constants of a comultiplication K^n -> K^n @ K^n."""

    d: tuple[tuple[tuple[Fraction, ...], ...], ...]
    _nested, _misfit = "d", (None, "comultiplication tensor is not n x n x n")

    def __init__(self, d):
        _set(self, "d", d)
        self._check_shape()


def action_shape(dim_alg: int, dim_mod: int, side: str) -> tuple[int, int, int]:
    """The shape of a ``side`` action of a dim_alg algebra on a dim_mod module."""
    return (dim_alg, dim_mod, dim_mod) if side == "left" else (dim_mod, dim_alg, dim_mod)


class ActionTensor(_Tensor, Record):
    """Structure constants of a module action, sided as documented above."""

    a: tuple[tuple[tuple[Fraction, ...], ...], ...]
    dim_alg: int
    dim_mod: int
    side: str
    _nested, _axes = "a", 3
    _misfit = ("action tensor first index has wrong size",
               "action tensor shape does not match side convention")

    def __init__(self, a, dim_alg, dim_mod, side):
        if side not in ("left", "right"):
            raise WrongSide(f"unknown side {side!r}")
        _set(self, "a", a)
        _set(self, "dim_alg", dim_alg)
        _set(self, "dim_mod", dim_mod)
        _set(self, "side", side)
        self._check_shape()

    @property
    def shape(self) -> tuple[int, int, int]:
        return action_shape(self.dim_alg, self.dim_mod, self.side)

    @classmethod
    def zero(cls, dim_alg: int, dim_mod: int, side: str = "left") -> "ActionTensor":
        return cls(_zeros(action_shape(dim_alg, dim_mod, side)), dim_alg, dim_mod, side)


class CoactionTensor(_Tensor, Record):
    """Structure constants of a coaction M -> C @ M."""

    g: tuple[tuple[tuple[Fraction, ...], ...], ...]
    dim_coalg: int
    dim_mod: int
    _nested, _axes = "g", 3
    _misfit = ("coaction tensor first index has wrong size", "coaction tensor is not m x n x m")

    def __init__(self, g, dim_coalg, dim_mod):
        _set(self, "g", g)
        _set(self, "dim_coalg", dim_coalg)
        _set(self, "dim_mod", dim_mod)
        self._check_shape()

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.dim_mod, self.dim_coalg, self.dim_mod)

    @classmethod
    def zero(cls, dim_coalg: int, dim_mod: int) -> "CoactionTensor":
        return cls(_zeros((dim_mod, dim_coalg, dim_mod)), dim_coalg, dim_mod)


@lru_cache(maxsize=512)
def compiled(build, *key):
    """``build(*key)``, worked out once per process while ``key`` is among the 512
    most recently used: the one cache of what a contraction spec fixes (``_compile``),
    a law with its operand numbers and identity maps (``laws._row``), a check's rows
    (``laws._program``), a permutation's spread (``laws._spread``) or a construction's
    term (``laws._reading``) with its operands' shapes, and of each width's
    shared zero row (``_zeros``), each shape's row keys (``_row_keys``) and each slot count
    and width's ``unpack`` layout (``_slot_layout``).  Keys hold laws, letters, operand
    numbers, names, shapes and slot counts and widths, never entry values."""
    return build(*key)


def _tuple_of(letters: str, chosen: str):
    """Function taking a key over ``letters`` to the tuple of its ``chosen`` letters, in C."""
    positions = [letters.index(c) for c in chosen]
    if len(positions) > 1:
        return itemgetter(*positions)
    return itemgetter(slice(positions[0], positions[0] + 1) if positions else slice(0, 0))


def _join_key(letters: str, shared: str):
    """Function taking a key over ``letters`` to its join key on ``shared``.

    Both sides of a join use the same form: a bare index for one shared
    letter, a tuple otherwise.
    """
    if not shared:
        return itemgetter(slice(0, 0))
    return itemgetter(*[letters.index(c) for c in shared])


def _joins(spec: str) -> tuple[list, str, str]:
    """How ``contract`` carries letters through the joins of ``spec``.

    Returns one ``(left, right, shared, keep, new)`` per joined operand (the
    letters of the left side and of the right operand, the letters joined
    on, the left letters kept and the right letters added), the letters
    left after the last join, and the output.  A letter is kept while a
    later operand or the output still needs it.
    """
    inputs, out = spec.split("->")
    operands = inputs.split(",")
    letters = operands[0]
    joins = []
    for t, right in enumerate(operands[1:], 1):
        later = set(out).union(*operands[t + 1 :])
        shared = "".join(c for c in letters if c in right)
        keep = "".join(c for c in letters if c in later)
        new = "".join(c for c in right if c not in letters and c in later)
        joins.append((letters, right, shared, keep, new))
        letters = keep + new
    if not set(out) <= set(letters) or any(len(set(x)) != len(x) for x in operands + [out]):
        raise ValueError(f"bad contraction spec {spec!r}")
    return joins, letters, out


def _compile(spec: str) -> tuple:
    """Plan for ``contract``: one step per joined operand, and the sink places.

    A step holds the left join key, the left letters kept (None: all), the
    right join key and the right letters kept.  The sink places give, for
    each letter of the last join's left key and of its right operand's key
    (of a lone operand's key, with no right), that letter's place in the
    output, or -1 where it is joined on or summed.
    """
    joins, letters, out = _joins(spec)
    steps = [
        (
            _join_key(left, shared),
            None if keep == left else _tuple_of(left, keep),
            _join_key(right, shared),
            _tuple_of(right, new),
        )
        for left, right, shared, keep, new in joins
    ]
    left, right, _, keep, new = joins[-1] if joins else (letters, "", "", out, "")
    places = [tuple(out.index(c) if c in chosen else -1 for c in side)
              for side, chosen in ((left, keep), (right, new))]
    return steps, places


def offsets(spec: str, strides: tuple[int, ...]) -> list:
    """The sink offsets ``contract`` adds ``spec``'s output into a list at ``strides`` by:
    a function of the last join's left key, and one of its right operand's key."""
    places = compiled(_compile, spec)[1]
    return [_offset([0 if p < 0 else strides[p] for p in side]) for side in places]


def _offset(steps: list[int]):
    """Function taking a key to ``sum key[i] * steps[i]``, spelled out for up to three
    nonzero steps: it runs once per entry added."""
    used = [(i, s) for i, s in enumerate(steps) if s]
    if len(used) == 1:
        ((i, s),) = used
        return itemgetter(i) if s == 1 else lambda key: key[i] * s
    if len(used) == 2:
        (i, s), (j, t) = used
        return lambda key: key[i] * s + key[j] * t
    if len(used) == 3:
        (i, s), (j, t), (k, u) = used
        return lambda key: key[i] * s + key[j] * t + key[k] * u
    return lambda key: sum(map(mul, key, steps))


def contract(spec: str, *tensors: dict, into: tuple) -> None:
    """Exact einsum over nonzero entries, added into a list:
    ``contract("ij,jk->ik", f, g, into=(sink, offsets("ij,jk->ik", (n, 1)), 1))`` adds
    the matrix product of ``f`` and ``g``, ``n`` columns wide, into ``sink`` row by row.

    Operands are ``{index tuple: value}`` maps of nonzero entries, only read.
    Values are ``int``; a ``pack``-ed operand's values are ints whose packed
    axes ride along through every product and sum.  Operands are joined
    pairwise in the order the spec lists them, and a letter is summed over as
    soon as no later operand and not the output needs it.  A join whose
    factor and right values are all +-1 adds or subtracts each left value with
    no multiply; any other join groups the right entries by join key.  Plans
    are compiled once per spec (``compiled``).

    ``into`` is ``(sink, offsets(spec, strides), factor)``: the last join adds
    ``factor`` times the entry at output key ``k`` into the list ``sink`` at
    ``sum_i k[i] * strides[i]``, building no key tuple and no dict;
    ``factor`` is multiplied into the right operand's values (a lone
    operand's own) before the join.  A lone operand's letters missing from the
    output are summed in the sink.
    """
    steps, _ = compiled(_compile, spec)
    if not all(tensors):  # a product with an empty operand is empty
        return
    acc = tensors[0]
    sink, (head_at, tail_at), factor = into
    if not steps:
        for key, v in acc.items():
            sink[head_at(key)] += factor * v
        return
    for t, (step, right) in enumerate(zip(steps, tensors[1:]), 1):
        left_join, left_keep, right_join, right_keep = step
        out, f = defaultdict(int), 1
        if t == len(steps):
            out, left_keep, right_keep, f = sink, head_at, tail_at, factor
        if (f == 1 or f == -1) and all(map({1, -1}.__contains__, right.values())):
            units = defaultdict(lambda: ([], []))  # join key: tails weighted +1, tails weighted -1
            for key, w in right.items():
                units[right_join(key)][w != f].append(right_keep(key))
            for key, v in acc.items():
                group = units.get(left_join(key))
                if group is not None:
                    head = key if left_keep is None else left_keep(key)
                    plus, minus = group
                    for tail in plus:
                        out[head + tail] += v
                    for tail in minus:
                        out[head + tail] -= v
            acc = out
            continue
        groups: dict = {}
        for key, w in right.items():
            join, entry = right_join(key), (right_keep(key), w if f == 1 else f * w)
            if join in groups:
                groups[join].append(entry)
            else:
                groups[join] = [entry]
        for key, v in acc.items():
            group = groups.get(left_join(key))
            if group is not None:
                head = key if left_keep is None else left_keep(key)
                for tail, w in group:
                    out[head + tail] += v * w
        acc = out


def packing(arity: int, axes: tuple[tuple[int, int], ...]) -> tuple:
    """How ``pack`` moves ``axes`` out of keys of ``arity`` axes, worked out once.

    ``axes`` holds an ``(axis, letter)`` pair for each of the one or two
    packed axes, letter 0 first.  Returns one pass per axis, the last pair
    first: ``(axis, letter, lo, hi, getter)`` over the keys earlier passes
    left, the key left being ``key[lo:hi]`` when the kept axes are
    contiguous (getter None), so no call is made per key, and
    ``getter(key)`` otherwise.
    """
    passes, left = [], list(range(arity))
    for axis, letter in reversed(axes):
        at = left.index(axis)
        kept = [p for p in range(len(left)) if p != at]
        lo, hi = (kept[0], kept[-1] + 1) if kept else (0, 0)
        passes.append((at, letter, lo, hi, None if hi - lo == len(kept) else itemgetter(*kept)))
        left.remove(axis)
    return tuple(passes)


def pack(entries: dict, layout: tuple, steps) -> dict:
    """``entries`` with one or two axes moved into the slots of one ``int``.

    ``layout`` is a ``packing`` of the axes; an ``(axis, letter)`` pair
    steps that axis by ``steps[letter]`` bits.  The key loses those axes
    and its value is the sum of the entries, each shifted left by its index
    times the step, summed over the packed axes: with one axis at step
    ``bits``, ``sum_o entries[..o..] << (o * bits)``, the entries read as
    polynomial coefficients evaluated at ``2**bits`` (Kronecker
    substitution); with axes ``x`` and ``y`` of sizes ``n_x`` and ``n_y`` at
    steps ``n_y * bits`` and ``bits``, entry ``(x, y)`` lands in slot ``x *
    n_y + y``.  Signed coefficients are fine: ``+`` and ``*`` by an unpacked
    ``int`` act on every slot at once, and a result whose coefficients all
    lie strictly between ``-2**(bits - 1)`` and ``2**(bits - 1)`` decodes
    exactly with ``unpack``.
    Two axes are packed one pass each, ``y`` first, so an add copies at most
    one row of slots: a key of ``S = n_x * n_y`` slots costs ``O(S * (n_x +
    n_y))`` slot copies, not ``O(S**2)``.
    """
    for a, x, lo, hi, rest in layout:
        out: dict = {}
        get, s = out.get, steps[x]
        for key, v in entries.items():
            r = key[lo:hi] if rest is None else rest(key)
            out[r] = get(r, 0) + (v << key[a] * s)
        entries = out
    return entries


def unpack(value: int, slots: int, bits: int) -> list[int]:
    """The ``slots`` coefficients of a packed ``value``, lowest slot first.

    Each slot is read as a balanced digit in ``[-2**(bits - 1), 2**(bits -
    1))``.  Adding ``2**(bits - 1)`` to every slot at once makes every digit
    nonnegative with no borrow between slots, so each is read off with one
    shift and mask and shifted back.  A shift copies what it shifts, so the
    value is first cut into blocks of 16 slots and each slot is shifted out
    of its block: reading 256 slots then moves ~16x fewer bits than
    shifting the whole value once per slot.
    """
    offset, mask, half, block_mask, blocks = compiled(_slot_layout, slots, bits)
    value += offset
    digits = []
    for start, shifts in blocks:
        chunk = value >> start & block_mask
        digits += [(chunk >> shift & mask) - half for shift in shifts]
    return digits


def _slot_layout(slots: int, bits: int) -> tuple:
    """``(sum_o 2**(bits - 1) << (o * bits), slot mask, 2**(bits - 1), block mask,
    blocks)``, a block being its first bit and its slots' shifts within it."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    offset = ((1 << (slots * bits)) - 1) // mask * half
    blocks = tuple(
        (first * bits, tuple(range(0, min(16, slots - first) * bits, bits)))
        for first in range(0, slots, 16)
    )
    return offset, mask, half, (1 << 16 * bits) - 1, blocks
