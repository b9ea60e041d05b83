import dataclasses
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homstruct.errors import DimensionMismatch, FormatError, WrongSide
from homstruct.exact import (
    _ZERO,
    ActionTensor,
    CoactionTensor,
    ComulTensor,
    LinearMap,
    MulTensor,
    Vector,
    _Tensor,
    _zeros,
    compiled,
    contract,
    format_rational,
    lazy,
    offsets,
    pack,
    packing,
    parse_rational,
    rat,
    unpack,
)
from homstruct.laws import _COMPOSITE, NEGATE, SWAP, compose, construct
from reference_eval import apply, column, flat
from reference_laws import contracted

small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=12)
nonzero_fractions = small_fractions.filter(lambda q: q != 0)


# --- rationals -------------------------------------------------------------

@pytest.mark.parametrize(
    "text,value",
    [("0", 0), ("7", 7), ("-3", -3), ("1/2", Fraction(1, 2)), ("-5/3", Fraction(-5, 3))],
)
def test_parse_rational_valid(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize(
    "text",
    ["1/0", "2/4", "1/-2", "-2/-4", "x", "+1", "1.5", "", "3/02", "007", "-0", "5/1", "-5/1", "0/1",
     "1\n", "1/3\n", "1\u0663"],
)
def test_parse_rational_rejects(text):
    with pytest.raises(FormatError):
        parse_rational(text)


def test_format_round_trip():
    for q in (Fraction(0), Fraction(5), Fraction(-7, 3), Fraction(22, 7)):
        assert parse_rational(format_rational(q)) == q


@given(small_fractions, small_fractions, small_fractions)
def test_rational_addition_is_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(nonzero_fractions)
def test_rational_inverse_is_exact(a):
    assert a * (1 / a) == 1


# --- vectors and maps ------------------------------------------------------

def test_is_identity_is_read_from_scaled():
    f = LinearMap.from_rows([[1, 2], [3, 4]])
    # a zero of its own is no entry, 1/2 no 1
    ones = [LinearMap.identity(n) for n in range(4)]
    ones.append(LinearMap(((Fraction(2, 2), Fraction(0)), (_ZERO, Fraction(1))), 2))
    assert all(m.is_identity() for m in ones)
    others = [f, LinearMap.diagonal([1, 1, 2]), LinearMap.diagonal([Fraction(1, 2)] * 2),
              LinearMap.from_rows([[1, 0], [1, 1]]), LinearMap.from_rows([[1, 0, 0], [0, 1, 0]]),
              LinearMap.zero(2, 2), LinearMap.zero(0, 1), MulTensor.zero(1), Vector.from_entries([1])]
    assert not any(m.is_identity() for m in others)


def test_compose_matches_sequential_application():
    f = LinearMap.from_rows([[0, 1], [1, 0]])
    g = LinearMap.diagonal([2, 3])
    fg = compose(f, g)
    for j in range(2):
        assert column(fg.entries, j) == apply(f, column(g.entries, j))
    with pytest.raises(DimensionMismatch):
        compose(f, LinearMap.identity(3))


def test_maps_without_rows_keep_their_column_count():
    empty = LinearMap.zero(0, 3)
    assert (empty.dim_out, empty.dim_in) == (0, 3)
    assert LinearMap.from_rows([], 3) == empty != LinearMap.zero(0, 2)
    through_zero = compose(LinearMap.zero(2, 0), LinearMap.zero(0, 3))
    assert through_zero.shape == (2, 3) and through_zero == LinearMap.zero(2, 3)
    assert compose(empty, LinearMap.identity(3)).shape == (0, 3)
    with pytest.raises(DimensionMismatch):
        LinearMap.from_rows([[1, 2]], 3)


# --- leg permutations and Kronecker products, done by contract -------------

def cube_tensor(n):
    return {(i, j, l): i * 9 + j * 3 + l + 1 for i in range(n) for j in range(n) for l in range(n)}


def test_swap_map_dim_one_is_identity():
    t = {(0, 0): 5}
    assert contracted("ij->ji", t) == t


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_swap_map_squares_to_identity(n):
    t = {(i, j): i * n + j + 1 for i in range(n) for j in range(n)}
    assert contracted("ij->ji", contracted("ij->ji", t)) == t


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cyclic_map_cubes_to_identity(n):
    t = cube_tensor(n)
    rotate = lambda x: contracted("abc->cab", x)
    assert rotate(rotate(rotate(t))) == t


def test_cyclic_map_matches_index_rotation():
    # the rotation e_a @ e_b @ e_c -> e_c @ e_a @ e_b reindexes T[j][l][i]
    n = 3
    cube = cube_tensor(n)
    rotated = contracted("jli->ijl", cube)
    assert rotated == {(i, j, l): cube[j, l, i] for (i, j, l) in cube}


def kronecker(f: LinearMap, g: LinearMap) -> dict:
    m, s = g.dim_out, f.scaled[0] * g.scaled[0]
    return {
        (i * m + p, j * m + q): Fraction(v, s)
        for (i, p, j, q), v in contracted("ij,pq->ipjq", f.scaled[1], g.scaled[1]).items()
    }


def test_tensor_product_of_diagonals():
    f = LinearMap.diagonal([1, 2])
    g = LinearMap.diagonal([1, 3])
    assert kronecker(f, g) == {(0, 0): 1, (1, 1): 3, (2, 2): 2, (3, 3): 6}


@given(st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=40)
def test_tensor_product_on_basis_pairs(n, m, data):
    rows_f = data.draw(st.lists(st.lists(small_fractions, min_size=n, max_size=n), min_size=n, max_size=n))
    rows_g = data.draw(st.lists(st.lists(small_fractions, min_size=m, max_size=m), min_size=m, max_size=m))
    f, g = LinearMap.from_rows(rows_f), LinearMap.from_rows(rows_g)
    fg = kronecker(f, g)
    for i in range(n):
        fi = column(f.entries, i)
        for j in range(m):
            gj = column(g.entries, j)
            expected = tuple(a * b for a in fi for b in gj)
            assert tuple(fg.get((row, i * m + j), 0) for row in range(n * m)) == expected


@given(st.integers(1, 3), st.data())
@settings(max_examples=40)
def test_contract_matrix_product_matches_compose(n, data):
    square = st.lists(st.lists(small_fractions, min_size=n, max_size=n), min_size=n, max_size=n)
    f, g = LinearMap.from_rows(data.draw(square)), LinearMap.from_rows(data.draw(square))
    s = f.scaled[0] * g.scaled[0]
    product = {k: Fraction(v, s) for k, v in contracted("ij,jk->ik", f.scaled[1], g.scaled[1]).items() if v}
    entries = compose(f, g).entries
    assert product == {(i, k): x for i, row in enumerate(entries) for k, x in enumerate(row) if x}


def test_contract_sums_letters_dropped_from_the_output():
    t = {(0, 0): 1, (0, 1): 2, (1, 1): Fraction(1, 3)}
    assert contracted("ij->i", t) == {(0,): 3, (1,): Fraction(1, 3)}
    assert contracted("ij,j->i", t, {(1,): 3}) == {(0,): 6, (1,): 1}
    assert contracted("ij,k->ik", t, {}) == {}
    for bad in ("ij->ik", "ii->i", "ij->ii"):
        with pytest.raises(ValueError):
            contracted(bad, t)


# --- structure tensor shapes ------------------------------------------------

def dual_number_tensor():
    cube = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    cube[0][0][0] = 1
    cube[0][1][1] = 1
    cube[1][0][1] = 1
    return MulTensor.from_entries(cube)


def test_tensor_shape_validation():
    with pytest.raises(DimensionMismatch):
        MulTensor.from_entries([[[1, 0], [0, 0]]])
    with pytest.raises(DimensionMismatch):
        CoactionTensor.from_entries([[[1]]], 2, 1)


def _cube(d0, d1, d2, widths=None):
    """A zero cube whose last row has ``widths`` entries when given."""
    planes = [[[0] * d2 for _ in range(d1)] for _ in range(d0)]
    if widths is not None:
        planes[-1][-1] = [0] * widths
    return planes


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ActionTensor.from_entries(_cube(3, 3, 3), 2, 3, "left"),
         "action tensor first index has wrong size"),
        (lambda: ActionTensor.from_entries(_cube(2, 3, 3), 2, 3, "right"),
         "action tensor first index has wrong size"),
        (lambda: ActionTensor.from_entries(_cube(2, 2, 3), 2, 3, "left"),
         "action tensor shape does not match side convention"),
        (lambda: ActionTensor.from_entries(_cube(3, 3, 3), 2, 3, "right"),
         "action tensor shape does not match side convention"),
        (lambda: ActionTensor.from_entries(_cube(2, 3, 3, widths=2), 2, 3, "left"),
         "action tensor shape does not match side convention"),
        (lambda: ActionTensor.from_entries(_cube(3, 2, 3, widths=4), 2, 3, "right"),
         "action tensor shape does not match side convention"),
        (lambda: CoactionTensor.from_entries(_cube(2, 2, 3), 2, 3),
         "coaction tensor first index has wrong size"),
        (lambda: CoactionTensor.from_entries(_cube(3, 3, 3), 2, 3),
         "coaction tensor is not m x n x m"),
        (lambda: CoactionTensor.from_entries(_cube(3, 2, 3, widths=2), 2, 3),
         "coaction tensor is not m x n x m"),
        # straight through the constructors too: scaled and serialize read entries by shape
        (lambda: MulTensor(((("1", "2"),),)), "multiplication tensor is not n x n x n"),
        (lambda: MulTensor.from_entries(_cube(2, 2, 2, widths=1)),
         "multiplication tensor is not n x n x n"),
        (lambda: MulTensor.from_entries(_cube(2, 1, 2)), "multiplication tensor is not n x n x n"),
        (lambda: ComulTensor(tuple(map(tuple, _cube(1, 1, 0)))),
         "comultiplication tensor is not n x n x n"),
        (lambda: ComulTensor.from_entries(_cube(2, 2, 2, widths=3)),
         "comultiplication tensor is not n x n x n"),
        (lambda: LinearMap(((1, 2), (3,))), "matrix rows are not all 2 wide"),
        (lambda: LinearMap.from_rows([[1], [2, 3, 4]]), "matrix rows are not all 3 wide"),
        (lambda: LinearMap.from_rows([[1, 2], [3, 4]], 3), "matrix rows are not all 3 wide"),
    ],
)
def test_action_and_coaction_shape_errors(build, message):
    with pytest.raises(DimensionMismatch) as excinfo:
        build()
    assert str(excinfo.value) == message


@pytest.mark.parametrize("build", [lambda: ActionTensor.from_entries(_cube(2, 3, 3), 2, 3, "up"),
                                   lambda: ActionTensor.zero(1, 1, "up")])
def test_an_unknown_action_side_is_wrong_side(build):
    # the fault HomModule reports for an unknown side, with the same code
    with pytest.raises(WrongSide, match="^unknown side 'up'$"):
        build()


def test_mul_tensor_opposite_and_negation():
    t = dual_number_tensor()
    assert construct(SWAP, t=t)[1][0][1] == t.c[0][1][1]
    assert negated(t).c[0][0][0] == -1
    assert negated(negated(t)) == t


# --- nonzero entries and packed slots ------------------------------------------


def entry(*index) -> Fraction:
    """A deterministic mix of zeros, integers and fractions, both signs."""
    h = sum((i + 1) * 7 ** axis for axis, i in enumerate(index)) % 5
    return [Fraction(0), Fraction(3), Fraction(-1, 2), Fraction(0), Fraction(-4)][h]


def each_kind(n: int, value=entry, direct=False):
    """One tensor of every kind at dim n (module dims n and n + 1), entries from
    ``value``.  ``direct`` builds them straight through the constructors, which
    keep each entry object as given; ``from_entries`` and ``from_rows`` make
    every zero ``_ZERO``."""
    m = n + 1

    def cube(a, b, c):
        return tuple(tuple(tuple(value(i, j, k) for k in range(c)) for j in range(b)) for i in range(a))

    vector = tuple(value(i) for i in range(n))
    if direct:
        return [
            Vector(vector),
            LinearMap(cube(1, n, m)[0], m),
            LinearMap((), n),
            MulTensor(cube(n, n, n)),
            ComulTensor(cube(n, n, n)),
            ActionTensor(cube(n, m, m), n, m, "left"),
            ActionTensor(cube(m, n, m), n, m, "right"),
            CoactionTensor(cube(m, n, m), n, m),
        ]
    return [
        Vector.from_entries(vector),
        LinearMap.from_rows(cube(1, n, m)[0], m),
        LinearMap.from_rows([], n),
        MulTensor.from_entries(cube(n, n, n)),
        ComulTensor.from_entries(cube(n, n, n)),
        ActionTensor.from_entries(cube(n, m, m), n, m, "left"),
        ActionTensor.from_entries(cube(m, n, m), n, m, "right"),
        CoactionTensor.from_entries(cube(m, n, m), n, m),
    ]


def nested_entry(tensor, index):
    x = getattr(tensor, tensor._nested)
    for i in index:
        x = x[i]
    return x


def assert_scaled_follows_the_reference_rule(tensor):
    # (s, entries, bits) straight from the nested entries, in Fraction arithmetic
    nonzero = {}
    for index in product(*map(range, tensor.shape)):
        x = Fraction(nested_entry(tensor, index))
        if x:
            nonzero[index] = x
    s = lcm(*[x.denominator for x in nonzero.values()])
    scaled = {key: x * s for key, x in nonzero.items()}
    assert all(x.denominator == 1 for x in scaled.values())
    scaled = {key: x.numerator for key, x in scaled.items()}
    assert tensor.scaled == (s, scaled, max(map(abs, scaled.values()), default=0).bit_length())
    assert list(tensor.scaled[1]) == sorted(scaled)
    assert all(type(x) is int for x in tensor.scaled[1].values())


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_nonzeros_of_every_kind(n):
    for tensor in each_kind(n) + each_kind(n, lambda *index: Fraction(0)):
        assert_scaled_follows_the_reference_rule(tensor)


def other_fields(tensor) -> list:
    """The values of every field of ``tensor`` after its entries."""
    return [getattr(tensor, f.name) for f in dataclasses.fields(tensor)[1:]]


# The structure tensors, each negated by the one row ``laws.NEGATE``.
CUBES = (MulTensor, ComulTensor, ActionTensor, CoactionTensor)


def negated(tensor):
    """``tensor`` through ``laws.NEGATE`` (a right action read as a left one)."""
    return type(tensor)(construct(NEGATE, t=tensor), *other_fields(tensor))


def rebuilt(tensor, entries):
    """A tensor like ``tensor`` from ``entries`` through ``from_entries`` (``from_rows``
    for a map)."""
    if isinstance(tensor, LinearMap):
        return LinearMap.from_rows(entries, *other_fields(tensor))
    return type(tensor).from_entries(entries, *other_fields(tensor))


def zero_like(tensor):
    if isinstance(tensor, (Vector, MulTensor, ComulTensor)):
        return type(tensor).zero(tensor.dim)
    if isinstance(tensor, LinearMap):
        return LinearMap.zero(tensor.dim_out, tensor.dim_in)
    return type(tensor).zero(*other_fields(tensor))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_every_kind_freezes_zeros_and_negates_alike(n):
    assert not any(hasattr(type(t), "negated") for t in each_kind(n))
    for tensor, direct in zip(each_kind(n), each_kind(n, direct=True)):
        nested = getattr(tensor, tensor._nested)
        assert rebuilt(tensor, nested) == tensor == direct
        zero = zero_like(tensor)
        zeros = 0
        for size in reversed(tensor.shape):
            zeros = [zeros] * size
        assert zero == rebuilt(tensor, zeros) and zero.shape == tensor.shape
        assert all(x is _ZERO for x in flat(zero))
        if isinstance(tensor, (Vector, LinearMap)):
            continue
        minus = negated(tensor)
        assert type(minus) is type(tensor)
        assert other_fields(minus) == other_fields(tensor)
        assert flat(minus) == [-x for x in flat(tensor)]
        assert all(x is _ZERO for x in flat(minus) if not x)
        assert negated(minus) == tensor and negated(zero) == zero


def mixed_entry(rng) -> Fraction | int:
    """The shared zero, a zero of its own (put straight into a constructor), an int in
    -3..3, or a rational in -8..8 with denominator at most 12, as ``small_fractions``."""
    kind, d = rng.randrange(4), rng.randint(1, 12)
    return (_ZERO, Fraction(0), rng.randint(-3, 3), Fraction(rng.randint(-8 * d, 8 * d), d))[kind]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4), st.randoms(use_true_random=False))
def test_nonzeros_of_shared_and_other_zeros(n, rng):
    m = n + 1
    size = n + n * m + 2 * n**3 + 3 * n * m * m  # the entries each_kind(n) takes
    # One seeded draw an example: drawing each of up to 452 entries from hypothesis
    # strategies cost ~20x what the checks below do.
    drawn = [mixed_entry(rng) for _ in range(size)]
    entries = iter(drawn)
    tensors = each_kind(n, lambda *index: next(entries), direct=True)
    assert next(entries, None) is None
    minus = [negated(t) for t in tensors if type(t) in CUBES]
    for tensor in tensors + minus:
        assert_scaled_follows_the_reference_rule(tensor)
    replay = iter(drawn)  # the same entries, now through from_entries and from_rows
    for tensor in minus + each_kind(n, lambda *index: next(replay)):
        assert all(x is _ZERO for x in flat(tensor) if not x)


def test_lazy_attributes_are_computed_once_into_the_instance_dict(monkeypatch):
    from homstruct.report import Witness

    mu = MulTensor.from_entries([[[Fraction(1, 2), 0], [0, 3]], [[0, 0], [1, Fraction(-2, 3)]]])
    sites = [(_Tensor, "scaled", mu), (_Tensor, "_identity", LinearMap.identity(2)),
             (Witness, "residual", Witness((0,), (1, 2), 4))]
    for cls, name, instance in sites:
        descriptor = vars(cls)[name]
        assert isinstance(descriptor, lazy) and getattr(cls, name) is descriptor
        calls, compute = [], descriptor.compute
        monkeypatch.setattr(descriptor, "compute",  # each site's own calls and compute
                            lambda self, calls=calls, compute=compute:
                            calls.append(self) or compute(self))
        assert name not in vars(instance)
        value = getattr(instance, name)
        assert vars(instance)[name] is value and getattr(instance, name) is value
        assert calls == [instance], name


@pytest.mark.parametrize("value", [1.0, 0.0, None, Decimal(1)])
def test_rat_and_from_entries_reject_inexact_values(value):
    for build in (rat, lambda x: Vector.from_entries([1, x]), lambda x: LinearMap.from_rows([[x]]),
                  lambda x: LinearMap.diagonal([0, x]), lambda x: MulTensor.from_entries([[[x]]])):
        with pytest.raises(TypeError):
            build(value)


def test_rat_shares_zeros():
    assert rat(True) == Fraction(1) and type(rat(True)) is Fraction
    for zero in (0, False, Fraction(0), Fraction(0, 7), "0", "-0", "0/5"):
        assert rat(zero) is _ZERO, zero
    assert rat(17) == 17 and type(rat(17)) is Fraction and rat(-3) == Fraction(-3)
    q = Fraction(3, 2)
    assert rat(q) is q and rat("3/2") == q

    class Numerator(int):
        pass

    class Ratio(Fraction):
        pass

    assert type(rat(Numerator(2))) is Fraction and rat(Numerator(0)) is _ZERO
    assert type(rat(Ratio(1, 3))) is Fraction and rat(Ratio(0)) is _ZERO
    diagonal = LinearMap.diagonal([0, Fraction(0), 2])
    assert all(x is _ZERO for x in flat(diagonal) if not x)


def test_pack_and_unpack_are_inverse():
    entries = {(0, 0): 5, (0, 2): -7, (1, 1): -1, (2, 0): 2**40, (2, 2): -(2**40)}
    for axis in (0, 1):
        packed = pack(entries, packing(2, ((axis, 0),)), (43,))
        for key, value in packed.items():
            slots = unpack(value, 3, 43)
            for o, x in enumerate(slots):
                full = key[:axis] + (o,) + key[axis:]
                assert x == entries.get(full, 0)
    # Two axes x and y of size 3: x steps three slots, y one, so entry
    # (x, y) lands in slot 3x + y, whichever axes of the key they are.
    cube = {(k, x, y): (k + 1) * (-1) ** x * (10 * x + y + 1) for k in range(3)
            for x in range(3) for y in range(3) if (k + x + y) % 4}
    for ax, ay in ((1, 2), (2, 1), (0, 2)):
        kept = [p for p in range(3) if p not in (ax, ay)]
        moved: dict = {}
        for key, v in cube.items():
            moved.setdefault(tuple(key[p] for p in kept), {})[key[ax], key[ay]] = v
        packed = pack(cube, packing(3, ((ax, 0), (ay, 1))), (3 * 43, 43))
        assert packed.keys() == moved.keys()
        for key, value in packed.items():
            assert unpack(value, 9, 43) == [moved[key].get(divmod(o, 3), 0) for o in range(9)]
    # One axis of three, the middle one: the key keeps the first and the last.
    for key, value in pack(cube, packing(3, ((1, 0),)), (43,)).items():
        assert unpack(value, 3, 43) == [cube.get((key[0], o, key[1]), 0) for o in range(3)]
    assert pack({}, packing(2, ((0, 0), (1, 1))), (8, 4)) == {}
    assert unpack(0, 4, 8) == [0, 0, 0, 0]
    assert unpack(-1, 3, 8) == [-1, 0, 0]
    assert unpack((1 << 8) - 1, 2, 8) == [-1, 1]


def folded(entries: dict, axes: tuple, steps: tuple) -> dict:
    """The fold ``pack`` replaced: each shifted entry added into its key's one int."""
    packed = {axis for axis, _ in axes}
    out: dict = {}
    for key, v in entries.items():
        r = tuple(k for axis, k in enumerate(key) if axis not in packed)
        out[r] = out.get(r, 0) + (v << sum(key[axis] * steps[x] for axis, x in axes))
    return out


@settings(max_examples=40, deadline=None)
@given(data=st.data(), arity=st.integers(1, 4))
def test_pack_equals_the_per_entry_fold(data, arity):
    """Random signed entries, one or two packed axes (in either order), empty kept keys."""
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=arity, max_size=arity))
    keys = data.draw(st.lists(st.tuples(*map(st.integers, [0] * arity, [n - 1 for n in sizes])),
                              unique=True, max_size=40))
    entries = {key: data.draw(st.integers(-(2**70), 2**70).filter(bool)) for key in keys}
    chosen = data.draw(st.lists(st.integers(0, arity - 1), min_size=1, max_size=min(2, arity),
                                unique=True))
    axes = tuple((axis, x) for x, axis in enumerate(chosen))
    bits = 73
    steps = (sizes[chosen[-1]] * bits, bits)[-len(axes):]
    assert pack(entries, packing(arity, axes), steps) == folded(entries, axes, steps)


def unpack_by_borrowing(value: int, slots: int, bits: int) -> list[int]:
    """Slot by slot, giving a negative slot's borrow back to the next: the oracle for ``unpack``."""
    mask, half, base = (1 << bits) - 1, 1 << (bits - 1), 1 << bits
    digits = []
    for _ in range(slots):
        d = value & mask
        if d >= half:
            d -= base
        digits.append(d)
        value = (value - d) >> bits
    return digits


@st.composite
def balanced_digits(draw):
    bits = draw(st.integers(2, 80))
    half = 1 << (bits - 1)
    digit = st.one_of(st.sampled_from([-half, half - 1, 0]), st.integers(-half, half - 1))
    return bits, draw(st.lists(digit, min_size=1, max_size=20))


@settings(max_examples=300, deadline=None)
@given(balanced_digits())
def test_unpack_reads_back_packed_balanced_digits(case):
    bits, digits = case
    slots = len(digits)
    half = 1 << (bits - 1)
    for ds in (digits, [-half] * slots, [half - 1] * slots, [0] * slots):
        (value,) = pack({(o,): d for o, d in enumerate(ds)}, packing(1, ((0, 0),)), (bits,)).values()
        assert unpack(value, slots, bits) == unpack_by_borrowing(value, slots, bits) == ds


@pytest.mark.parametrize("slots", [15, 16, 17, 32, 255, 256, 257])
@pytest.mark.parametrize("bits", [2, 7, 64])
def test_unpack_reads_slots_across_block_boundaries(slots, bits):
    """``unpack`` reads 16 slots per block: every block edge, a short last block."""
    half = 1 << (bits - 1)
    cycle = [-half, half - 1, 0, -1, 1, half // 3, -half + 1]
    for start in range(len(cycle)):
        digits = [cycle[(start + o * 5) % len(cycle)] for o in range(slots)]
        value = sum(d << (o * bits) for o, d in enumerate(digits))
        assert unpack(value, slots, bits) == unpack_by_borrowing(value, slots, bits) == digits


# --- unit weights and shared zero rows --------------------------------------------

# Specs for ``contract``'s join loop, which groups the right values by join key, and
# its ±1 case, which joins without a multiply; the last two join on every right
# letter, so each right tail is empty.
GROUPED = ("ij,jk->ik", "ijk,kl->ijl", "ij,jk->k", "ab,bc,cd->ad", "i,ij->j",
           "abc,c->ab", "ij,ij->i")


def einsum_reference(spec: str, *operands: dict) -> dict:
    """``spec`` on ``{index tuple: value}`` operands in ``Fraction`` arithmetic: one
    product per combination of their entries that agrees on every shared letter."""
    inputs, out = spec.split("->")
    result: dict = {}
    for combo in product(*[list(op.items()) for op in operands]):
        binding: dict = {}
        if all(binding.setdefault(c, i) == i
               for letters, (key, _) in zip(inputs.split(","), combo)
               for c, i in zip(letters, key)):
            key = tuple(binding[c] for c in out)
            result[key] = result.get(key, 0) + prod(Fraction(v) for _, v in combo)
    return {key: v for key, v in result.items() if v}


def nonzero(entries: dict) -> dict:
    return {key: v for key, v in entries.items() if v}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GROUPED), st.randoms(use_true_random=False))
def test_the_unit_join_equals_the_general_loop_and_fraction_sums(spec, rng):
    inputs, out = spec.split("->")
    first, *rest = inputs.split(",")
    size = rng.randint(1, 3)
    # Left values as small ints or as wide as packed slots; right values all +1, all
    # -1 or mixed, so a join key's plus or minus list is often empty.
    left = {key: rng.choice((rng.randint(-9, 9) or 1, rng.getrandbits(130) - (1 << 129)))
            for key in product(range(size), repeat=len(first)) if rng.random() < 0.7}
    signs = rng.choice(((1,), (-1,), (1, -1)))
    units = [{key: rng.choice(signs) for key in product(range(size), repeat=len(letters))
              if rng.random() < 0.6} for letters in rest]
    got = contracted(spec, left, *units)
    assert nonzero(got) == einsum_reference(spec, left, *units)
    # The same operands with every right value doubled take the general loop.
    doubled = [{key: 2 * w for key, w in op.items()} for op in units]
    shift = len(units)
    general = nonzero(contracted(spec, left, *doubled))
    assert {key: v << shift for key, v in nonzero(got).items()} == general
    # As a construction's last join: into a sink, the factor of either sign.
    strides = tuple(size ** (len(out) - 1 - axis) for axis in range(len(out)))
    sinks = offsets(spec, strides)
    for factor in (1, -1):
        sink, wide = [0] * size ** len(out), [0] * size ** len(out)
        contract(spec, left, *units, into=(sink, sinks, factor))
        contract(spec, left, *doubled, into=(wide, sinks, factor))
        assert [x << shift for x in sink] == wide
        assert sink == [factor * got.get(key, 0) for key in product(range(size), repeat=len(out))]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4), st.randoms(use_true_random=False))
def test_scaled_of_shared_unshared_and_other_zero_rows(n, rng):
    m = n + 1
    shared = {width: compiled(_zeros, (width,)) for width in (n, m)}

    def row(width):
        kind = rng.randrange(5)
        if kind == 0:
            return shared[width]  # the row a parse makes of every zero row
        if kind == 1:
            return tuple([_ZERO] * width)  # a zero row of its own
        if kind == 2:
            return tuple([Fraction(0)] * width)  # other zeros
        return tuple([mixed_entry(rng) for _ in range(width)])

    def cube(a, b, c):
        return tuple([tuple([row(c) for _ in range(b)]) for _ in range(a)])

    tensors = [Vector(row(n)), LinearMap(cube(1, n, m)[0], m), MulTensor(cube(n, n, n)),
               ComulTensor(cube(n, n, n)), ActionTensor(cube(n, m, m), n, m, "left"),
               ActionTensor(cube(m, n, m), n, m, "right"), CoactionTensor(cube(m, n, m), n, m)]
    for tensor in tensors:
        assert_scaled_follows_the_reference_rule(tensor)
    assert all(compiled(_zeros, (width,)) is zero for width, zero in shared.items())


def test_every_zero_row_of_a_built_constructed_or_zero_tensor_is_the_shared_row():
    mu = MulTensor.from_entries([[[0, 0], [1, "0"]], [[Fraction(0), 0], [0, Fraction(2, 3)]]])
    f = LinearMap.from_rows([[0, 0, 0], [0, 2, 0]])
    built = [mu, f, LinearMap.diagonal([0, 3]), Vector.from_entries([0, False]),
             ActionTensor.from_entries([[[0], [1]]], 2, 1, "right"),
             CoactionTensor.from_entries([[[1], [0]]], 2, 1)]
    constructed = [LinearMap(construct(_COMPOSITE, f=f, g=LinearMap.zero(3, 2)), 2),
                   compose(f, LinearMap.from_rows([[1, 0], [0, 0], [0, 1]])),
                   MulTensor(construct(SWAP, t=mu)), MulTensor(construct(NEGATE, t=mu))]
    zeros = [MulTensor.zero(3), ComulTensor.zero(2), LinearMap.zero(2, 3), Vector.zero(3),
             ActionTensor.zero(2, 3, "right"), CoactionTensor.zero(2, 3)]
    for tensor in built + constructed + zeros:
        zero_rows = [row for row in tensor._rows() if not any(row)]
        assert zero_rows, tensor  # each tensor has some
        shared = compiled(_zeros, tensor.shape[-1:])
        assert all(row is shared for row in zero_rows), tensor
