import dataclasses
import importlib.util
import json
import pathlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homstruct import HomAlgebra, HomComodule, HomModule, HomPoissonCoalgebra
from homstruct import algebras, coalgebras, comodules, exact, fileformat, laws, modules
from homstruct.catalog import DeterministicRng, dual_numbers, lie_only_coalgebra, octonions
from homstruct.comodules import regular_comodule
from homstruct.errors import FormatError
from homstruct.exact import (
    _ZERO,
    ActionTensor,
    CoactionTensor,
    ComulTensor,
    LinearMap,
    MulTensor,
    _Tensor,
    format_ratio,
    format_rational,
)
from homstruct.fileformat import (
    TYPES,
    StructureFile,
    parse_bytes,
    parse_file,
    serialize,
    single_structure_file,
    write_file,
)
from homstruct.laws import NEGATE, SWAP, compose, construct
from homstruct.modules import regular_module
from reference_eval import flat

DATA = pathlib.Path(__file__).parent / "data"


def test_golden_files_round_trip_byte_exact():
    for name in ("corpus.json", "golden_octonions.json"):
        raw = (DATA / name).read_bytes()
        assert serialize(parse_bytes(raw)) == raw, name


def test_parse_recovers_structures():
    sf = parse_file(DATA / "corpus.json")
    assert isinstance(sf.get("octonions"), HomAlgebra)
    assert isinstance(sf.get("dual_regular"), HomModule)
    assert isinstance(sf.get("primitive2"), HomPoissonCoalgebra)
    assert isinstance(sf.get("primitive2_regular"), HomComodule)
    assert isinstance(sf.get("dual_scale"), LinearMap)
    assert sf.get("octonions") == octonions()
    assert sf.get("dual_regular") == regular_module(dual_numbers(2)[0])
    with pytest.raises(FormatError):
        sf.get("nonexistent")


def test_serialization_is_canonicalizing_and_idempotent():
    messy = b"""{
      "version": 1,
      "structures": {
        "zzz": {"alpha": [["1"]], "mul": [[["3"]]], "dim": 1, "kind": "hom_algebra"},
        "aaa": {"kind": "linear_map", "dim_in": 1, "dim_out": 1, "matrix": [["-2"]]}
      }
    }"""
    once = serialize(parse_bytes(messy))
    assert once.index(b'"aaa"') < once.index(b'"zzz"')
    assert once.index(b'"mul"') < once.index(b'"alpha"') and b" " not in once
    assert serialize(parse_bytes(once)) == once


def test_denominator_one_is_format_error(tmp_path, capsys):
    from homstruct.cli import main

    body = (
        '{"version":1,"structures":{"f":{"kind":"linear_map","dim_in":1,"dim_out":1,'
        '"matrix":[["5/1"]]}}}\n'
    )
    with pytest.raises(FormatError):
        parse_bytes(body.encode())
    path = tmp_path / "denominator_one.json"
    path.write_text(body)
    assert main(["verify", str(path), "f"]) == 2
    captured = capsys.readouterr()
    assert "FORMAT_ERROR" in captured.err and captured.out == ""


@pytest.mark.parametrize("version", ["true", "1.0"])
def test_version_must_be_the_integer_one(version, tmp_path, capsys):
    from homstruct.cli import main

    body = (
        '{"version":%s,"structures":{"a":{"kind":"hom_algebra","dim":1,'
        '"mul":[[["0"]]],"alpha":[["1"]]}}}\n'
    )
    good = tmp_path / "good.json"
    good.write_text(body % "1")
    assert main(["verify", str(good), "a"]) == 0
    capsys.readouterr()
    with pytest.raises(FormatError, match="unsupported version"):
        parse_bytes((body % version).encode())
    path = tmp_path / "version.json"
    path.write_text(body % version)
    assert main(["verify", str(path), "a"]) == 2
    captured = capsys.readouterr()
    assert "FORMAT_ERROR" in captured.err and captured.out == ""


def test_map_without_rows_round_trips():
    body = (
        b'{"version":1,"structures":{"f":{"kind":"linear_map","dim_in":3,"dim_out":0,'
        b'"matrix":[]}}}\n'
    )
    sf = parse_bytes(body)
    assert sf.get("f").shape == (0, 3)
    assert serialize(sf) == body


def test_a_width_with_no_row_builds_no_zero_row(tmp_path, capsys):
    # A zero row of a width is built once a row of that width is read: a map of no
    # rows, 10**15 columns wide, once ended in a MemoryError traceback.
    from homstruct.cli import main

    wide = b'"f":{"kind":"linear_map","dim_in":1000000000000000,"dim_out":0,"matrix":[]}'
    body = serialize(single_structure_file("a", dual_numbers(2)[0]))
    body = body[: -len(b"}}\n")] + b"," + wide + b"}}\n"
    path, out = tmp_path / "wide.json", tmp_path / "twisted.json"
    path.write_bytes(body)
    f = parse_bytes(body).get("f")
    assert f.shape == (0, 10**15) and f.scaled == (1, {}, 0)
    assert fileformat._text(f) == fileformat._text(LinearMap(f.entries, f.dim_in)) == "[]"
    assert main(["verify", str(path), "f"]) == 2
    captured = capsys.readouterr()
    assert "FORMAT_ERROR" in captured.err and "Traceback" not in captured.err
    assert main(["twist", str(path), "a", "--endo", "id", "--out", str(out)]) == 0
    assert out.read_bytes() == body
    assert main(["twist", str(path), "a", "--endo", "diag:1,2", "--out", str(out)]) == 0
    assert wide in out.read_bytes() and out.read_bytes() != body


def test_comodule_kinds_round_trip():
    lie = lie_only_coalgebra()
    sf = single_structure_file("lie_reg", regular_comodule(lie, "lie"), ("lie2", lie))
    data = serialize(sf)
    back = parse_bytes(data)
    assert back.get("lie_reg") == regular_comodule(lie, "lie")
    assert serialize(back) == data


@pytest.mark.parametrize(
    "name",
    ["bad_rational.json", "bad_notlowest.json", "bad_reference.json", "bad_shape.json", "bad_version.json"],
)
def test_malformed_files_rejected(name):
    with pytest.raises(FormatError):
        parse_file(DATA / name)


@pytest.mark.parametrize(
    "body",
    [
        '{"version":1}',
        '{"version":1,"structures":{"a":{"kind":"mystery"}}}',
        '{"version":1,"structures":{"":{"kind":"linear_map","dim_in":1,"dim_out":1,"matrix":[["1"]]}}}',
        '{"version":1,"structures":{"a":{"kind":"hom_poisson_coalgebra","dim":1,'
        '"delta":[[["1"]]],"gamma":[[["0"]]],"alpha":[["1"]],"cocommutative":"yes"}}}',
        "not json at all",
        pytest.param('{"version":%s,"structures":{}}' % ("1" * 4301), id="huge-json-integer"),
    ],
)
def test_other_invalid_documents(body):
    with pytest.raises(FormatError):
        parse_bytes(body.encode())


@pytest.mark.parametrize("data", [b"\xef\xbb\xbf{}", b"{} x", b"{", b"[1,]", b"\xff"])
def test_json_errors_are_worded_as_json_loads_words_them(data):
    with pytest.raises(ValueError) as want:
        json.loads(data.decode("utf-8"))
    with pytest.raises(FormatError) as got:
        parse_bytes(data)
    assert str(got.value) == f"not valid JSON: {want.value}"


def test_comodule_rejects_tensor_for_wrong_kind():
    body = (
        '{"version":1,"structures":{'
        '"c":{"kind":"hom_poisson_coalgebra","dim":1,"delta":[[["1"]]],'
        '"gamma":[[["0"]]],"alpha":[["1"]],"cocommutative":true},'
        '"m":{"kind":"hom_comodule","coalgebra":"c","structure":"lie","dim":1,'
        '"beta":[["1"]],"delta_m":[[["1"]]],"gamma_m":[[["0"]]]}}}'
    )
    with pytest.raises(FormatError):
        parse_bytes(body.encode())


def test_missing_file_is_format_error():
    with pytest.raises(FormatError):
        parse_file(DATA / "does_not_exist.json")


def test_dangling_reference_rejected_on_write():
    sf = StructureFile(1, {"m": regular_module(dual_numbers(2)[0])}, {"m": "ghost"})
    with pytest.raises(FormatError):
        serialize(sf)


def test_the_writer_refuses_the_names_the_reader_refuses():
    alg = dual_numbers(2)[0]
    for name in ("", 7, None):
        # Alone, and beside a string name, which once made ``sorted`` raise TypeError.
        for structures in ({name: alg}, {name: alg, "a": alg}):
            with pytest.raises(FormatError) as info:
                serialize(StructureFile(1, structures, {}))
            assert info.value.args == ("structure names must be nonempty strings",)
    data = b'{"version":1,"structures":{"":{"kind":"linear_map","matrix":[["1"]]}}}\n'
    with pytest.raises(FormatError, match="^structure names must be nonempty strings$"):
        parse_bytes(data)
    # A name that needs JSON escapes reads back and writes the same bytes.
    names = ['a"b', "back\\slash", "tab\tand\nline", "\x00", "/", "é   \U0001f600"]
    data = serialize(StructureFile(1, {name: alg for name in names}, {}))
    parsed = parse_bytes(data)
    assert sorted(parsed.structures) == sorted(names)
    assert serialize(parsed) == data


def test_write_file_over_a_longer_file_leaves_only_the_new_bytes(tmp_path):
    path = tmp_path / "out.json"
    long = single_structure_file("octo", octonions())
    short = single_structure_file("d", dual_numbers(2)[0])
    write_file(path, long)
    assert path.read_bytes() == serialize(long)
    inode = path.stat().st_ino
    write_file(path, short)
    assert path.read_bytes() == serialize(short)
    assert path.stat().st_ino == inode  # overwritten in place, not replaced


def test_right_module_round_trip():
    alg = octonions()
    sf = single_structure_file("right_reg", regular_module(alg, "right"), ("octo", alg))
    back = parse_bytes(serialize(sf))
    assert back.get("right_reg") == regular_module(alg, "right")


def test_nonidentity_alpha_round_trip():
    from homstruct.catalog import dual_numbers_twisted, poisson_dual_dim4_twisted

    for structure in (dual_numbers_twisted(), poisson_dual_dim4_twisted()):
        sf = single_structure_file("s", structure)
        assert parse_bytes(serialize(sf)).get("s") == structure


def test_fraction_entries_survive_round_trip():
    from fractions import Fraction

    alg, phi = dual_numbers(Fraction(3, 2))
    sf = single_structure_file("m", phi)
    data = serialize(sf)
    assert b'"3/2"' in data
    assert parse_bytes(data).get("m") == phi


def test_huge_numeral_is_format_error(tmp_path, capsys):
    from homstruct.cli import main

    digits = "1" * 5001
    for entry in (digits, f"1/{digits}", f"-{digits}/7"):
        body = (
            '{"version":1,"structures":{"a":{"kind":"linear_map","dim_in":1,"dim_out":1,'
            f'"matrix":[["{entry}"]]}}}}}}'
        )
        with pytest.raises(FormatError):
            parse_bytes(body.encode())
    sf = single_structure_file("z", dual_numbers(2)[0])
    path = tmp_path / "huge_numeral.json"
    path.write_bytes(serialize(sf).replace(b'"alpha":[["1"', b'"alpha":[["' + digits.encode() + b'"'))
    assert main(["verify", str(path), "z"]) == 2
    captured = capsys.readouterr()
    assert "FORMAT_ERROR" in captured.err and captured.out == ""


def test_duplicate_keys_rejected_at_every_level():
    zero2 = serialize(single_structure_file("zero2", dual_numbers(2)[0])).decode()
    entry = zero2[zero2.index('{"kind"') : -3]
    twice = '{"version":1,"structures":{"zero2":%s,"zero2":%s}}' % (entry, entry)
    with pytest.raises(FormatError, match="duplicate key 'zero2'"):
        parse_bytes(twice.encode())
    with pytest.raises(FormatError, match="duplicate key 'dim'"):
        parse_bytes(zero2.replace('"dim":2', '"dim":2,"dim":2').encode())
    with pytest.raises(FormatError, match="duplicate key 'version'"):
        parse_bytes(zero2.replace('{"version":1', '{"version":1,"version":1').encode())


def test_a_key_no_field_states_is_format_error_naming_it(tmp_path, capsys):
    # The writer drops such a key, so two byte files would read as one structure file.
    from homstruct.cli import main

    body = ('{"version":1,"structures":{"a":{"kind":"hom_algebra","dim":1,'
            '"mul":[[["0"]]],"alpha":[["1"]]%s}}%s}\n')
    for extra, message in [(',"note":"x"', "a: unknown key 'note'"),
                           (',"structure":"left"', "a: unknown key 'structure'")]:
        with pytest.raises(FormatError, match=f"^{message}$"):
            parse_bytes((body % (extra, "")).encode())
    with pytest.raises(FormatError, match="^top level: unknown key 'extra'$"):
        parse_bytes((body % ("", ',"extra":[]')).encode())
    # A field's fault comes first, as the walk reports it; then the entry's keys, then the file's.
    with pytest.raises(FormatError, match="a: bad dim"):
        parse_bytes((body % (',"note":"x"', ',"extra":[]')).replace('"dim":1', '"dim":-1').encode())
    with pytest.raises(FormatError, match="a: unknown key 'note'"):
        parse_bytes((body % (',"note":"x"', ',"extra":[]')).encode())
    path = tmp_path / "extra.json"
    path.write_text(body % ("", ',"extra":[]'))
    assert main(["verify", str(path), "a"]) == 2
    captured = capsys.readouterr()
    assert "FORMAT_ERROR" in captured.err and "'extra'" in captured.err and captured.out == ""
    assert serialize(parse_bytes((body % ("", "")).encode())) == (body % ("", "")).encode()


def test_deep_nesting_is_format_error():
    with pytest.raises(FormatError):
        parse_bytes(b"[" * 200_000)
    with pytest.raises(FormatError):
        parse_bytes(b'{"version":1,"structures":' + b"[" * 200_000 + b"]" * 200_000 + b"}")


# --- each distinct numeral is decoded once per file -------------------------------

ONE_ROW_MAP = (
    '{"version":1,"structures":{"f":{"kind":"linear_map","dim_in":%d,"dim_out":1,'
    '"matrix":[[%s]]}}}\n'
)


def _rejects(body: str, message: str, tmp_path, capsys):
    """``body`` is FORMAT_ERROR with ``message`` from parse_bytes, and exits 2 from the CLI."""
    from homstruct.cli import main

    for _ in range(2):  # nothing learnt from a failed parse survives it
        with pytest.raises(FormatError) as excinfo:
            parse_bytes(body.encode())
        assert str(excinfo.value).startswith(message)
    path = tmp_path / "bad.json"
    path.write_text(body)
    assert main(["verify", str(path), "f"]) == 2
    captured = capsys.readouterr()
    assert "FORMAT_ERROR" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "twin, entry",
    [
        ('"1"', "1"), ('"1"', "true"), ('"1"', "1.0"), ('"0"', "0"), ('"0"', "false"),
        ('"1"', "null"), ('"1"', "[]"), ('"1"', "{}"), ('"0"', '["0"]'), ('"0"', '{"0":"0"}'),
    ],
)
def test_non_string_entry_after_its_twin_is_format_error(twin, entry, tmp_path, capsys):
    message = f"rational entries must be strings, got {json.loads(entry)!r}"
    _rejects(ONE_ROW_MAP % (2, f"{twin},{entry}"), message, tmp_path, capsys)
    _rejects(ONE_ROW_MAP % (2, f"{entry},{twin}"), message, tmp_path, capsys)


TOO_LONG = "1" * 4301


@pytest.mark.parametrize(
    "twin, bad, message",
    [
        ("0", "-0", "malformed rational '-0'"),
        ("5", "5/1", "malformed rational '5/1'"),
        ("1/2", "2/4", "rational '2/4' is not in lowest terms"),
        ("1", "01", "malformed rational '01'"),
        ("1" * 4300, TOO_LONG, "rational numeral is too long"),
    ],
)
def test_bad_numeral_is_format_error_on_first_sight_and_after_its_twin(
    twin, bad, message, tmp_path, capsys
):
    _rejects(ONE_ROW_MAP % (1, f'"{bad}"'), message, tmp_path, capsys)
    _rejects(ONE_ROW_MAP % (3, f'"{twin}","{bad}","{twin}"'), message, tmp_path, capsys)
    twice = ONE_ROW_MAP.replace('"dim_out":1', '"dim_out":2') % (1, f'"{twin}"],["{bad}"')
    _rejects(twice, message, tmp_path, capsys)


def test_first_bad_entry_in_scan_order_is_reported(tmp_path, capsys):
    _rejects(ONE_ROW_MAP % (4, '"1","01","2/4",1'), "malformed rational '01'", tmp_path, capsys)
    _rejects(ONE_ROW_MAP % (4, '"1",[],"01","2/4"'), "rational entries must be strings, got []",
             tmp_path, capsys)
    algebra_then_bad_map = (
        '{"version":1,"structures":{'
        '"a":{"kind":"hom_algebra","dim":1,"mul":[[["-1"]]],"alpha":[["1"]]},'
        '"f":{"kind":"linear_map","dim_in":2,"dim_out":1,"matrix":[["-1",-1]]}}}\n'
    )
    _rejects(algebra_then_bad_map, "rational entries must be strings, got -1", tmp_path, capsys)


# --- shape errors ------------------------------------------------------------------

ALGEBRA = {"kind": "hom_algebra", "dim": 2, "mul": [[["1", "0"], ["0", "1"]]] * 2,
           "alpha": [["1", "0"], ["0", "1"]]}


def _shape_error(entries: dict) -> str:
    body = json.dumps({"version": 1, "structures": entries})
    with pytest.raises(FormatError) as excinfo:
        parse_bytes(body.encode())
    return str(excinfo.value)


@pytest.mark.parametrize(
    "matrix, message",
    [
        ("1", "f: expected 2 rows"),
        ({"0": "1"}, "f: expected 2 rows"),
        ([["1", "0"]], "f: expected 2 rows"),
        ([["1", "0"]] * 3, "f: expected 2 rows"),
        (["1", ["0", "1"]], "f: expected 3 columns"),
        ([["1", "0", "1"], "0"], "f: expected 3 columns"),
        ([["1", "0", "1"], ["0", "1"]], "f: expected 3 columns"),
        ([["1", "0", "1"], ["0", "1", "0", "1"]], "f: expected 3 columns"),
        ([["1", "0", []], ["0", "1", "0"]], "rational entries must be strings, got []"),
        ([["1", "0", "1"], ["0", "1/2", {"a": "1"}]],
         "rational entries must be strings, got {'a': '1'}"),
        # A bad numeral before an unhashable entry is reported first.
        ([["1", "01", []], ["0", "1", "0"]], "malformed rational '01'"),
    ],
)
def test_matrix_shape_errors_name_what_was_expected(matrix, message):
    f = {"kind": "linear_map", "dim_in": 3, "dim_out": 2, "matrix": matrix}
    assert _shape_error({"f": f}) == message


@pytest.mark.parametrize(
    "mul, message",
    [
        (None, "a: expected 2 planes"),
        ("1", "a: expected 2 planes"),
        ([[["1", "0"], ["0", "1"]]], "a: expected 2 planes"),
        ([[["1", "0"], ["0", "1"]], "0"], "a: expected 2 rows"),
        ([[["1", "0"], ["0", "1"]], [["1", "0"]]], "a: expected 2 rows"),
        ([[["1", "0"], ["0", "1"]], [["1", "0"], "1"]], "a: expected 2 columns"),
        ([[["1", "0"], ["0", "1"]], [["1", "0"], ["0"]]], "a: expected 2 columns"),
        ([[["1", "0"], ["0", "1"]], [["1", "0"], ["0", ["1"]]]],
         "rational entries must be strings, got ['1']"),
    ],
)
def test_cube_shape_errors_name_what_was_expected(mul, message):
    assert _shape_error({"a": {**ALGEBRA, "mul": mul}}) == message


def test_module_and_comodule_cubes_take_their_sides_sizes():
    # A right module of dim 3 over a dim-2 algebra: 3 planes of 2 rows of 3.
    plane = [["0", "0", "0"]] * 2
    module = {"kind": "hom_module", "algebra": "a", "side": "right", "dim": 3,
              "beta": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], "action": [plane] * 3}
    for action, message in [
        ([plane] * 2, "m: expected 3 planes"),
        ([plane] * 2 + [plane[:1]], "m: expected 2 rows"),
        ([plane] * 2 + [[["0"] * 3, ["0"] * 2]], "m: expected 3 columns"),
    ]:
        assert _shape_error({"a": ALGEBRA, "m": {**module, "action": action}}) == message
    coalgebra = {"kind": "hom_poisson_coalgebra", "dim": 2, "delta": ALGEBRA["mul"],
                 "gamma": ALGEBRA["mul"], "alpha": ALGEBRA["alpha"], "cocommutative": False}
    comodule = {"kind": "hom_comodule", "coalgebra": "c", "structure": "lie", "dim": 3,
                "beta": module["beta"], "gamma_m": [plane] * 3}
    assert _shape_error({"c": coalgebra, "m": {**comodule, "gamma_m": [plane] * 4}}) == (
        "m: expected 3 planes"
    )
    assert _shape_error({"c": coalgebra, "m": {**comodule, "gamma_m": [plane[:1]] * 3}}) == (
        "m: expected 2 rows"
    )


# --- of two faults in one entry, the earlier in wire order is reported ----------------

_COALGEBRA = {"kind": "hom_poisson_coalgebra", "dim": 2, "delta": ALGEBRA["mul"],
              "gamma": ALGEBRA["mul"], "alpha": ALGEBRA["alpha"], "cocommutative": False}
_MODULE = {"kind": "hom_module", "algebra": "a", "side": "left", "dim": 2,
           "beta": ALGEBRA["alpha"], "action": ALGEBRA["mul"]}
_LIE = {"kind": "hom_comodule", "coalgebra": "c", "structure": "lie", "dim": 2,
        "beta": ALGEBRA["alpha"], "gamma_m": ALGEBRA["mul"]}


@pytest.mark.parametrize(
    "entries, message",
    [
        ({"a": {**ALGEBRA, "mul": "x", "alpha": "y"}}, "a: expected 2 planes"),
        ({"a": {**ALGEBRA, "dim": -1, "mul": "x"}}, "a: bad dim"),
        ({"c": {**_COALGEBRA, "alpha": "x", "cocommutative": 1}}, "c: expected 2 rows"),
        ({"c": {**_COALGEBRA, "delta": "x", "gamma": ["y", "z"]}}, "c: expected 2 planes"),
        ({"c": {**_COALGEBRA, "delta": ["y", "z"], "gamma": "x"}}, "c: expected 2 rows"),
        ({"a": ALGEBRA, "m": {**_MODULE, "side": "up", "dim": -1}}, "m: bad side 'up'"),
        ({"a": ALGEBRA, "m": {**_MODULE, "algebra": "nope", "side": "up"}},
         "m: algebra 'nope' not found"),
        ({"a": ALGEBRA, "m": {**_MODULE, "beta": "x", "action": "y"}}, "m: expected 2 rows"),
        ({"c": _COALGEBRA, "m": {**_LIE, "delta_m": ALGEBRA["mul"], "gamma_m": "x"}},
         "m: delta_m not allowed for this kind"),
        ({"c": _COALGEBRA, "m": {**_LIE, "structure": "up", "dim": -1}},
         "m: bad comodule structure 'up'"),
        ({"c": _COALGEBRA, "m": {**_LIE, "coalgebra": 1, "structure": "up"}},
         "m: missing coalgebra reference"),
        ({"f": {"kind": "linear_map", "dim_in": 2, "dim_out": -1, "matrix": "x"}}, "f: bad dim"),
    ],
)
def test_the_first_of_two_faults_in_wire_order_is_reported(entries, message):
    assert _shape_error(entries) == message


ZERO3 = ["0"] * 3


@pytest.mark.parametrize(
    "dim_out, dim_in, matrix, message",
    [
        (2, 3, [ZERO3, ["0", "0"]], "f: expected 3 columns"),  # a zero row, too short
        (2, 3, [["0"] * 4, ZERO3], "f: expected 3 columns"),  # a zero row, too long
        (2, 3, [["0"] * 2, ["1", "0", "1"]], "f: expected 3 columns"),
        (3, 3, [ZERO3, ZERO3, ["0", "01", "0"]], "malformed rational '01'"),
        (3, 3, [ZERO3, ZERO3, ["0", "1/1", []]], "malformed rational '1/1'"),
        (3, 3, [ZERO3, ZERO3, ["0", [], "01"]], "rational entries must be strings, got []"),
        (3, 3, [ZERO3, ZERO3, ["0", "0", {"0": "0"}]],
         "rational entries must be strings, got {'0': '0'}"),
        (3, 3, [ZERO3, ["0", "0", 0], ZERO3], "rational entries must be strings, got 0"),
        (3, 3, [ZERO3, ZERO3, "0"], "f: expected 3 columns"),
        (3, 3, [ZERO3, ZERO3, {"0": "0"}], "f: expected 3 columns"),
        (3, 3, [ZERO3, ZERO3, None], "f: expected 3 columns"),
        (3, 3, [ZERO3, ZERO3], "f: expected 3 rows"),
        (2, 0, [[], ["0"]], "f: expected 0 columns"),  # no columns: [] is the zero row
        (2, 0, [[], "0"], "f: expected 0 columns"),
        (2, 0, [[], {}], "f: expected 0 columns"),
        (2, 0, [[]], "f: expected 2 rows"),
        (0, 2, [ZERO3[:2]], "f: expected 0 rows"),
        (0, 0, [[]], "f: expected 0 rows"),
    ],
)
def test_zero_rows_keep_the_errors_around_them(dim_out, dim_in, matrix, message):
    f = {"kind": "linear_map", "dim_in": dim_in, "dim_out": dim_out, "matrix": matrix}
    assert _shape_error({"f": f}) == message


@pytest.mark.parametrize(
    "mul, message",
    [
        ([[]], "a: expected 0 planes"),
        ([[[]]], "a: expected 0 planes"),
        ({}, "a: expected 0 planes"),
    ],
)
def test_a_dim_zero_cube_keeps_its_errors(mul, message):
    assert _shape_error({"a": {"kind": "hom_algebra", "dim": 0, "mul": mul, "alpha": []}}) == message


def test_a_zero_dim_module_cube_over_an_algebra_keeps_its_errors():
    module = {"kind": "hom_module", "algebra": "a", "side": "left", "dim": 0, "beta": []}
    for action, message in [
        ([[], [[]]], "m: expected 0 rows"),
        ([[], []], None),
        ([[]], "m: expected 2 planes"),
    ]:
        entries = {"a": ALGEBRA, "m": {**module, "action": action}}
        if message is None:
            assert parse_bytes(json.dumps({"version": 1, "structures": entries}).encode())
        else:
            assert _shape_error(entries) == message


def test_every_parsed_zero_row_is_the_shared_one():
    from homstruct.exact import _zeros, compiled

    body = {
        "a": {"kind": "hom_algebra", "dim": 3,
              "mul": [[ZERO3, ["0", "1", "0"], ZERO3]] * 2 + [[ZERO3] * 3],
              "alpha": [["1", "0", "0"], ZERO3, ["0", "0", "-1/2"]]},
        "f": {"kind": "linear_map", "dim_in": 0, "dim_out": 2, "matrix": [[], []]},
        "g": {"kind": "linear_map", "dim_in": 3, "dim_out": 0, "matrix": []},
    }
    data = json.dumps({"version": 1, "structures": body}).encode()
    sf = parse_bytes(data)
    a, f = sf.structures["a"], sf.structures["f"]
    zero = compiled(_zeros, (3,))
    rows = [*(row for plane in a.mu.c for row in plane), *a.alpha.entries]
    assert [row is zero for row in rows] == [not any(row) for row in rows]
    assert sum(row is zero for row in rows) == 8
    assert all(row is compiled(_zeros, (0,)) for row in f.entries)
    assert a.mu.scaled == (1, {(0, 1, 1): 1, (1, 1, 1): 1}, 1)
    assert a.alpha.scaled == (2, {(0, 0): 2, (2, 2): -1}, 2)
    assert f.scaled[1] == {} and sf.structures["g"].scaled[1] == {}
    assert serialize(sf) == serialize(parse_bytes(serialize(sf)))


# --- what parsing builds ----------------------------------------------------------

def _regen_golden():
    path = DATA.parent.parent / "scripts" / "regen_golden.py"
    spec = importlib.util.spec_from_file_location("regen_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tensors(structure) -> list:
    if isinstance(structure, LinearMap):
        return [structure]
    values = [getattr(structure, f.name) for f in dataclasses.fields(structure)]
    return [v for v in values if isinstance(v, _Tensor)]


def _entries(nested):
    if isinstance(nested, tuple):
        for x in nested:
            yield from _entries(x)
    else:
        yield nested


def _dense_rational_module_file(n: int) -> StructureFile:
    rng = DeterministicRng(n)

    def cube():
        return [[[rng.point_entry() for _ in range(n)] for _ in range(n)] for _ in range(n)]

    def square():
        return LinearMap.from_rows([[rng.point_entry() for _ in range(n)] for _ in range(n)])

    alg = HomAlgebra(n, MulTensor.from_entries(cube()), square())
    mod = HomModule(alg, n, square(), ActionTensor.from_entries(cube(), n, n, "left"), "left")
    return single_structure_file("module", mod, ("algebra", alg))


def test_parse_builds_the_serialized_structures_from_fractions():
    originals = [
        (_regen_golden().corpus_file(), (DATA / "corpus.json").read_bytes()),
        (single_structure_file("octonions", octonions()),
         (DATA / "golden_octonions.json").read_bytes()),
        (_dense_rational_module_file(16), None),
    ]
    for original, raw in originals:
        data = serialize(original)
        assert raw is None or data == raw
        back = parse_bytes(data)
        assert back.structures.keys() == original.structures.keys()
        assert back.base_of == original.base_of
        for name, structure in original.structures.items():
            parsed = back.get(name)
            assert parsed == structure, name
            for mine, theirs in zip(_tensors(parsed), _tensors(structure), strict=True):
                assert mine.scaled == theirs.scaled, name
                entries = list(_entries(getattr(mine, mine._nested)))
                # Fraction(1) == 1, so == above would not see an int or str entry
                assert all(type(x) is Fraction for x in entries), name
                # "0", the grammar's one spelling of zero, is the one shared zero
                assert all(x is _ZERO for x in entries if not x), name
        assert serialize(back) == data
    dense = originals[2][0].get("module")
    assert dense.action.scaled[0] > 1 and len(dense.algebra.mu.scaled[1]) > 3000


# --- writing ------------------------------------------------------------------------

def _dump_by_entry(nested):
    """The per-entry writer ``serialize`` must agree with: ``format_ratio`` of every entry."""
    if isinstance(nested, tuple):
        return [_dump_by_entry(x) for x in nested]
    return format_ratio(nested.numerator, nested.denominator)


def _serialize_by_entry(sf: StructureFile) -> bytes:
    """``serialize``'s layout (pinned by the golden files), every tensor written by entry."""
    doc = json.loads(serialize(sf))
    for name, entry in doc["structures"].items():
        for field in TENSOR_FIELDS:
            if field in entry:
                # a linear_map entry is its own matrix
                structure = sf.get(name)
                attr = {"mul": "mu"}.get(field, field)
                tensor = structure if field == "matrix" else getattr(structure, attr)
                entry[field] = _dump_by_entry(getattr(tensor, tensor._nested))
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode()


def _write_entry(rng: random.Random):
    """A zero in one of the forms a constructor takes, or a nonzero int, string or Fraction."""
    return rng.choice([
        lambda: _ZERO, lambda: Fraction(0), lambda: 0, lambda: "0", lambda: rng.choice(["3/2", "-7"]),
        lambda: rng.randint(-20, 20), lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
    ])()


def _written_structures(n: int, m: int, rng: random.Random) -> tuple[dict, dict, list]:
    """Structures over dim-n bases with dim-m (co)modules, built from random entries,
    negations, opposites and twists (the structure modules' construction rows),
    regular (co)modules and a map on ``alpha``'s own rows (arrays shared by tuple),
    and the tensors ``from_entries`` or a negation row built."""

    def cube(a, b, c):
        return [[[_write_entry(rng) for _ in range(c)] for _ in range(b)] for _ in range(a)]

    def square(k):
        return LinearMap.from_rows(cube(1, k, k)[0], k)

    def built(template, row, **operands):  # a tensor like template, holding what row builds
        return dataclasses.replace(template, **{template._nested: construct(row, **operands)})

    alpha, beta = square(n), square(m)
    mu = MulTensor.from_entries(cube(n, n, n))
    alg = HomAlgebra(n, mu, alpha)
    left = ActionTensor.from_entries(cube(n, m, m), n, m, "left")
    right = ActionTensor.from_entries(cube(m, n, m), n, m, "right")
    right = built(right, NEGATE, t=right)
    delta = ComulTensor.from_entries(cube(n, n, n))
    gamma = ComulTensor.from_entries(cube(n, n, n))
    gamma = built(gamma, NEGATE, t=gamma)
    opposite = built(gamma, coalgebras._OPPOSITE, t=gamma)
    coalg = HomPoissonCoalgebra(n, delta, built(gamma, coalgebras._YAU_TWIST, t=opposite, phi=alpha),
                                alpha, False)
    coaction = CoactionTensor.from_entries(cube(m, n, m), n, m)
    mu_neg, coaction_neg = built(mu, NEGATE, t=mu), built(coaction, NEGATE, t=coaction)
    mu_opposite = built(mu, SWAP, t=mu)
    structures = {
        "A": alg,
        "A_neg": HomAlgebra(n, mu_neg, alpha),
        "A_twist": HomAlgebra(n, built(mu, algebras._YAU_TWIST, t=mu_opposite, phi=alpha), alpha),
        "L": HomModule(alg, m, beta, left, "left"),
        "L_twist": HomModule(alg, m, beta, built(left, modules._TWIST["left"],
                                                 square=compose(alpha, alpha), t=left), "left"),
        "R": HomModule(alg, m, beta, right, "right"),
        "C": coalg,
        "C_neg": HomPoissonCoalgebra(n, built(delta, NEGATE, t=delta), gamma, alpha, True),
        "K": HomComodule(coalg, m, beta, "poisson", coaction,
                         built(coaction, comodules._TWIST, square=compose(alpha, alpha),
                               t=coaction_neg)),
        "A_left": regular_module(alg, "left"),
        "A_right": regular_module(alg, "right"),
        "C_regular": regular_comodule(coalg),
        "alpha_rows": LinearMap(alpha.entries, n),
        "thin": LinearMap.from_rows(cube(1, m, 0)[0], 0),  # m rows, 0 wide
        "composite": compose(alpha, alpha),
        # entries kept as given: bools and ints straight through the constructor
        "direct": LinearMap(tuple(
            tuple(rng.choice([True, False, 0, -3, Fraction(2, 3), _ZERO]) for _ in range(m))
            for _ in range(m)), m),
    }
    bases = {"L": "A", "L_twist": "A", "R": "A", "K": "C", "A_left": "A", "A_right": "A",
             "C_regular": "C"}
    interned = [mu, mu_neg, alpha, beta, left, right, delta, gamma, coaction, coaction_neg]
    return structures, bases, interned


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2**32))
def test_serialize_matches_the_per_entry_writer(n, m, seed):
    structures, bases, interned = _written_structures(n, m, random.Random(seed))
    sf = StructureFile(1, structures, bases)
    written = serialize(sf)
    assert written == _serialize_by_entry(sf)
    back = parse_bytes(written)  # written back from the numerals it was read from
    assert serialize(back) == _serialize_by_entry(back) == written
    for tensor in interned:
        assert all(x is _ZERO for x in flat(tensor) if not x)


@pytest.mark.parametrize("n, m", [(0, 0), (0, 2), (2, 0), (3, 2)])
def test_twist_as_writes_what_the_per_entry_writer_writes(n, m, tmp_path, capsys):
    from homstruct.cli import main

    structures, bases, _ = _written_structures(n, m, random.Random(4 * n + m))
    # A module twist needs a multiplicative alpha, and every alpha is one over the
    # zero product: the entries over "A" move onto it, keeping their random alpha.
    base = HomAlgebra(n, MulTensor.zero(n), structures["A"].alpha)
    structures["A"] = base
    for name in [name for name, ref in bases.items() if ref == "A"]:
        structures[name] = dataclasses.replace(structures[name], algebra=base)
    path = tmp_path / "in.json"
    write_file(path, StructureFile(1, structures, bases))
    for name in ("L", "R", "K", "A_left", "C_regular"):
        out = tmp_path / f"{name}.json"
        assert main(["twist", str(path), name, "--as", "new", "--out", str(out)]) == 0, name
        back = parse_file(out)
        assert out.read_bytes() == serialize(back) == _serialize_by_entry(back), name


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2**32))
@example(0, 0, 0)
@example(0, 2, 0)
@example(2, 0, 0)
def test_parsed_numerals_are_the_numerals_of_the_parsed_entries(n, m, seed):
    structures, bases, _ = _written_structures(n, m, random.Random(seed))
    sf = parse_bytes(serialize(StructureFile(1, structures, bases)))
    for name, structure in sf.structures.items():
        for tensor in _tensors(structure):
            # the text joined from the array read is the text of the entries read
            joined = fileformat._text(tensor)
            assert joined == fileformat._text(dataclasses.replace(tensor)), name
            assert json.loads(joined) == vars(tensor)["array"], name
            assert "text" not in vars(tensor), name


def _encoded(sf: StructureFile) -> bytes:
    """The encoder ``serialize`` replaced: one ``encode`` call on the nested-list document,
    every tensor written by entry."""
    structures = {}
    for name in sorted(sf.structures):
        structure = sf.structures[name]
        kind = TYPES[type(structure)]
        entry = structures[name] = {"kind": kind.wire}
        for key, attribute, _ in kind.fields:
            value = structure if attribute is None else getattr(structure, attribute)
            if key == kind.base:
                value = sf.base_of[name]
            elif isinstance(value, _Tensor):
                value = _dump_by_entry(getattr(value, value._nested))
            if value is not None:
                entry[key] = value
    doc = {"version": sf.version, "structures": structures}
    return (json.JSONEncoder(separators=(",", ":")).encode(doc) + "\n").encode()


def _escaped_names_file() -> StructureFile:
    """Names that need JSON escapes, on entries and in ``base_of``, and one array (the
    algebra's ``mu``) shared by three entries."""
    alg, coalg = octonions(), lie_only_coalgebra()
    names = ['quote"d', "back\\slash", "control\x01\t", "non-ascii \u00e9\u2202\U0001d400"]
    structures = {names[0]: alg, names[1]: regular_module(alg, "left"),
                  names[2]: regular_module(alg, "right"), names[3]: coalg,
                  "comodule\n": regular_comodule(coalg), "map\u2028": alg.alpha}
    bases = {names[1]: names[0], names[2]: names[0], "comodule\n": names[3]}
    return StructureFile(1, structures, bases)


def _writer_cases() -> list:
    from homstruct.catalog import entries
    from homstruct.cli import _catalog_file

    cases = [_catalog_file(entry) for entry in entries()]
    for n, m in ((0, 0), (0, 2), (2, 0), (3, 2)):
        cases.append(StructureFile(1, *_written_structures(n, m, random.Random(n + 7 * m))[:2]))
    return cases + [_escaped_names_file()]


class _StringsOnly:
    """An encoder that refuses anything but a string, as ``serialize`` must use it."""

    def __init__(self, encoder):
        self.encoder, self.seen = encoder, []

    def encode(self, value):
        assert type(value) is str, value
        self.seen.append(value)
        return self.encoder.encode(value)


def test_serialize_is_the_encoder_on_the_nested_list_document(monkeypatch):
    encoder = _StringsOnly(fileformat._ENCODER)
    monkeypatch.setattr(fileformat, "_ENCODER", encoder)
    for sf in _writer_cases():
        written = serialize(sf)
        assert written == _encoded(sf), sorted(sf.structures)
        assert serialize(parse_bytes(written)) == written
    assert encoder.seen and 'quote"d' in encoder.seen


def test_an_array_shared_by_tuple_is_formatted_once_and_a_parsed_one_never(monkeypatch):
    formatted, text = [], fileformat._text

    def formatting(tensor):  # a tensor is formatted when it first keeps its text
        fresh = "text" not in vars(tensor)
        written = text(tensor)
        if fresh and "text" in vars(tensor):
            formatted.append(tensor)
        return written

    monkeypatch.setattr(fileformat, "_text", formatting)
    structures, _, _ = _written_structures(3, 2, random.Random(5))
    alg, coalg = structures["A"], structures["C"]
    sf = StructureFile(1, {"a": alg, "l": regular_module(alg, "left"),
                           "r": regular_module(alg, "right"), "c": coalg,
                           "k": regular_comodule(coalg)}, {"l": "a", "r": "a", "k": "c"})
    data = serialize(sf)
    # each distinct array once, in the order written; alg and coalg share one alpha
    assert list(map(id, formatted)) == list(map(id, [alg.mu, alg.alpha, coalg.delta, coalg.gamma]))
    for tensor in formatted:  # each keeps its one text and no nested numeral list
        assert type(vars(tensor)["text"]) is str
        assert not [value for value in vars(tensor).values() if type(value) is list]
    formatted.clear()
    parsed = parse_bytes(data)
    assert serialize(parsed) == data and formatted == []
    for structure in parsed.structures.values():
        assert not [t for t in _tensors(structure) if "text" in vars(t)]


def test_only_fileformat_keeps_array_text_and_only_laws_holds_the_term_grammar():
    built = octonions()
    parsed = parse_bytes(serialize(single_structure_file("o", built))).get("o")
    for _ in range(2):  # a second write keeps nothing more
        for alg in (built, parsed):
            serialize(single_structure_file("o", alg))
    for tensor in (built.mu, built.alpha):  # one kept text, the string written
        assert [type(vars(tensor).get(key)) for key in ("array", "text")] == [type(None), str]
    for tensor in (parsed.mu, parsed.alpha):  # the array read, and no text
        assert [type(vars(tensor).get(key)) for key in ("array", "text")] == [list, type(None)]
    moved = ("_parse", "untwisted", "construct", "rebuild", "compose", "_join", "_term")
    assert [name for name in moved if hasattr(exact, name)] == []
    assert not hasattr(exact._Tensor, "text") and not hasattr(exact._Tensor, "wire")
    assert all(hasattr(laws, name) for name in moved[:5]) and hasattr(fileformat, "_join")


def test_a_module_or_comodule_missing_from_base_of_is_format_error():
    structures, bases, _ = _written_structures(2, 2, random.Random(1))
    for name in ("L", "K"):
        others = {key: ref for key, ref in bases.items() if key != name}
        with pytest.raises(FormatError, match=f"^{name}: base_of names None, not the entry"):
            serialize(StructureFile(1, structures, others))


def test_a_base_of_naming_an_entry_of_the_other_kind_is_format_error():
    # written, such a file would fail to parse: "algebra 'C' not found"
    structures, bases, _ = _written_structures(2, 2, random.Random(2))
    for name, wrong in (("L", "C"), ("K", "A")):
        with pytest.raises(FormatError, match=f"^{name}: base_of names '{wrong}', not the entry"):
            serialize(StructureFile(1, structures, {**bases, name: wrong}))


def test_a_base_of_naming_another_base_is_format_error_and_an_equal_one_is_not():
    # written, such a file would parse to a module over the other base
    structures, bases, _ = _written_structures(2, 2, random.Random(3))
    for name, other, own in (("L", "A_neg", "A"), ("K", "C_neg", "C")):
        assert structures[other] != structures[own]
        with pytest.raises(FormatError, match=f"^{name}: base_of names '{other}', not the entry"):
            serialize(StructureFile(1, structures, {**bases, name: other}))
    # an equal base held by another object is the base: the file reads back equal
    copies = {"A_copy": dataclasses.replace(structures["A"]),
              "C_copy": dataclasses.replace(structures["C"])}
    sf = StructureFile(1, {**structures, **copies}, {**bases, "L": "A_copy", "K": "C_copy"})
    back = parse_bytes(serialize(sf))
    assert back.get("L") == structures["L"] and back.get("K") == structures["K"]
    assert back.base_of["L"] == "A_copy" and back.base_of["K"] == "C_copy"


def test_serialize_of_every_catalogue_entry_matches_the_per_entry_writer():
    from homstruct import catalog
    from homstruct.cli import _catalog_file

    for entry in catalog.entries():
        sf = _catalog_file(entry)  # what ``catalog export`` writes
        assert serialize(sf) == _serialize_by_entry(sf), entry.name
    empty = catalog.get("empty_module_over_dual_numbers").payload
    assert empty.dim_mod == 0 and empty.action.shape == (2, 0, 0)


def test_serialize_of_a_term_too_long_to_write_is_format_error():
    limit = sys.get_int_max_str_digits()
    long = 10**4400
    for value in (long, -long, Fraction(1, long), Fraction(long + 1, 3)):
        sf = single_structure_file("m", LinearMap.from_rows([[0, value], [1, 0]]))
        with pytest.raises(FormatError, match=f"more than {limit} digits"):
            serialize(sf)


# --- hostile input ----------------------------------------------------------------

CORPUS_BYTES = (DATA / "corpus.json").read_bytes()
TENSOR_FIELDS = ("mul", "alpha", "delta", "gamma", "matrix", "beta", "action", "delta_m", "gamma_m")


def _scalar_slots(doc) -> list[tuple]:
    """The key-and-index path of every rational entry in a decoded document."""
    slots = []

    def walk(value, path):
        if isinstance(value, list):
            for i, x in enumerate(value):
                walk(x, path + (i,))
        else:
            slots.append(path)

    for name, entry in doc["structures"].items():
        for field in TENSOR_FIELDS:
            if field in entry:
                walk(entry[field], ("structures", name, field))
    return slots


def _mutated_bytes():
    """A canonical file with bytes overwritten, dropped or inserted."""
    edit = st.tuples(
        st.integers(0, len(CORPUS_BYTES)), st.integers(0, 4), st.binary(max_size=4)
    )

    def apply(edits):
        data = CORPUS_BYTES
        for at, drop, insert in edits:
            data = data[:at] + insert + data[at + drop :]
        return data

    return st.lists(edit, min_size=1, max_size=3).map(apply)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(max_size=200), _mutated_bytes()))
def test_any_bytes_parse_or_fail_with_format_error(data):
    try:
        sf = parse_bytes(data)
    except FormatError:
        return
    assert isinstance(sf, StructureFile)


NUMERALS = st.one_of(
    st.fractions(max_denominator=50).map(format_rational),
    st.from_regex(r"-?[0-9]{1,3}(/[0-9]{1,2})?", fullmatch=True),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | NUMERALS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=100, deadline=None)
@given(st.data(), JSON_VALUES)
def test_one_replaced_scalar_is_format_error_or_a_canonical_file(data, value):
    doc = json.loads(CORPUS_BYTES)
    *path, last = data.draw(st.sampled_from(_scalar_slots(doc)))
    slot = doc
    for key in path:
        slot = slot[key]
    slot[last] = value
    mutated = (json.dumps(doc, separators=(",", ":")) + "\n").encode()
    try:
        sf = parse_bytes(mutated)
    except FormatError:
        return
    once = serialize(sf)
    assert serialize(parse_bytes(once)) == once
    if isinstance(value, str) and value == format_rational(Fraction(value)):
        assert once == mutated


# --- arrays shared with the base --------------------------------------------------

PAIRS = {"hom_module": (("beta", "alpha"), ("action", "mul")),
         "hom_comodule": (("beta", "alpha"), ("delta_m", "delta"), ("gamma_m", "gamma"))}
FIELDS = {"mul": "mu", "action": "action", "delta_m": "delta_m", "gamma_m": "gamma_m"}


def _entry_tuple(structure, field: str):
    tensor = getattr(structure, FIELDS.get(field, field))
    return getattr(tensor, tensor._nested)


def test_a_module_array_equal_to_its_bases_is_the_bases_tuple():
    sf = parse_file(DATA / "corpus.json")
    right = serialize(single_structure_file("m", regular_module(octonions(), "right"),
                                            ("a", octonions())))
    for name, kind in [("dual_regular", "hom_module"), ("primitive2_regular", "hom_comodule"),
                       ("poisson_dual4_regular", "hom_comodule")]:
        structure = sf.get(name)
        base = sf.get(sf.base_of[name])
        for own, of in PAIRS[kind]:
            assert _entry_tuple(structure, own) is _entry_tuple(base, of), (name, own)
            # and both tensors keep the base's one JSON array
            mine, theirs = (getattr(s, FIELDS.get(f, f)) for s, f in ((structure, own), (base, of)))
            assert vars(mine)["array"] is vars(theirs)["array"], (name, own)
    structure = parse_bytes(right).get("m")
    assert structure.action.a is structure.algebra.mu.c
    assert structure.beta.entries is structure.algebra.alpha.entries


def test_an_unequal_module_array_is_read_on_its_own():
    one = {**ALGEBRA, "mul": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]]}
    module = {"kind": "hom_module", "algebra": "a", "side": "left", "dim": 2,
              "beta": [["1", "0"], ["0", "2"]], "action": [[["1", "0"], ["0", "1"]]] * 2}
    sf = parse_bytes(json.dumps({"version": 1, "structures": {"a": one, "m": module}}).encode())
    m, a = sf.get("m"), sf.get("a")
    assert m.action.a is not a.mu.c and m.beta.entries is not a.alpha.entries
    assert m.action.a[0] == a.mu.c[0] and m.action.a[1] != a.mu.c[1]


def test_an_array_equal_to_its_bases_under_other_dims_keeps_its_shape_error():
    # A dim-3 module whose arrays are the dim-2 algebra's, byte for byte.
    module = {"kind": "hom_module", "algebra": "a", "side": "left", "dim": 3,
              "beta": ALGEBRA["alpha"], "action": ALGEBRA["mul"]}
    assert _shape_error({"a": ALGEBRA, "m": module}) == "m: expected 3 rows"
    module["beta"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    assert _shape_error({"a": ALGEBRA, "m": module}) == "m: expected 3 rows"
    coalgebra = {"kind": "hom_poisson_coalgebra", "dim": 2, "delta": ALGEBRA["mul"],
                 "gamma": ALGEBRA["mul"], "alpha": ALGEBRA["alpha"], "cocommutative": False}
    comodule = {"kind": "hom_comodule", "coalgebra": "c", "structure": "coassociative", "dim": 3,
                "beta": module["beta"], "delta_m": ALGEBRA["mul"]}
    assert _shape_error({"c": coalgebra, "m": comodule}) == "m: expected 3 planes"


@pytest.mark.parametrize("field", ["beta", "action"])
def test_a_module_array_off_its_bases_by_a_bad_numeral_reports_it(field, tmp_path, capsys):
    module = {"kind": "hom_module", "algebra": "a", "side": "left", "dim": 2,
              "beta": ALGEBRA["alpha"], "action": ALGEBRA["mul"]}
    bad = json.loads(json.dumps(module[field]).replace('"1"', '"01"', 1))
    body = json.dumps({"version": 1, "structures": {"a": ALGEBRA,
                                                    "f": {**module, field: bad}}})
    _rejects(body, "malformed rational '01'", tmp_path, capsys)


class _Counted(list):
    """A JSON array that counts the comparisons it makes."""

    calls = 0

    def __eq__(self, other):
        _Counted.calls += 1
        return list.__eq__(self, other)


def test_many_modules_over_one_base_compare_each_array_once(monkeypatch):
    import homstruct.fileformat as fileformat

    def counted(pairs):
        return fileformat._unique_keys(
            [(key, _Counted(value) if isinstance(value, list) else value) for key, value in pairs]
        )

    monkeypatch.setattr(fileformat, "_DECODER", json.JSONDecoder(object_pairs_hook=counted))
    k, near = 40, [[["1", "0"], ["0", "1"]], [["1", "0"], ["0", "2"]]]
    # Half are regular; the other half share one array that differs from the
    # base's in its last entry only, the costliest case for a comparison.
    structures = {"a": ALGEBRA}
    for i in range(k):
        action = ALGEBRA["mul"] if i % 2 else near
        structures[f"m{i}"] = {"kind": "hom_module", "algebra": "a", "side": "left", "dim": 2,
                               "beta": ALGEBRA["alpha"], "action": action}
    _Counted.calls = 0
    sf = fileformat.parse_bytes(json.dumps({"version": 1, "structures": structures}).encode())
    assert _Counted.calls == 2 * k
    base, modules = sf.get("a"), [sf.get(f"m{i}") for i in range(k)]
    assert [m.action.a is base.mu.c for m in modules] == [i % 2 == 1 for i in range(k)]
    assert all(m.beta.entries is base.alpha.entries for m in modules)
