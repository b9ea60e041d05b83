import pathlib

import pytest

from homstruct import HomAlgebra, HomComodule, HomModule, HomPoissonCoalgebra
from homstruct.catalog import dual_numbers, lie_only_coalgebra, octonions
from homstruct.comodules import regular_comodule
from homstruct.errors import FormatError
from homstruct.fileformat import (
    NamedMap,
    StructureFile,
    parse_bytes,
    parse_file,
    serialize,
    single_structure_file,
)
from homstruct.modules import regular_module

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
    assert isinstance(sf.get("dual_scale"), NamedMap)
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


def test_map_without_rows_round_trips():
    body = (
        b'{"version":1,"structures":{"f":{"kind":"linear_map","dim_in":3,"dim_out":0,'
        b'"matrix":[]}}}\n'
    )
    sf = parse_bytes(body)
    assert sf.get("f").linear_map.shape == (0, 3)
    assert serialize(sf) == body


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
    ],
)
def test_other_invalid_documents(body):
    with pytest.raises(FormatError):
        parse_bytes(body.encode())


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
    sf = single_structure_file("m", NamedMap(phi))
    data = serialize(sf)
    assert b'"3/2"' in data
    assert parse_bytes(data).get("m").linear_map == phi


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


def test_deep_nesting_is_format_error():
    with pytest.raises(FormatError):
        parse_bytes(b"[" * 200_000)
    with pytest.raises(FormatError):
        parse_bytes(b'{"version":1,"structures":' + b"[" * 200_000 + b"]" * 200_000 + b"}")
