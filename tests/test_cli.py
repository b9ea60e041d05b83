import contextlib
import errno
import functools
import inspect
import io
import pathlib
import subprocess
import sys

import pytest

from homstruct import axioms, cli, laws
from homstruct.algebras import (
    HOM_ASSOC,
    LEFT_HOM_ALT,
    RIGHT_HOM_ALT,
    HomAlgebra,
    check_morphism,
    negate,
    opposite,
    yau_twist,
)
from homstruct.catalog import octonions
from homstruct.cli import main
from homstruct.coalgebras import (
    HOM_POISSON_COALGEBRA,
    HomPoissonCoalgebra,
    check_coalgebra_morphism,
    negate_coalgebra,
    opposite_coalgebra,
    yau_twist_coalgebra,
)
from homstruct.comodules import (
    COASSOC_COMODULE,
    LIE_COMODULE,
    POISSON_COMODULE,
    check_comodule_morphism,
    negate_poisson_comodule,
    twist_coassoc_comodule,
    twist_lie_comodule,
    twist_poisson_comodule,
)
from homstruct.exact import ComulTensor, LinearMap, MulTensor
from homstruct.fileformat import StructureFile, parse_file, single_structure_file, write_file
from homstruct.modules import (
    LEFT_MODULE,
    RIGHT_MODULE,
    check_module_morphism,
    negate_module,
    opposite_module,
    regular_module,
    twist_module,
)
from homstruct.report import format_report

DATA = pathlib.Path(__file__).parent / "data"
CORPUS = DATA / "corpus.json"


def run(*argv):
    return main([str(a) for a in argv])


def alone(tmp_path, name):
    """A file holding only the corpus entry ``name``, so no entry is over it."""
    path = tmp_path / f"{name}_alone.json"
    write_file(path, single_structure_file(name, parse_file(CORPUS).get(name)))
    return path


def exported_module(tmp_path):
    """A file holding only ``dual_regular_module`` and its base algebra."""
    path = tmp_path / "module.json"
    assert run("catalog", "export", "dual_regular_module", "--out", path) == 0
    return path


# --- verify -----------------------------------------------------------------

def test_verify_octonions_alternative_suite_passes(capsys):
    assert run("verify", CORPUS, "octonions", "--suite", "LEFT_HOM_ALT,RIGHT_HOM_ALT") == 0
    out = capsys.readouterr().out
    assert "LEFT_HOM_ALT: PASS" in out
    assert "RIGHT_HOM_ALT: PASS" in out


def test_verify_octonions_associativity_fails_with_witness(capsys):
    assert run("verify", CORPUS, "octonions", "--suite", "HOM_ASSOC") == 1
    out = capsys.readouterr().out
    assert "HOM_ASSOC: FAIL" in out
    assert "(1,2,4)" in out
    assert "-2" in out


def test_verify_all_defaults_to_kind_suite(capsys):
    assert run("verify", CORPUS, "octonions") == 1  # HOM_ASSOC fails
    assert run("verify", CORPUS, "dual_numbers") == 0
    assert run("verify", CORPUS, "dual_regular") == 0
    assert run("verify", CORPUS, "primitive2") == 0
    out = capsys.readouterr().out
    assert "HOM_POISSON_COALGEBRA: PASS" in out
    assert "COCOMMUTATIVITY: PASS" in out


def test_verify_comodule_and_witness_cap(capsys):
    assert run("verify", CORPUS, "primitive2_regular") == 0
    assert run("verify", CORPUS, "non_alternative2", "--max-witnesses", "2") == 1
    out = capsys.readouterr().out
    assert "showing 2" in out


def test_parser_is_built_once_and_keeps_no_state(capsys):
    from homstruct.cli import build_parser

    assert build_parser() is build_parser()
    assert run("verify", CORPUS, "non_alternative2", "--max-witnesses", "1") == 1
    assert "showing 1)" in capsys.readouterr().out
    assert run("verify", CORPUS, "non_alternative2") == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "showing 1)" not in out


def test_verify_malformed_rational_exits_2(capsys):
    assert run("verify", DATA / "bad_rational.json", "a") == 2
    assert "FORMAT_ERROR" in capsys.readouterr().err


def test_verify_unknown_name_and_axiom_exit_2(capsys):
    assert run("verify", CORPUS, "no_such_structure") == 2
    assert run("verify", CORPUS, "octonions", "--suite", "NOT_AN_AXIOM") == 2
    assert run("verify", CORPUS, "octonions", "--suite", "LEFT_MODULE") == 2


@pytest.mark.parametrize("suite", ["all,LEFT_MODULE", "LEFT_HOM_ALT,all", "all,all"])
def test_suite_all_stands_alone(capsys, suite):
    assert run("verify", CORPUS, "dual_regular", "--suite", suite) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "FORMAT_ERROR" in captured.err and "'all' stands alone" in captured.err
    assert "unknown" not in captured.err


def test_verify_missing_file_exits_2():
    assert run("verify", DATA / "missing.json", "a") == 2


def test_an_empty_suite_is_a_format_error(capsys):
    assert run("verify", CORPUS, "octonions", "--suite", ",") == 2
    captured = capsys.readouterr()
    assert captured.err == "error: FORMAT_ERROR: empty suite\n" and captured.out == ""


def test_twist_along_an_entry_that_is_not_a_map_exits_2(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run("twist", CORPUS, "dual_numbers", "--endo", "octonions", "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: FORMAT_ERROR: 'octonions' is not a linear map entry\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("verb", [
    ("twist", CORPUS, "dual_numbers", "--endo", "id"),
    ("transform", CORPUS, "octonions", "negate"),
    ("catalog", "export", "octonions"),
], ids=lambda verb: verb[0])
@pytest.mark.parametrize("missing", [False, True], ids=["directory", "under_a_missing_directory"])
def test_an_out_that_cannot_be_opened_is_one_error_line(tmp_path, capsys, verb, missing):
    out = tmp_path / "missing" / "x.json" if missing else tmp_path
    assert run(*verb, "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: [Errno ")
    assert captured.err.count("\n") == 1 and str(out) in captured.err
    assert list(tmp_path.iterdir()) == []


def test_a_full_stdout_exits_2(monkeypatch, capsys):
    class Full(io.TextIOBase):
        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(sys, "stdout", Full())
    assert run("catalog", "list") == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"


# --- twist ------------------------------------------------------------------

def test_twist_dual_numbers_then_verify(tmp_path, capsys):
    out = tmp_path / "twisted.json"
    assert run("twist", CORPUS, "dual_numbers", "--endo", "diag:1,2", "--out", out) == 0
    assert run("verify", out, "dual_numbers") == 0


def test_twist_with_named_map(tmp_path):
    out = tmp_path / "twisted.json"
    assert run("twist", CORPUS, "dual_numbers", "--endo", "dual_scale", "--out", out) == 0
    sf = parse_file(out)
    assert sf.get("dual_numbers").mu.c[0][1][1] == 2


def test_twist_with_non_endomorphism_exits_1(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run("twist", CORPUS, "dual_numbers", "--endo", "diag:2,1", "--out", out) == 1
    assert "NOT_ENDOMORPHISM" in capsys.readouterr().err
    assert run("twist", CORPUS, "dual_numbers", "--endo", "bad_scale", "--out", out) == 1


def test_twist_identity_is_byte_idempotent(tmp_path):
    out = tmp_path / "id.json"
    assert run("twist", CORPUS, "dual_numbers", "--endo", "id", "--out", out) == 0
    assert out.read_bytes() == CORPUS.read_bytes()


def test_twist_already_twisted_exits_1(tmp_path, capsys):
    first = tmp_path / "first.json"
    assert run("twist", CORPUS, "dual_numbers", "--endo", "diag:1,2", "--out", first) == 0
    second = tmp_path / "second.json"
    assert run("twist", first, "dual_numbers", "--endo", "diag:1,2", "--out", second) == 1
    assert "ALREADY_TWISTED" in capsys.readouterr().err


def test_twist_module_and_comodule(tmp_path):
    out = tmp_path / "m.json"
    assert run("twist", CORPUS, "dual_regular", "--out", out) == 0
    assert run("verify", out, "dual_regular") == 0
    out2 = tmp_path / "c.json"
    assert run("twist", CORPUS, "poisson_dual4_regular", "--out", out2) == 0
    assert run("verify", out2, "poisson_dual4_regular") == 0


def test_twist_module_over_a_non_multiplicative_alpha_exits_1(tmp_path, capsys):
    alg = HomAlgebra(8, octonions().mu, LinearMap.diagonal([2] * 8))
    src, out = tmp_path / "octo2.json", tmp_path / "out.json"
    for side in ("left", "right"):
        write_file(src, single_structure_file("m", regular_module(alg, side), ("A", alg)))
        assert run("twist", src, "m", "--out", out) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: NOT_ENDOMORPHISM: algebra alpha is not multiplicative" \
            " at 64 basis pairs\n" and captured.out == ""
        assert not out.exists()


def test_twist_module_rejects_endo_argument(tmp_path):
    assert run("twist", CORPUS, "dual_regular", "--endo", "id", "--out", tmp_path / "x.json") == 2


def test_twist_right_module_prints_mirror_note(tmp_path, capsys):
    exported = tmp_path / "right.json"
    assert run("catalog", "export", "octonion_regular_right_module", "--out", exported) == 0
    out = tmp_path / "twisted.json"
    assert run("twist", exported, "octonion_regular_right_module", "--out", out) == 0
    assert "mirrored composition" in capsys.readouterr().out
    assert run("verify", out, "octonion_regular_right_module") == 0


def test_twist_rename_keeps_original(tmp_path):
    out = tmp_path / "renamed.json"
    assert (
        run("twist", CORPUS, "dual_numbers", "--endo", "diag:1,2", "--out", out, "--as", "dual_tw")
        == 0
    )
    sf = parse_file(out)
    assert sf.get("dual_numbers").alpha.is_identity()
    assert not sf.get("dual_tw").alpha.is_identity()


@pytest.mark.parametrize("name", ["dual_regular_module_algebra", "dual_regular_module"])
def test_twist_as_an_existing_name_is_a_format_error(tmp_path, capsys, name):
    # Replacing the base algebra with the twisted module left a file that
    # failed its own verify ("algebra ... not found").
    exported = exported_module(tmp_path)
    capsys.readouterr()
    out = tmp_path / "o.json"
    assert run("twist", exported, "dual_regular_module", "--out", out, "--as", name) == 2
    captured = capsys.readouterr()
    assert "FORMAT_ERROR" in captured.err and name in captured.err and captured.out == ""
    assert not out.exists()
    assert run("twist", exported, "dual_regular_module", "--out", out, "--as", "fresh") == 0
    assert run("verify", out, "fresh") == 0


def test_twist_as_an_empty_name_is_a_format_error(tmp_path, capsys):
    # An entry named "" was written, so the file failed to parse at all;
    # with --out FILE that destroyed the input.
    exported = exported_module(tmp_path)
    before = exported.read_bytes()
    capsys.readouterr()
    out = tmp_path / "o.json"
    for target in (out, exported):
        assert run("twist", exported, "dual_regular_module", "--out", target, "--as", "") == 2
        captured = capsys.readouterr()
        assert "FORMAT_ERROR" in captured.err and captured.out == ""
    assert not out.exists()
    assert exported.read_bytes() == before


def test_twist_endo_requires_algebra_dim(tmp_path, capsys):
    assert run("twist", CORPUS, "dual_numbers", "--endo", "diag:1", "--out", tmp_path / "x.json") == 2
    assert run("twist", CORPUS, "dual_numbers", "--out", tmp_path / "x.json") == 2
    assert run("twist", CORPUS, "dual_numbers", "--endo", "diag:x,y", "--out", tmp_path / "x.json") == 2
    assert run("twist", CORPUS, "dual_numbers", "--endo", "diag:1/0,1", "--out", tmp_path / "x.json") == 2


@pytest.mark.parametrize("name, endo, error", [
    ("octonions", "diag:1,2", "diag endomorphism needs 8 entries"),
    ("octonions", "dual_scale", "endomorphism 'dual_scale' is not 8 x 8"),
    ("dual_numbers", "line_embed", "endomorphism 'line_embed' is not 2 x 2"),
    ("poisson_dual4", "diag:1,2", "diag endomorphism needs 4 entries"),
    ("poisson_dual4", "dual_scale", "endomorphism 'dual_scale' is not 4 x 4"),
])
def test_an_endo_of_the_wrong_size_is_a_format_error_in_either_form(tmp_path, capsys, name, endo, error):
    out = tmp_path / "x.json"
    assert run("twist", CORPUS, name, "--endo", endo, "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: FORMAT_ERROR: {error}\n" and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("entry", ["1.5", "1e3", " 2", "1_0", "2/4", "4/1", "-0", "1e5000", "9" * 4301,
                                   "1\n", "1/3\n", "1\u0663"])
def test_twist_diag_entries_follow_the_wire_grammar(tmp_path, capsys, entry):
    out = tmp_path / "x.json"
    assert run("twist", CORPUS, "dual_numbers", "--endo", f"diag:1,{entry}", "--out", out) == 2
    assert "FORMAT_ERROR" in capsys.readouterr().err
    assert not out.exists()
    assert run("twist", CORPUS, "dual_numbers", "--endo", "diag:1,-3/2", "--out", out) == 0


def scaled_algebra_file(path, name: str, factor: int):
    """A file holding the corpus algebra ``name`` with its ``mul`` times ``factor``."""
    alg = parse_file(CORPUS).get(name)
    mu = MulTensor.from_entries([[[factor * x for x in row] for row in plane] for plane in alg.mu.c])
    write_file(path, single_structure_file(name, HomAlgebra(alg.dim, mu, alg.alpha)))
    return path


def test_output_rational_past_the_digit_limit_is_format_error(tmp_path, capsys):
    # Entries of 2,201 digits parse; a witness or an entry that is a product
    # of two of them has ~4,400, more than CPython writes as text.
    big = 10**2200 + 1
    path = scaled_algebra_file(tmp_path / "big.json", "non_alternative2", big)
    assert run("verify", path, "non_alternative2", "--suite", "LEFT_HOM_ALT") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "FORMAT_ERROR" in captured.err and "more than 4300 digits" in captured.err
    path = scaled_algebra_file(tmp_path / "dual.json", "dual_numbers", big)
    out = tmp_path / "t.json"
    assert run("twist", path, "dual_numbers", "--endo", f"diag:1,{big}", "--out", out) == 2
    assert "more than 4300 digits" in capsys.readouterr().err
    assert not out.exists()
    assert run("twist", path, "dual_numbers", "--endo", "diag:1,2", "--out", out) == 0


# --- transform ----------------------------------------------------------------

def test_negate_twice_restores_bytes(tmp_path):
    once = tmp_path / "neg.json"
    twice = tmp_path / "negneg.json"
    assert run("transform", CORPUS, "octonions", "negate", "--out", once) == 0
    assert once.read_bytes() != CORPUS.read_bytes()
    assert run("transform", once, "octonions", "negate", "--out", twice) == 0
    assert twice.read_bytes() == CORPUS.read_bytes()


def test_opposite_octonions_still_left_alternative(tmp_path):
    out = tmp_path / "opp.json"
    assert run("transform", CORPUS, "octonions", "opposite", "--out", out) == 0
    assert run("verify", out, "octonions", "--suite", "LEFT_HOM_ALT,RIGHT_HOM_ALT") == 0


def test_opposite_of_commutative_structure_is_identity_on_bytes(tmp_path):
    # dual numbers are commutative, so reversing the inputs changes nothing
    src, out = alone(tmp_path, "dual_numbers"), tmp_path / "opp.json"
    assert run("transform", src, "dual_numbers", "opposite", "--out", out) == 0
    assert out.read_bytes() == src.read_bytes()


def test_negate_module_updates_base_algebra(tmp_path):
    exported = exported_module(tmp_path)
    out = tmp_path / "negmod.json"
    assert run("transform", exported, "dual_regular_module", "negate", "--out", out) == 0
    sf = parse_file(out)
    assert sf.get("dual_regular_module_algebra").mu.c[0][0][0] == -1
    assert run("verify", out, "dual_regular_module") == 0
    back = tmp_path / "back.json"
    assert run("transform", out, "dual_regular_module", "negate", "--out", back) == 0
    assert back.read_bytes() == exported.read_bytes()


def test_opposite_module_flips_side(tmp_path):
    out = tmp_path / "oppmod.json"
    assert run("transform", exported_module(tmp_path), "dual_regular_module", "opposite", "--out", out) == 0
    sf = parse_file(out)
    assert sf.get("dual_regular_module").side == "right"
    assert run("verify", out, "dual_regular_module") == 0


@pytest.mark.parametrize("name,op", [("dual_regular", "negate"), ("dual_regular", "opposite"),
                                     ("primitive2_regular", "negate")])
def test_transform_of_an_entry_over_a_shared_base_is_a_format_error(tmp_path, capsys, name, op):
    # The transform rewrites the base entry, so the corpus's other entries
    # over it (mod_beta2 and mod_beta3, line_comodule) changed meaning.
    out = tmp_path / "t.json"
    assert run("transform", CORPUS, name, op, "--out", out) == 2
    captured = capsys.readouterr()
    assert "FORMAT_ERROR" in captured.err and "shared" in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("name,op", [("dual_numbers", "negate"), ("dual_numbers", "opposite"),
                                     ("primitive2", "negate")])
def test_transform_of_a_base_entry_is_a_format_error(tmp_path, capsys, name, op):
    # Every module or comodule over the entry would change meaning with it:
    # negating dual_numbers turned dual_regular's LEFT_MODULE from PASS to FAIL.
    out = tmp_path / "t.json"
    assert run("transform", CORPUS, name, op, "--out", out) == 2
    captured = capsys.readouterr()
    assert f"error: FORMAT_ERROR: {name!r} is the base of " in captured.err and captured.out == ""
    assert not out.exists()


def test_opposite_module_over_dim_zero_algebra(tmp_path):
    from homstruct.catalog import zero_algebra
    from homstruct.exact import ActionTensor, LinearMap
    from homstruct.fileformat import serialize, single_structure_file, write_file
    from homstruct.modules import HomModule

    mod = HomModule(zero_algebra(0), 2, LinearMap.identity(2), ActionTensor.zero(0, 2, "left"), "left")
    src, out = tmp_path / "zero.json", tmp_path / "opp.json"
    write_file(src, single_structure_file("m", mod, ("z0", zero_algebra(0))))
    assert run("transform", src, "m", "opposite", "--out", out) == 0
    sf = parse_file(out)
    assert sf.get("m").side == "right" and sf.get("m").action.shape == (2, 0, 2)
    assert serialize(sf) == out.read_bytes()
    assert run("verify", out, "m") == 0


def test_negate_comodule_and_coalgebra(tmp_path):
    out = tmp_path / "negcom.json"
    assert run("transform", CORPUS, "poisson_dual4_regular", "negate", "--out", out) == 0
    assert run("verify", out, "poisson_dual4_regular") == 0
    out2 = tmp_path / "negco.json"
    assert run("transform", alone(tmp_path, "primitive2"), "primitive2", "negate", "--out", out2) == 0
    assert run("verify", out2, "primitive2") == 0


def test_opposite_comodule_unsupported(tmp_path, capsys):
    assert (
        run("transform", CORPUS, "poisson_dual4_regular", "opposite", "--out", tmp_path / "x.json")
        == 1
    )
    assert "KIND_MISMATCH" in capsys.readouterr().err


# --- the dispatch of every verb on every kind --------------------------------------

# One catalogue entry of each kind the verbs dispatch on, with the --endo it is twisted
# along (the algebra's and coalgebra's are an endomorphism and a coendomorphism).
KINDS = {
    "algebra": ("dual_numbers", "diag:1,2"),
    "coalgebra": ("primitive2", "diag:1,3"),
    "left module": ("dual_twisted_regular_module", "id"),
    "right module": ("octonion_regular_right_module", "id"),
    "coassociative comodule": ("primitive2_line_comodule", "id"),
    "lie comodule": ("lie_only2_twisted_regular_comodule", "id"),
    "poisson comodule": ("primitive2_twisted_regular_comodule", "id"),
    "linear map": ("phi", "id"),
}
# The verbs that write a file, and those that check and print a report.
WRITERS = {"twist --endo": ("twist", "--endo"), "twist": ("twist",),
           "transform negate": ("transform", "negate"), "transform opposite": ("transform", "opposite")}
CHECKERS = {"verify --suite all": ("verify", "--suite", "all"), "check-morphism": ("check-morphism",),
            "check-morphism --strict": ("check-morphism", "--strict")}
VERBS = {**WRITERS, **CHECKERS}
COMODULES = ("coassociative comodule", "lie comodule", "poisson comodule")
# The map every exported file holds, ``identity`` on the entry's own space.
IDENTITY = "identity"


def identity_on(entry) -> LinearMap:
    return LinearMap.identity(getattr(entry, "dim_mod", None) or entry.dim)


def suite(*ids):
    return lambda entry: axioms.verify(entry, list(ids))


def morphism(check, **strict):
    return lambda entry: [check(identity_on(entry), entry, entry, **strict)]


# The public function each dispatched pair runs, as a call on the entry.
DISPATCHED = {
    ("algebra", "twist --endo"): lambda a: yau_twist(a, LinearMap.diagonal([1, 2])),
    ("coalgebra", "twist --endo"): lambda c: yau_twist_coalgebra(c, LinearMap.diagonal([1, 3])),
    ("left module", "twist"): twist_module,
    ("right module", "twist"): twist_module,
    ("coassociative comodule", "twist"): twist_coassoc_comodule,
    ("lie comodule", "twist"): twist_lie_comodule,
    ("poisson comodule", "twist"): twist_poisson_comodule,
    ("algebra", "transform negate"): negate,
    ("algebra", "transform opposite"): opposite,
    ("coalgebra", "transform negate"): negate_coalgebra,
    ("coalgebra", "transform opposite"): opposite_coalgebra,
    ("left module", "transform negate"): negate_module,
    ("left module", "transform opposite"): opposite_module,
    ("right module", "transform negate"): negate_module,
    ("right module", "transform opposite"): opposite_module,
    **{(kind, "transform negate"): negate_poisson_comodule for kind in COMODULES},
    ("algebra", "verify --suite all"): suite(LEFT_HOM_ALT, RIGHT_HOM_ALT, HOM_ASSOC),
    ("coalgebra", "verify --suite all"): suite(HOM_POISSON_COALGEBRA),
    ("left module", "verify --suite all"): suite(LEFT_MODULE),
    ("right module", "verify --suite all"): suite(RIGHT_MODULE),
    ("coassociative comodule", "verify --suite all"): suite(COASSOC_COMODULE),
    ("lie comodule", "verify --suite all"): suite(LIE_COMODULE),
    ("poisson comodule", "verify --suite all"): suite(POISSON_COMODULE),
    # --strict reaches the module and comodule checks; algebra and coalgebra morphisms
    # always check alpha, so it is ignored there
    **{("algebra", verb): morphism(check_morphism) for verb in ("check-morphism", "check-morphism --strict")},
    **{("coalgebra", verb): morphism(check_coalgebra_morphism)
       for verb in ("check-morphism", "check-morphism --strict")},
    **{(kind, "check-morphism"): morphism(check_module_morphism) for kind in ("left module", "right module")},
    **{(kind, "check-morphism --strict"): morphism(check_module_morphism, strict=True)
       for kind in ("left module", "right module")},
    **{(kind, "check-morphism"): morphism(check_comodule_morphism) for kind in COMODULES},
    **{(kind, "check-morphism --strict"): morphism(check_comodule_morphism, strict=True)
       for kind in COMODULES},
}
# The dispatched pairs whose function refuses the entry (stated for left modules, or
# for poisson comodules).
REFUSED_BY_THE_FUNCTION = {("right module", "transform negate"), ("right module", "transform opposite"),
                           ("coassociative comodule", "transform negate"),
                           ("lie comodule", "transform negate")}
# Every other pair: the exit code and the error text.
REFUSED = {
    ("algebra", "twist"): (2, "FORMAT_ERROR: this twist needs --endo"),
    ("coalgebra", "twist"): (2, "FORMAT_ERROR: this twist needs --endo"),
    ("left module", "twist --endo"): (2, "FORMAT_ERROR: module twists take no endomorphism"),
    ("right module", "twist --endo"): (2, "FORMAT_ERROR: module twists take no endomorphism"),
    **{(kind, "twist --endo"): (2, "FORMAT_ERROR: comodule twists take no endomorphism")
       for kind in COMODULES},
    **{(kind, "transform opposite"): (1, "KIND_MISMATCH: comodules only support negation")
       for kind in COMODULES},
    ("linear map", "twist --endo"): (1, "KIND_MISMATCH: entry cannot be twisted"),
    ("linear map", "twist"): (1, "KIND_MISMATCH: entry cannot be twisted"),
    ("linear map", "transform negate"): (1, "KIND_MISMATCH: entry cannot be transformed"),
    ("linear map", "transform opposite"): (1, "KIND_MISMATCH: entry cannot be transformed"),
    ("linear map", "verify --suite all"): (2, "FORMAT_ERROR: structure kind cannot be verified"),
    **{("linear map", verb): (1, "KIND_MISMATCH: morphism endpoints have different or unsupported kinds")
       for verb in ("check-morphism", "check-morphism --strict")},
}


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """Each kind's entry exported once, as ``catalog export`` writes it (a linear map
    alone), with ``IDENTITY`` added."""
    folder, paths = tmp_path_factory.mktemp("exported"), {}
    for kind, (name, _) in KINDS.items():
        path = paths[kind] = folder / f"{name}.json"
        if kind == "linear map":
            write_file(path, single_structure_file(name, LinearMap.identity(2)))
        else:
            with contextlib.redirect_stdout(io.StringIO()):
                assert run("catalog", "export", name, "--out", path) == 0
        sf = parse_file(path)
        entry = sf.get(name)
        structures = {**sf.structures, IDENTITY: entry if kind == "linear map" else identity_on(entry)}
        write_file(path, StructureFile(sf.version, structures, sf.base_of))
    return paths


def outcome(kind, verb, src, out, capsys):
    """The exit code, stdout and stderr of ``verb`` on ``kind``'s entry in ``src``."""
    name, endo = KINDS[kind]
    command, *flags = VERBS[verb]
    if command == "check-morphism":
        code = run(command, src, IDENTITY, name, name, *flags)
    elif command == "verify":
        code = run(command, src, name, *flags)
    else:
        code = run(command, src, name, *flags, *([endo] if verb == "twist --endo" else []), "--out", out)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_every_kind_and_verb_pair_is_dispatched_or_refused():
    assert DISPATCHED.keys() | REFUSED.keys() == {(k, v) for k in KINDS for v in VERBS}
    assert not DISPATCHED.keys() & REFUSED.keys()


@pytest.mark.parametrize("verb", WRITERS)
@pytest.mark.parametrize("kind", KINDS)
def test_twist_and_transform_run_the_public_construction(exported, tmp_path, capsys, kind, verb):
    from homstruct.errors import KernelError

    name, src, out = KINDS[kind][0], exported[kind], tmp_path / "out.json"
    code, stdout, stderr = outcome(kind, verb, src, out, capsys)
    if (kind, verb) in REFUSED:
        want_code, text = REFUSED[kind, verb]
        assert (code, stderr, stdout) == (want_code, f"error: {text}\n", "")
        assert not out.exists()
        return
    sf = parse_file(src)
    if (kind, verb) in REFUSED_BY_THE_FUNCTION:
        with pytest.raises(KernelError) as refusal:
            DISPATCHED[kind, verb](sf.get(name))
        exc = refusal.value
        assert (code, stderr, stdout) == (1, f"error: {exc.code}: {exc}\n", "")
        assert not out.exists()
        return
    result = DISPATCHED[kind, verb](sf.get(name))
    assert code == 0 and stderr == ""
    note = "note: right-module twist uses the mirrored composition (algebra argument fed through alpha^2)\n"
    assert stdout == (note if (kind, verb) == ("right module", "twist") else "") + f"wrote {out}\n"
    written = parse_file(out)
    assert written.get(name) == result
    assert set(written.structures) == set(sf.structures)


@pytest.mark.parametrize("verb", CHECKERS)
@pytest.mark.parametrize("kind", KINDS)
def test_verify_and_check_morphism_run_the_public_check(exported, capsys, kind, verb):
    src = exported[kind]
    code, stdout, stderr = outcome(kind, verb, src, None, capsys)
    if (kind, verb) in REFUSED:
        want_code, text = REFUSED[kind, verb]
        assert (code, stderr, stdout) == (want_code, f"error: {text}\n", "")
        return
    reports = DISPATCHED[kind, verb](parse_file(src).get(KINDS[kind][0]))
    assert stderr == ""
    assert stdout == "".join(f"{line}\n" for report in reports for line in format_report(report, 16))
    assert code == (0 if all(report.holds for report in reports) else 1)


def test_every_dispatched_function_is_one_the_tracer_wraps():
    # perfbench's tracer swaps a wrapper in for each public function of these modules
    # wherever a module or a table holds it; a partial, lambda or tuple in a table would
    # drop that construction or check from traced runs without a word
    homes = {f"homstruct.{name}" for name in ("algebras", "modules", "coalgebras", "comodules")}
    for table in (cli._TWISTS, cli._TRANSFORMS, cli._MORPHISMS):
        for function in table.values():
            assert inspect.isfunction(function) and function.__module__ in homes
            assert not function.__name__.startswith("_")
            assert getattr(sys.modules[function.__module__], function.__name__) is function
    # the checkers too, but for the coalgebra part ids, checked by ``laws.check`` itself
    parts = set()
    for (kind, axiom), checker in axioms.AXIOMS.items():
        if isinstance(checker, functools.partial):
            assert (checker.func, checker.args, checker.keywords) == (laws.check, (), {"axiom": axiom})
            parts.add((kind, axiom))
        else:
            assert inspect.isfunction(checker) and checker.__module__ in homes
            assert not checker.__name__.startswith("_")
            assert getattr(sys.modules[checker.__module__], checker.__name__) is checker
    assert parts == {(HomPoissonCoalgebra, axiom) for axiom in (
        "DELTA_MULTIPLICATIVITY", "HOM_COASSOCIATIVITY", "SKEW_COSYMMETRY", "GAMMA_MULTIPLICATIVITY",
        "HOM_COJACOBI")}


def test_no_module_holds_a_traced_layer_whole():
    # perfbench's tracer also wraps a layer's calls to its own public functions once any
    # module holds that layer whole: ``from . import algebras`` in coalgebras.py once read
    # algebras.checks 1.5 per op instead of 0.5.  So the modules import from these by name.
    layers = {f"homstruct.{name}" for name in
              ("algebras", "modules", "coalgebras", "comodules", "fileformat")}
    for name, module in sorted(sys.modules.items()):
        if name.startswith("homstruct.") and module is not None:
            held = {value.__name__ for value in vars(module).values() if inspect.ismodule(value)}
            assert not held & layers, name


@pytest.mark.parametrize("kind", ["left module", "poisson comodule"])
def test_check_morphism_between_an_entry_and_its_base_is_a_kind_mismatch(exported, capsys, kind):
    name = KINDS[kind][0]
    base = parse_file(exported[kind]).base_of[name]
    for src, dst in ((name, base), (base, name)):
        assert run("check-morphism", exported[kind], IDENTITY, src, dst) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: KIND_MISMATCH: morphism endpoints have different or unsupported kinds\n")


# --- check-morphism --------------------------------------------------------------

def test_check_morphism_identity_and_zero(capsys):
    assert run("check-morphism", CORPUS, "dual_scale", "dual_numbers", "dual_numbers") == 0
    assert run("check-morphism", CORPUS, "zero_map2", "dual_numbers", "dual_numbers") == 0


def test_check_morphism_failure(capsys):
    assert run("check-morphism", CORPUS, "bad_scale", "dual_numbers", "dual_numbers") == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_module_morphism_via_cli():
    assert run("check-morphism", CORPUS, "dual_mul_map", "dual_regular", "dual_regular") == 0


def test_check_comodule_morphism_via_cli():
    assert run("check-morphism", CORPUS, "line_embed", "line_comodule", "primitive2_regular") == 1
    # kinds differ (coassociative vs poisson): precondition failure, not a crash


def test_strict_flag_changes_verdict():
    assert run("check-morphism", CORPUS, "unit_map1", "mod_beta2", "mod_beta3") == 0
    assert run("check-morphism", CORPUS, "unit_map1", "mod_beta2", "mod_beta3", "--strict") == 1


def test_check_morphism_with_non_map_entry_exits_2():
    assert run("check-morphism", CORPUS, "octonions", "dual_numbers", "dual_numbers") == 2


# --- catalog ----------------------------------------------------------------------

def test_catalog_list(capsys):
    assert run("catalog", "list") == 0
    out = capsys.readouterr().out
    assert "octonions" in out
    assert "HomAlgebra" in out


def test_catalog_export_matches_golden(capsys):
    assert run("catalog", "export", "octonions") == 0
    out = capsys.readouterr().out
    assert out.encode() == (DATA / "golden_octonions.json").read_bytes()


def test_catalog_export_module_includes_base(tmp_path):
    out = tmp_path / "mod.json"
    assert run("catalog", "export", "octonion_regular_module", "--out", out) == 0
    sf = parse_file(out)
    assert sf.get("octonion_regular_module").algebra == sf.get("octonion_regular_module_algebra")
    assert run("verify", out, "octonion_regular_module") == 0


def test_catalog_export_unknown_or_missing_name(capsys):
    assert run("catalog", "export", "not_a_thing") == 2
    assert run("catalog", "export") == 2
    captured = capsys.readouterr()
    assert captured.err.count("error: FORMAT_ERROR: ") == 2 and captured.out == ""
    assert "catalog export needs a name" in captured.err


def test_catalog_list_rejects_a_name_or_out(capsys, tmp_path):
    out = tmp_path / "y.json"
    assert run("catalog", "list", "extra") == 2
    assert run("catalog", "list", "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error: FORMAT_ERROR: ") == 2 and captured.out == ""
    assert not out.exists()


# --- console entry point ------------------------------------------------------------

def test_module_invocation_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "homstruct", "verify", str(CORPUS), "octonions",
         "--suite", "LEFT_HOM_ALT"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_a_closed_stdout_keeps_the_verdict_exit_code(tmp_path):
    # ~170 KB of witnesses, more than a pipe holds, so the writer meets the closed pipe.
    n = 10

    def cube(a):
        return [[[(a * i + 3 * j + 5 * k) % 7 - 3 for k in range(n)] for j in range(n)]
                for i in range(n)]

    alpha = [[f"{(i + 2 * j) % 3 - 1}/2" if (i + 2 * j) % 3 != 1 else "0" for j in range(n)]
             for i in range(n)]
    coalg = HomPoissonCoalgebra(n, ComulTensor.from_entries(cube(7)),
                                ComulTensor.from_entries(cube(2)), LinearMap.from_rows(alpha))
    path = tmp_path / "dense.json"
    write_file(path, single_structure_file("C", coalg))
    proc = subprocess.Popen(
        [sys.executable, "-m", "homstruct", "verify", str(path), "C", "--suite", "all"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b"HOM_POISSO"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_negative_max_witnesses_is_format_error(capsys):
    assert run("verify", CORPUS, "non_alternative2", "--max-witnesses", "-1") == 2
    assert run("check-morphism", CORPUS, "bad_scale", "dual_numbers", "dual_numbers",
               "--max-witnesses", "-15") == 2
    captured = capsys.readouterr()
    assert captured.err.count("FORMAT_ERROR") == 2 and captured.out == ""
    assert run("verify", CORPUS, "non_alternative2", "--max-witnesses", "0") == 1
    assert "showing 0" in capsys.readouterr().out


def test_suite_accepts_exactly_the_registered_ids():
    from homstruct.axioms import AXIOMS

    assert sorted(axiom for _, axiom in AXIOMS) == sorted([
        "LEFT_HOM_ALT", "RIGHT_HOM_ALT", "HOM_ASSOC", "LEFT_MODULE", "RIGHT_MODULE",
        "COCOMMUTATIVITY", "HOM_COASSOC_COALGEBRA", "DELTA_MULTIPLICATIVITY",
        "HOM_COASSOCIATIVITY", "HOM_LIE_COALGEBRA", "SKEW_COSYMMETRY", "GAMMA_MULTIPLICATIVITY",
        "HOM_COJACOBI", "HOM_COLEIBNIZ", "HOM_POISSON_COALGEBRA",
        "COASSOC_COMODULE", "LIE_COMODULE", "POISSON_COMODULE",
    ])


def test_coalgebra_part_id_runs_its_own_law(capsys):
    assert run("verify", CORPUS, "primitive2", "--suite", "HOM_COASSOCIATIVITY,SKEW_COSYMMETRY") == 0
    assert capsys.readouterr().out == "HOM_COASSOCIATIVITY: PASS\nSKEW_COSYMMETRY: PASS\n"
    assert run("verify", CORPUS, "primitive2_regular", "--suite", "HOM_COJACOBI") == 2


def counted_contractions(monkeypatch) -> list:
    """Patch the law core's ``contract`` to record each spec it is called with."""
    import homstruct.laws as laws

    calls, contract = [], laws.contract

    def counting(spec, *tensors, **kwargs):
        calls.append(spec)
        return contract(spec, *tensors, **kwargs)

    monkeypatch.setattr(laws, "contract", counting)
    return calls


def test_suite_is_resolved_before_any_law_is_evaluated(monkeypatch, capsys):
    calls = counted_contractions(monkeypatch)
    for suite in ("HOM_ASSOC,NOT_AN_AXIOM", "LEFT_HOM_ALT,HOM_ASSOC,LEFT_MODULE"):
        assert run("verify", CORPUS, "octonions", "--suite", suite) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "FORMAT_ERROR" in captured.err
    assert calls == []


def test_repeated_ids_and_parts_beside_their_aggregate_are_computed_once(
    monkeypatch, capsys, tmp_path
):
    calls = counted_contractions(monkeypatch)
    path = tmp_path / "coleibniz.json"
    assert run("catalog", "export", "coleibniz_fail2", "--out", path) == 0
    # (file, name, suite, the same work with repeats and covered parts dropped)
    cases = [
        (CORPUS, "non_alternative2", "HOM_ASSOC,LEFT_HOM_ALT,HOM_ASSOC", "HOM_ASSOC,LEFT_HOM_ALT"),
        (path, "coleibniz_fail2", "HOM_POISSON_COALGEBRA,HOM_COLEIBNIZ", "HOM_POISSON_COALGEBRA"),
        (path, "coleibniz_fail2", "HOM_COLEIBNIZ,HOM_POISSON_COALGEBRA,HOM_COLEIBNIZ",
         "HOM_POISSON_COALGEBRA"),
    ]
    capsys.readouterr()
    for file, name, suite, lean in cases:
        alone = {}
        for axiom in suite.split(","):
            assert run("verify", file, name, "--suite", axiom) == 1
            alone[axiom] = capsys.readouterr().out
        del calls[:]
        assert run("verify", file, name, "--suite", suite) == 1
        # Printed as if each id ran alone, repeats and all, byte for byte.
        assert capsys.readouterr().out == "".join(alone[axiom] for axiom in suite.split(","))
        whole = sorted(calls)
        del calls[:]
        assert run("verify", file, name, "--suite", lean) == 1
        capsys.readouterr()
        assert whole == sorted(calls), suite


# --- argv ---------------------------------------------------------------------

# Per verb: valid calls, a missing positional, a bad choice, an unknown option,
# both spellings of an option's value, and the verb's help; then the top level.
ARGV_TABLE = [
    ["verify", "{corpus}", "octonions", "--suite", "HOM_ASSOC", "--max-witnesses", "2"],
    ["verify", "{corpus}", "octonions", "--max-witnesses=1"],
    ["verify", "{corpus}", "non_alternative2", "--max-witnesses", "-1"],
    ["verify", "{corpus}", "octonions", "--max-witnesses", "x"],
    ["verify", "{corpus}", "octonions", "--max-witnesses"],
    ["verify", "{corpus}", "--", "octonions"],
    ["verify", "{corpus}"],
    ["verify"],
    ["verify", "{corpus}", "octonions", "--no-such-option"],
    ["verify", "{corpus}", "octonions", "extra"],
    ["verify", "{corpus}", "octonions", "--suite"],
    ["verify", "-h"],
    ["verify", "{corpus}", "octonions", "--help"],
    ["twist", "{corpus}", "dual_numbers", "--endo", "diag:1,2", "--out", "{out}"],
    ["twist", "{corpus}", "dual_numbers", "--endo=diag:1,2", "--out={out}", "--as", "tw"],
    ["twist", "{corpus}", "dual_numbers", "--endo", "id"],
    ["twist", "{corpus}", "--out", "{out}"],
    ["twist", "{corpus}", "dual_numbers", "--out", "{out}", "--bogus", "1"],
    ["twist", "--help"],
    ["transform", "{alone}", "dual_numbers", "negate", "--out", "{out}"],
    ["transform", "{corpus}", "octonions", "opposite", "--out={out}"],
    ["transform", "{corpus}", "octonions", "reverse", "--out", "{out}"],
    ["transform", "{corpus}", "octonions", "--out", "{out}"],
    ["transform", "{corpus}", "octonions", "negate", "--out", "{out}", "-x"],
    ["transform", "-h"],
    ["check-morphism", "{corpus}", "bad_scale", "dual_numbers", "dual_numbers", "--max-witnesses", "1"],
    ["check-morphism", "{corpus}", "dual_mul_map", "dual_regular", "dual_regular", "--strict",
     "--max-witnesses=3"],
    ["check-morphism", "{corpus}", "bad_scale", "dual_numbers"],
    ["check-morphism", "{corpus}", "bad_scale", "dual_numbers", "dual_numbers", "--lax"],
    ["check-morphism", "-h"],
    ["catalog", "list"],
    ["catalog", "export", "zero2"],
    ["catalog", "export", "zero2", "--out", "{out}"],
    ["catalog", "delete", "zero2"],
    ["catalog"],
    ["catalog", "list", "--out"],
    ["catalog", "list", "--verbose"],
    ["catalog", "-h"],
    [],
    ["-h"],
    ["--help"],
    ["verify-all", "{corpus}"],
    ["-x", "verify", "{corpus}", "octonions"],
]


def outcome_of(argv, capsys):
    """Exit code, stdout and stderr of ``main(argv)``."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", ARGV_TABLE, ids=lambda argv: " ".join(argv) or "(none)")
def test_argv_reads_as_the_top_level_parser_reads_it(argv, tmp_path, capsys, monkeypatch):
    from homstruct import cli

    out = tmp_path / "out.json"
    fields = {"corpus": CORPUS, "out": out, "alone": alone(tmp_path, "dual_numbers")}
    argv = [a.format(**fields) for a in argv]
    got = outcome_of(argv, capsys)
    written = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    try:
        parsed = cli.parse_args(argv)
    except SystemExit:
        parsed = None
    capsys.readouterr()
    with monkeypatch.context() as m:  # the reference: every argv through the top-level parser
        m.setattr(cli, "parse_args", cli.build_parser().parse_args)
        assert outcome_of(argv, capsys) == got
        assert (out.read_bytes() if out.exists() else None) == written
        if parsed is not None:
            assert cli.parse_args(argv) == parsed


def test_a_verb_s_arguments_are_parsed_once(monkeypatch):
    import argparse

    from homstruct import cli

    progs, parse = [], argparse.ArgumentParser.parse_known_args

    def recording(self, *args, **kwargs):
        progs.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recording)
    cli.parse_args(["verify", str(CORPUS), "octonions", "--max-witnesses=3"])
    cli.parse_args(["catalog", "export", "zero2"])
    assert progs == ["homstruct verify", "homstruct catalog"]


# --- README -----------------------------------------------------------------

def test_readme_cli_block_lists_exactly_the_parser_options():
    import re

    from homstruct.cli import build_parser

    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```\n", 2)[1]
    documented = {line.split()[1]: set(re.findall(r"--[a-z-]+", line)) for line in block.splitlines()}
    (verbs,) = [a for a in build_parser()._actions if a.choices and "verify" in a.choices]
    accepted = {
        verb: {o for a in sub._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
        for verb, sub in verbs.choices.items()
    }
    assert documented == accepted
