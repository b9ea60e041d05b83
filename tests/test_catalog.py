import hashlib
from fractions import Fraction
from functools import cache

import pytest

from corpus import random_structure
from homstruct import axioms, check_left_hom_alternative
from homstruct.catalog import (
    DeterministicRng,
    OCTONION_TRIPLES,
    coleibniz_failing_coalgebra,
    dual_numbers,
    entries,
    get,
    grouplike_coalgebra,
    lie_only_coalgebra,
    matrix_algebra,
    noncocommutative_coalgebra,
    octonions,
    poisson_dual_dim4,
    primitive_coalgebra,
    zero_algebra,
)
from homstruct.cli import _catalog_file
from homstruct.coalgebras import check_hom_poisson_coalgebra
from homstruct.errors import DimensionMismatch
from homstruct.exact import LinearMap
from homstruct.fileformat import serialize
from homstruct import HomAlgebra, check_endomorphism, check_hom_associative, yau_twist
from reference_eval import add, basis, is_zero, mul, neg, point, sub


# quaternion-pair multiplication, kept independent of the packaged table
def _qmul(x, y):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def _qconj(x):
    return (x[0], -x[1], -x[2], -x[3])


def _octonion_mul(x, y):
    a, b = x[:4], x[4:]
    c, d = y[:4], y[4:]
    z1 = tuple(p - q for p, q in zip(_qmul(a, c), _qmul(_qconj(d), b)))
    z2 = tuple(p + q for p, q in zip(_qmul(d, a), _qmul(b, _qconj(c))))
    return z1 + z2


def test_every_expected_verdict_matches_live_checkers():
    for entry in entries():
        reports = axioms.verify(entry.payload, list(entry.expected_verdicts))
        assert {r.axiom: r.holds for r in reports} == entry.expected_verdicts, entry.name


def test_octonion_table_matches_cayley_dickson_doubling():
    octo = octonions()
    for i in range(8):
        x = tuple(1 if k == i else 0 for k in range(8))
        for j in range(8):
            y = tuple(1 if k == j else 0 for k in range(8))
            expected = tuple(Fraction(v) for v in _octonion_mul(x, y))
            assert octo.mu.c[i][j] == expected, (i, j)


def test_octonion_pinned_products():
    octo = octonions()
    e = lambda i: basis(8, i)

    def product(i, j):
        return list(octo.mu.c[i][j])

    assert product(1, 2) == e(3)
    assert product(2, 1) == neg(e(3))
    assert product(1, 4) == e(5)
    assert product(2, 4) == e(6)
    assert product(3, 4) == e(7)
    for i in range(1, 8):
        assert product(i, i) == neg(e(0))
        assert product(0, i) == e(i)
        assert product(i, 0) == e(i)
    assert len(OCTONION_TRIPLES) == 7


def test_octonion_associator_is_alternating_at_random_points():
    octo = octonions()
    mu = octo.mu

    @cache  # x y and x z recur among the five associators of a point
    def product(x, y):
        return tuple(mul(mu, x, y))

    def assoc(x, y, z):
        return sub(product(x, product(y, z)), product(product(x, y), z))

    rng = DeterministicRng(31415)
    for _ in range(100):
        x, y, z = (tuple(point(rng, 8)) for _ in range(3))
        xyz = assoc(x, y, z)
        assert is_zero(add(xyz, assoc(y, x, z)))
        assert is_zero(add(xyz, assoc(x, z, y)))
        assert is_zero(assoc(x, x, z))
        assert is_zero(assoc(x, y, y))


def test_matrix_algebra_bounds_and_unit():
    one = matrix_algebra(1)
    assert one.dim == 1
    assert list(one.mu.c[0][0]) == basis(1, 0)
    assert matrix_algebra(3).dim == 9
    with pytest.raises(DimensionMismatch):
        matrix_algebra(4)


def test_matrix3_is_hom_associative():
    assert check_hom_associative(matrix_algebra(3)).holds


def test_dual_numbers_lambda_family():
    alg, phi1 = dual_numbers(1)
    assert phi1.is_identity()
    for lam in (0, 1, 2, -1, Fraction(3, 2)):
        alg, phi = dual_numbers(lam)
        assert check_endomorphism(alg, phi).holds
        twisted = yau_twist(alg, phi)
        assert check_left_hom_alternative(twisted).holds


def test_poisson_examples_cover_required_cases():
    examples = [grouplike_coalgebra(), primitive_coalgebra(), coleibniz_failing_coalgebra(),
                noncocommutative_coalgebra(), poisson_dual_dim4(), lie_only_coalgebra()]
    assert len(examples) >= 3
    grouplike = examples[0]
    assert grouplike.dim == 1 and check_hom_poisson_coalgebra(grouplike).holds
    primitive = examples[1]
    assert primitive.dim == 2 and check_hom_poisson_coalgebra(primitive).holds
    failing = examples[2]
    assert not failing.cocommutative_expected
    assert not check_hom_poisson_coalgebra(failing).holds


def test_random_structure_is_deterministic():
    a = random_structure(1, 2, "mul")
    b = random_structure(1, 2, "mul")
    assert a == b
    assert random_structure(1, 2, "mul") != random_structure(2, 2, "mul")


def test_random_structure_known_first_values():
    # frozen output of the documented generator constants (seed 1)
    rng = DeterministicRng(1)
    assert [rng.int_between(-2, 2) for _ in range(8)] == [2, 1, -1, -2, 2, -2, -2, 0]
    rng = DeterministicRng(1)
    assert [str(rng.point_entry()) for _ in range(4)] == ["1", "-1", "-4/3", "1/2"]


def test_random_structures_mostly_fail_axioms():
    failures = 0
    for seed in range(30):
        alg = random_structure(9000 + seed, 3, "algebra")
        if not check_left_hom_alternative(alg).holds:
            failures += 1
    assert failures > 15


def test_zero_dim_structures_vacuously_hold():
    alg = HomAlgebra(0, random_structure(5, 0, "mul"), LinearMap.from_rows([]))
    assert check_left_hom_alternative(alg).holds
    assert zero_algebra(0).dim == 0


def test_random_structure_bounds():
    with pytest.raises(DimensionMismatch):
        random_structure(1, 5, "mul")
    with pytest.raises(DimensionMismatch):
        random_structure(1, 2, "nonsense")


def test_lookup_helpers():
    assert "octonions" in [e.name for e in entries()]
    assert get("octonions").payload.dim == 8
    with pytest.raises(KeyError):
        get("no_such_entry")


def test_catalogue_is_built_once_and_read_only():
    assert get("octonions") is get("octonions")
    entry = get("matrix2")
    with pytest.raises(TypeError):
        entry.expected_verdicts["LEFT_HOM_ALT"] = False
    assert all(a is b for a, b in zip(entries(), entries()))


# Every entry's `catalog export` bytes (SHA-256) and pinned verdicts, in
# catalogue order: restating an example must leave its bytes unchanged.
_ALG = {"LEFT_HOM_ALT": True, "RIGHT_HOM_ALT": True, "HOM_ASSOC": True}
CATALOGUE_PINS = [
    ("zero2", "f3f72e89be4ce4e3239aab1475af33dabab6d58d2ce473822ff89cc656b698df",
     _ALG),
    ("group_algebra_z2", "1fb8868eab1ace0ff1699e9242820fac06bbdc3dd0046d02471bcc0a6f816611",
     _ALG),
    ("dual_numbers", "771aebf061bc96a0436366d7e26575f669e25d64d9fd794a6bf27c2d818e892c",
     _ALG),
    ("dual_numbers_twisted", "b02501d889a233d47d7da7653ffbdf5edc8a68afbab593b12b0e0f945b9c86ee",
     _ALG),
    ("matrix2", "4096f9df050eaa6e4ff583ee83c4920ce93f1f7b58bd895ee6a1784068f73ae9",
     _ALG),
    ("matrix2_twisted", "6fdca3c8b59331a012614fcdb9db232ff4340b8e99b8d33f998d0ee737a97016",
     _ALG),
    ("octonions", "9bac25b3736f26c739b28c615788fb3d92733950a2bcd4c4166c92300a64e92d",
     {**_ALG, "HOM_ASSOC": False}),
    ("non_alternative2", "39a8a88f718a2bca64d9709d3ffcc17293303f7e17e39eac910f6d8cf8df96d0",
     {"LEFT_HOM_ALT": False, "RIGHT_HOM_ALT": False, "HOM_ASSOC": False}),
    ("dual_regular_module", "75b7ae18908051f286d94a39a4e023fc7a8cc416e6b314fdf06e06a43a96ee3d",
     {"LEFT_MODULE": True}),
    ("dual_twisted_regular_module", "6e56e5e18bd1276fe880c56764d4ebd790ceccdb32a93e20d371bd7c195c53e6",
     {"LEFT_MODULE": True}),
    ("matrix2_regular_module", "b7f388734f0d24891ef75976c7b4f9b65d7f90909cda02e2de015947a3f15f47",
     {"LEFT_MODULE": True}),
    ("octonion_regular_module", "868a2029bf0962103b7976ff7cef54b6144e04644bb0977f532011e585622689",
     {"LEFT_MODULE": True}),
    ("octonion_regular_module_corrupt", "cd3909ef2e6ddf72f46a33efdf9a6fd884b204f0d067b655434ae600201d875c",
     {"LEFT_MODULE": False}),
    ("octonion_regular_right_module", "a0e0aa63b5855d6a2864eebf5914e16d68650ed1c4dc0fb220a6a448b9ad75bb",
     {"RIGHT_MODULE": True}),
    ("zero_module_over_octonions", "d5262dfbf8517f53ba9a0782b18950b545c63cffd56e3f3d0b54216b4ce4aadf",
     {"LEFT_MODULE": True}),
    ("empty_module_over_dual_numbers", "bfa95b4ae7e2b97560af6b6df7492fcf292d931a09be816d519cd5476a3bd9c6",
     {"LEFT_MODULE": True}),
    ("grouplike1", "9dc13e2a7e08208c16ca4855fe09beed9ea937364324a86a384768ac0400cd59",
     {"HOM_POISSON_COALGEBRA": True}),
    ("primitive2", "4a19da880473137c66ecf7afd4c50ca1a5751b70338cd88258f3f9b1367966a9",
     {"HOM_POISSON_COALGEBRA": True}),
    ("primitive2_twisted", "12dc73d7b59f35657f27a91eb6aede66d9044de027887f0c1613aaaf11da42c6",
     {"HOM_POISSON_COALGEBRA": True}),
    ("coleibniz_fail2", "7e2d3f6f5443270e84fc81e3b06b7570e377e2b61e2fc31ae7810a9abc6b61da",
     {"HOM_POISSON_COALGEBRA": False}),
    ("noncocommutative2", "9250a00f5884b519a006a149f968443a9d483a267f01daf3688591987f9819d9",
     {"HOM_POISSON_COALGEBRA": True}),
    ("poisson_dual4", "9038e6d762c97b19849964272de21b796e6964f0d953918613f0aab83261aba2",
     {"HOM_POISSON_COALGEBRA": True}),
    ("poisson_dual4_twisted", "96b59d53fb33f347a9329ec36926e1ee0d331cabe8ee360d57cb8c2da82c0dc7",
     {"HOM_POISSON_COALGEBRA": True}),
    ("lie_only2", "5902ede7d70d51c418d10b6763e0622c31b5c3100f2933781571ed743a43e2bb",
     {"HOM_POISSON_COALGEBRA": True}),
    ("lie_only2_twisted", "5f425ed31d5f165ad5b55e2361c40fcaab9365bcdee9606d80a05d072a3b4596",
     {"HOM_POISSON_COALGEBRA": True}),
    ("grouplike1_regular_comodule", "d23b9535103bef668f0984af5253b69f9a0ac15748927ba3e3ab4a77fc131b11",
     {"POISSON_COMODULE": True}),
    ("primitive2_regular_comodule", "1cfc3f0d2afc523bdc86bac0294c01031d990741044bcf14b7d4f5e5a63f0692",
     {"POISSON_COMODULE": True}),
    ("primitive2_twisted_regular_comodule", "bddda238ac9cda5abec40a67d03cb3936b4d9edc5935513b1e3b049cad91c4dd",
     {"POISSON_COMODULE": True}),
    ("poisson_dual4_regular_comodule", "bd8d8a4ced9d62f452c8366cd8218bd2743b4bcb8d5b0d62ee2086ac2e109867",
     {"POISSON_COMODULE": True}),
    ("poisson_dual4_twisted_regular_comodule", "41b9c3077ea384b684fbc080dd8b58abd9fc8af0d7b218a6210a9266ee604dbc",
     {"POISSON_COMODULE": True}),
    ("lie_only2_regular_comodule", "c25af2aa81216ab4206a0c0ae0e630c1aa2cfa9cfe684be8ac36d6fd7aec2d63",
     {"LIE_COMODULE": True}),
    ("lie_only2_twisted_regular_comodule", "74f2625b5e1339b8950cec42c685ae3f0aec51f69239e9d512890898ed9905da",
     {"LIE_COMODULE": True}),
    ("primitive2_line_comodule", "7f700ce90b8f804dd716f9a3dbe91e8a1d950b98cfc7343780f0057525948a6a",
     {"COASSOC_COMODULE": True}),
    ("poisson_dual4_comodule_corrupt", "989a09870b2323fa52a6f06b62b917fcab3e31b151a96ad1dfb5eb61d6069fef",
     {"POISSON_COMODULE": False}),
]


def test_every_export_and_verdict_map_is_pinned():
    assert [e.name for e in entries()] == [name for name, _, _ in CATALOGUE_PINS]
    for entry, (name, digest, verdicts) in zip(entries(), CATALOGUE_PINS):
        data = serialize(_catalog_file(entry))
        assert hashlib.sha256(data).hexdigest() == digest, name
        assert list(entry.expected_verdicts.items()) == list(verdicts.items()), name
