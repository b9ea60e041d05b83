"""The law table against the reference loops: reports must be equal, field for field.

``reference_checks`` holds the hand-unrolled ``Fraction`` checks the law rows
replaced.  Frozen reports compare axiom, verdict, total, witness indices,
residuals and parts, so ``==`` pins all of them.  Where the reference raises,
the library must raise the same error.
"""

import random
from fractions import Fraction

import pytest

import reference_checks as ref
from corpus import algebra_corpus, module_corpus, random_structure, tensor_entry
from homstruct import axioms, catalog
from homstruct.algebras import (
    HomAlgebra,
    check_endomorphism,
    check_hom_associative,
    check_left_hom_alternative,
    check_morphism,
    check_right_hom_alternative,
)
from homstruct.catalog import DeterministicRng
from homstruct.coalgebras import (
    COCOMMUTATIVITY,
    DELTA_MULTIPLICATIVITY,
    GAMMA_MULTIPLICATIVITY,
    HOM_COASSOC_COALGEBRA,
    HOM_COASSOCIATIVITY,
    HOM_COJACOBI,
    HOM_COLEIBNIZ,
    HOM_LIE_COALGEBRA,
    HOM_POISSON_COALGEBRA,
    SKEW_COSYMMETRY,
    HomPoissonCoalgebra,
    check_coalgebra_morphism,
    check_coendomorphism,
)
from homstruct.comodules import (
    KINDS,
    POISSON_COMODULE,
    HomComodule,
    check_coassoc_comodule,
    check_comodule_morphism,
    check_lie_comodule,
    check_poisson_comodule,
    regular_comodule,
)
from homstruct.errors import KernelError
from homstruct.exact import ActionTensor, CoactionTensor, ComulTensor, LinearMap, MulTensor
from homstruct.fileformat import FILE_VERSION, StructureFile, parse_bytes, serialize
from homstruct.modules import (
    HomModule,
    check_left_module,
    check_module_morphism,
    check_right_module,
    regular_module,
)
from homstruct.report import AxiomReport


def reference_coalgebra_suite(p: HomPoissonCoalgebra) -> dict:
    """What ``verify --suite ID`` ran for a coalgebra before the registry, by id:
    whole aggregates, with a part id picking its part out of one.  Each reference
    part is computed once, and the Poisson aggregate is put together from them as
    ``ref.check_hom_poisson_coalgebra`` puts it together."""
    cocommutativity = ref.check_cocommutativity(p)
    coassociative = ref.check_hom_coassociative(p)
    lie = ref.check_hom_lie_coalgebra(p)
    coleibniz = ref.check_hom_coleibniz(p)
    poisson = [cocommutativity] if p.cocommutative_expected else []
    poisson += [*coassociative.parts, *lie.parts, coleibniz]
    return {
        COCOMMUTATIVITY: cocommutativity,
        HOM_COASSOC_COALGEBRA: coassociative,
        DELTA_MULTIPLICATIVITY: coassociative.part(DELTA_MULTIPLICATIVITY),
        HOM_COASSOCIATIVITY: coassociative.part(HOM_COASSOCIATIVITY),
        HOM_LIE_COALGEBRA: lie,
        SKEW_COSYMMETRY: lie.part(SKEW_COSYMMETRY),
        GAMMA_MULTIPLICATIVITY: lie.part(GAMMA_MULTIPLICATIVITY),
        HOM_COJACOBI: lie.part(HOM_COJACOBI),
        HOM_COLEIBNIZ: coleibniz,
        HOM_POISSON_COALGEBRA: AxiomReport.aggregate(HOM_POISSON_COALGEBRA, poisson),
    }


def reference_comodule_laws(c: HomComodule) -> list:
    """``COMODULE_LAWS``' reference reports of ``c`` (or the error each raises), each
    reference part computed once: the Poisson aggregate is put together from the
    other two as ``ref.check_poisson_comodule`` puts it together."""
    coassociative, lie = outcome(ref.check_coassoc_comodule, c), outcome(ref.check_lie_comodule, c)
    if c.kind != "poisson":
        return [coassociative, lie, outcome(ref.check_poisson_comodule, c)]
    mixed = [ref._mixed_coleibniz_report(c), ref._mixed_comult_report(c)]
    parts = [*coassociative.parts, *lie.parts, *mixed]
    return [coassociative, lie, AxiomReport.aggregate(POISSON_COMODULE, parts)]


def reference_morphism(check, f, source, target) -> tuple:
    """The reference ``check`` of ``f`` (or the error it raises) without and with
    ``strict``, its parts computed once: without ``strict`` it reports the parts
    of its strict report but the last, beta's."""
    strict = outcome(check, f, source, target, strict=True)
    if isinstance(strict, type):
        return strict, strict
    return AxiomReport.aggregate(strict.axiom, strict.parts[:-1]), strict


ALGEBRA_LAWS = (
    (check_left_hom_alternative, ref.check_left_hom_alternative),
    (check_right_hom_alternative, ref.check_right_hom_alternative),
    (check_hom_associative, ref.check_hom_associative),
)
MODULE_LAWS = (
    (check_left_module, ref.check_left_module),
    (check_right_module, ref.check_right_module),
)
MODULE_MORPHISMS = (check_module_morphism, ref.check_module_morphism)
COMODULE_MORPHISMS = (check_comodule_morphism, ref.check_comodule_morphism)
COMODULE_LAWS = (
    (check_coassoc_comodule, ref.check_coassoc_comodule),
    (check_lie_comodule, ref.check_lie_comodule),
    (check_poisson_comodule, ref.check_poisson_comodule),
)


def outcome(check, *args, **kwargs):
    """The report, or the type of the kernel error raised instead."""
    try:
        return check(*args, **kwargs)
    except KernelError as exc:
        return type(exc)


def agree(pair, *args, **kwargs):
    new, old = pair
    got, want = outcome(new, *args, **kwargs), outcome(old, *args, **kwargs)
    assert got == want, (new.__name__, args)
    return want


def agree_lax_and_strict(pair, f, source, target):
    """``agree`` on a module or comodule morphism with ``strict`` False and True."""
    new, old = pair
    for strict, want in zip((False, True), reference_morphism(old, f, source, target)):
        assert outcome(new, f, source, target, strict=strict) == want, (new.__name__, strict)


# --- seeded random inputs ------------------------------------------------------

# Mixed scales: each operand over its own prime, with large numerators, so
# the terms of one law carry different denominators (LEFT_MODULE's
# act.act.alpha over 13^2 * 11 against mu.act.beta over 7 * 13 * 17).
OVER = {"mu": 7, "alpha": 11, "act": 13, "beta": 17, "delta": 7, "gamma": 19, "f": 23}
NO_SCALE: dict = {}


class Draw:
    """Entries from a seeded LCG: integers or small fractions, dense or sparse.

    Given ``over``, an entry is instead a numerator of up to 62 bits over it.
    """

    def __init__(self, seed: int):
        self.rng = DeterministicRng(seed)
        self.rational = seed % 3 == 1
        self.sparse = seed % 2 == 0

    def entry(self, over: int | None = None) -> Fraction:
        if self.sparse and self.rng.int_between(0, 2):
            return Fraction(0)
        if over is not None:
            return Fraction((self.rng.next_raw() << 31 | self.rng.next_raw()) - (1 << 61), over)
        return self.rng.point_entry() if self.rational else tensor_entry(self.rng)

    def matrix(self, rows: int, cols: int, over: int | None = None):
        return [[self.entry(over) for _ in range(cols)] for _ in range(rows)]

    def cube(self, a: int, b: int, c: int, over: int | None = None):
        return [self.matrix(b, c, over) for _ in range(a)]

    def map(self, dim_out: int, dim_in: int, over: int | None = None) -> LinearMap:
        return LinearMap.from_rows(self.matrix(dim_out, dim_in, over), dim_in)


def random_algebra(seed: int, dim: int, over: dict = NO_SCALE) -> HomAlgebra:
    d = Draw(seed)
    mu = MulTensor.from_entries(d.cube(dim, dim, dim, over.get("mu")))
    return HomAlgebra(dim, mu, d.map(dim, dim, over.get("alpha")))


def random_coalgebra(seed: int, dim: int, over: dict = NO_SCALE) -> HomPoissonCoalgebra:
    d = Draw(seed)
    return HomPoissonCoalgebra(
        dim,
        ComulTensor.from_entries(d.cube(dim, dim, dim, over.get("delta"))),
        ComulTensor.from_entries(d.cube(dim, dim, dim, over.get("gamma"))),
        d.map(dim, dim, over.get("alpha")),
        seed % 4 < 2,
    )


def random_comodule(
    seed: int, base: HomPoissonCoalgebra, dim: int, kind: str, over: dict = NO_SCALE
) -> HomComodule:
    d = Draw(seed)
    n = base.dim

    def coaction():
        return CoactionTensor.from_entries(d.cube(dim, n, dim, over.get("act")), n, dim)

    dm = coaction() if kind in ("coassociative", "poisson") else None
    gm = coaction() if kind in ("lie", "poisson") else None
    return HomComodule(base, dim, d.map(dim, dim, over.get("beta")), kind, dm, gm)


def random_module(
    seed: int, alg: HomAlgebra, dim: int, side: str, over: dict = NO_SCALE
) -> HomModule:
    d = Draw(seed)
    shape = (alg.dim, dim, dim) if side == "left" else (dim, alg.dim, dim)
    action = ActionTensor.from_entries(d.cube(*shape, over.get("act")), alg.dim, dim, side)
    return HomModule(alg, dim, d.map(dim, dim, over.get("beta")), action, side)


def zero_algebra(dim: int) -> HomAlgebra:
    return HomAlgebra(dim, MulTensor.zero(dim), LinearMap.zero(dim, dim))


def zero_coalgebra(dim: int) -> HomPoissonCoalgebra:
    return HomPoissonCoalgebra(
        dim, ComulTensor.zero(dim), ComulTensor.zero(dim), LinearMap.zero(dim, dim), True
    )


def zero_module(alg: HomAlgebra, dim: int, side: str) -> HomModule:
    return HomModule(alg, dim, LinearMap.zero(dim, dim), ActionTensor.zero(alg.dim, dim, side), side)


def zero_comodule(base: HomPoissonCoalgebra, dim: int, kind: str) -> HomComodule:
    zero = CoactionTensor.zero(base.dim, dim)
    dm = zero if kind in ("coassociative", "poisson") else None
    gm = zero if kind in ("lie", "poisson") else None
    return HomComodule(base, dim, LinearMap.zero(dim, dim), kind, dm, gm)


def scaled_map(dim: int) -> LinearMap:
    return Draw(dim + 3).map(dim, dim, OVER["f"])


# --- catalogue -------------------------------------------------------------------


def check_everything(structure):
    """Every applicable check of one structure, plus the registry, against the reference."""
    if isinstance(structure, HomAlgebra):
        for pair in ALGEBRA_LAWS:
            agree(pair, structure)
        n = structure.dim
        for phi in (LinearMap.identity(n), LinearMap.zero(n, n), Draw(n).map(n, n), scaled_map(n)):
            agree((check_endomorphism, ref.check_endomorphism), structure, phi)
            agree((check_morphism, ref.check_morphism), phi, structure, structure)
    elif isinstance(structure, HomModule):
        for pair in MODULE_LAWS:
            agree(pair, structure)
        m = structure.dim_mod
        for f in (LinearMap.identity(m), Draw(m).map(m, m), scaled_map(m)):
            agree_lax_and_strict(MODULE_MORPHISMS, f, structure, structure)
    elif isinstance(structure, HomPoissonCoalgebra):
        # Every id in one plan, parts beside their aggregates included.
        want = reference_coalgebra_suite(structure)
        for axiom, report in zip(want, axioms.verify(structure, list(want))):
            assert report == want[axiom], axiom
        n = structure.dim
        for phi in (LinearMap.identity(n), Draw(n + 1).map(n, n), scaled_map(n)):
            agree((check_coendomorphism, ref.check_coendomorphism), structure, phi)
            agree((check_coalgebra_morphism, ref.check_coalgebra_morphism), phi, structure, structure)
    else:
        for (check, _), want in zip(COMODULE_LAWS, reference_comodule_laws(structure)):
            assert outcome(check, structure) == want, (check.__name__, structure)
        m = structure.dim_mod
        for f in (LinearMap.identity(m), Draw(m + 2).map(m, m), scaled_map(m)):
            agree_lax_and_strict(COMODULE_MORPHISMS, f, structure, structure)


def test_assembled_reference_aggregates_equal_the_reference_s_own():
    for dim in range(3):
        for seed in (0, 2):  # cocommutativity expected, then not
            p = random_coalgebra(500 + 10 * dim + seed, dim)
            want = ref.check_hom_poisson_coalgebra(p)
            assert reference_coalgebra_suite(p)[HOM_POISSON_COALGEBRA] == want
            c = random_comodule(600 + 10 * dim + seed, p, 2 - dim, "poisson", OVER)
            assert reference_comodule_laws(c)[2] == ref.check_poisson_comodule(c)
    for name in ("dual_twisted_regular_module", "poisson_dual4_comodule_corrupt"):
        structure, check = catalog.get(name).payload, MODULE_MORPHISMS[1]
        if isinstance(structure, HomComodule):
            check = COMODULE_MORPHISMS[1]
        f = scaled_map(structure.dim_mod)
        assert reference_morphism(check, f, structure, structure)[0] == check(f, structure, structure)
    for name in ("coleibniz_fail2", "poisson_dual4_comodule_corrupt"):
        structure = catalog.get(name).payload
        if isinstance(structure, HomComodule):
            assert reference_comodule_laws(structure)[2] == ref.check_poisson_comodule(structure)
        else:
            want = ref.check_hom_poisson_coalgebra(structure)
            assert reference_coalgebra_suite(structure)[HOM_POISSON_COALGEBRA] == want


@pytest.mark.parametrize("name", [entry.name for entry in catalog.entries()])
def test_catalogue_entry_matches_reference(name):
    check_everything(catalog.get(name).payload)


def test_algebra_corpus_matches_reference():
    corpus = algebra_corpus()
    for alg in corpus:
        for pair in ALGEBRA_LAWS:
            agree(pair, alg)
    for seed, (a, b) in enumerate(zip(corpus, corpus[1:])):
        f = Draw(seed).map(b.dim, a.dim)
        agree((check_morphism, ref.check_morphism), f, a, b)
        agree((check_endomorphism, ref.check_endomorphism), a, Draw(seed).map(a.dim, a.dim))
    for dim in range(5):
        scaled = [random_algebra(700 + 10 * dim + seed, dim, OVER) for seed in range(2)]
        for alg in scaled + [zero_algebra(dim)]:
            check_everything(alg)
        f = Draw(dim).map((dim + 2) % 5, dim, OVER["f"])
        agree((check_morphism, ref.check_morphism), f, scaled[0], random_algebra(dim, f.dim_out, OVER))


def test_module_corpus_matches_reference():
    for seed, mod in enumerate(module_corpus()):
        for pair in MODULE_LAWS:
            agree(pair, mod)
        other = random_module(seed, mod.algebra, 1 + seed % 3, mod.side)
        f = Draw(seed).map(other.dim_mod, mod.dim_mod)
        agree_lax_and_strict(MODULE_MORPHISMS, f, mod, other)


@pytest.mark.parametrize("side", ["left", "right"])
def test_random_modules_both_sides_match_reference(side):
    for seed in range(24):
        alg = random_structure(600 + seed, seed % 4, "algebra")
        mod = random_module(seed, alg, seed % 3, side)
        other = random_module(seed + 50, alg, (seed + 1) % 4, side)
        for pair in MODULE_LAWS:
            agree(pair, mod)
        f = Draw(seed).map(other.dim_mod, mod.dim_mod)
        agree_lax_and_strict(MODULE_MORPHISMS, f, mod, other)
    for seed in range(8):
        alg = random_algebra(800 + seed, seed % 4, OVER)
        mod = random_module(900 + seed, alg, (seed + 1) % 4, side, OVER)
        other = random_module(950 + seed, alg, seed % 3, side, OVER)
        over_zero = random_module(seed, zero_algebra(seed % 4), seed % 3, side, OVER)
        for structure in (mod, over_zero, zero_module(alg, seed % 3, side)):
            check_everything(structure)
        f = Draw(seed).map(other.dim_mod, mod.dim_mod, OVER["f"])
        agree_lax_and_strict(MODULE_MORPHISMS, f, mod, other)



@pytest.mark.parametrize("dim", [0, 1, 2, 3, 4])
def test_random_coalgebras_match_reference(dim):
    for seed in range(8):
        p = random_coalgebra(100 * dim + seed, dim)
        check_everything(p)
        q = random_coalgebra(100 * dim + seed + 50, (dim + seed) % 5)
        f = Draw(seed).map(q.dim, p.dim)
        agree((check_coalgebra_morphism, ref.check_coalgebra_morphism), f, p, q)
    for seed in range(4):
        p = random_coalgebra(700 + 10 * dim + seed, dim, OVER)
        check_everything(p)
        q = random_coalgebra(750 + 10 * dim + seed, (dim + seed) % 5, OVER)
        f = Draw(seed).map(q.dim, p.dim, OVER["f"])
        agree((check_coalgebra_morphism, ref.check_coalgebra_morphism), f, p, q)
    check_everything(zero_coalgebra(dim))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dim", [0, 1, 2, 3, 4])
def test_random_comodules_match_reference(kind, dim):
    for seed in range(4):
        base = random_coalgebra(1000 + 10 * dim + seed, (dim + seed) % 5)
        c = random_comodule(2000 + 10 * dim + seed, base, dim, kind)
        check_everything(c)
        other = random_comodule(3000 + 10 * dim + seed, base, (dim + 1 + seed) % 5, kind)
        f = Draw(seed).map(other.dim_mod, c.dim_mod)
        agree_lax_and_strict(COMODULE_MORPHISMS, f, c, other)
    for seed in range(2):
        base = random_coalgebra(1100 + 10 * dim + seed, (dim + seed) % 5, OVER)
        c = random_comodule(2100 + 10 * dim + seed, base, dim, kind, OVER)
        zero = zero_coalgebra((dim + seed) % 5)
        over_zero = random_comodule(seed, zero, dim, kind, OVER)
        for structure in (c, over_zero, zero_comodule(zero, dim, kind)):
            check_everything(structure)
        other = random_comodule(3100 + 10 * dim + seed, base, (dim + 1 + seed) % 5, kind, OVER)
        f = Draw(seed).map(other.dim_mod, c.dim_mod, OVER["f"])
        agree_lax_and_strict(COMODULE_MORPHISMS, f, c, other)


# --- alpha = beta = id: plans drop the identity operands, the reference does not -----


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_untwisted_structures_and_their_regular_ones_match_reference(dim):
    one = LinearMap.identity(dim)
    for seed, over in enumerate((NO_SCALE, OVER)):
        alg, other = (HomAlgebra(dim, random_algebra(1200 + 10 * dim + seed + k, dim, over).mu, one)
                      for k in (0, 5))
        module = random_module(1300 + 10 * dim + seed, alg, dim, "left", over)
        structures = [alg, regular_module(alg, "left"), regular_module(alg, "right"),
                      HomModule(alg, dim, one, module.action, "left")]
        coalg, target = (HomPoissonCoalgebra(dim, c.delta, c.gamma, one, c.cocommutative_expected)
                         for c in (random_coalgebra(1400 + 10 * dim + seed + k, dim, over)
                                   for k in (0, 5)))
        comodule = random_comodule(1500 + 10 * dim + seed, coalg, dim, "poisson", over)
        structures += [coalg, HomComodule(coalg, dim, one, "poisson", comodule.delta_m,
                                          comodule.gamma_m)]
        structures += [regular_comodule(coalg, kind) for kind in KINDS]
        for structure in structures:
            check_everything(structure)  # f = id among the morphisms of each to itself
        agree((check_morphism, ref.check_morphism), one, alg, other)
        agree((check_coalgebra_morphism, ref.check_coalgebra_morphism), one, coalg, target)


# --- unit constants with zero rows, read back from a file ---------------------------


def unit_cube(rng, a: int, b: int, c: int) -> list:
    """A cube of 0s with one ±1 in about two rows of three: the octonions' pattern of
    constants, with zero rows as in the truncated Poisson duals."""
    cube = [[[0] * c for _ in range(b)] for _ in range(a)]
    for plane in cube:
        for row in plane:
            if c and rng.random() < 0.65:
                row[rng.randrange(c)] = rng.choice((1, -1))
    return cube


def signed_permutation(rng, n: int) -> LinearMap:
    order = rng.sample(range(n), n)
    return LinearMap.from_rows([[rng.choice((1, -1)) if j == order[i] else 0 for j in range(n)]
                                for i in range(n)], n)


@pytest.mark.parametrize("seed", range(6))
def test_unit_constant_structures_read_back_match_reference(seed):
    # The +-1 constants take contract's unit join, the parsed zero rows scaled's
    # skip; the reference sees neither.
    rng = random.Random(2900 + seed)
    n, m = 2 + seed % 3, 1 + seed % 2
    alpha = LinearMap.identity(n) if seed % 2 else signed_permutation(rng, n)
    alg = HomAlgebra(n, MulTensor.from_entries(unit_cube(rng, n, n, n)), alpha)
    coalg = HomPoissonCoalgebra(n, *(ComulTensor.from_entries(unit_cube(rng, n, n, n))
                                     for _ in range(2)), alpha, seed % 4 < 2)
    structures = {
        "A": alg, "AL": regular_module(alg, "left"), "AR": regular_module(alg, "right"),
        "C": coalg, "CR": regular_comodule(coalg),
        "L": HomModule(alg, m, signed_permutation(rng, m),
                       ActionTensor.from_entries(unit_cube(rng, n, m, m), n, m, "left"), "left"),
        "M": HomComodule(coalg, m, signed_permutation(rng, m), "poisson",
                         *(CoactionTensor.from_entries(unit_cube(rng, m, n, m), n, m)
                           for _ in range(2))),
    }
    base_of = {"AL": "A", "AR": "A", "L": "A", "CR": "C", "M": "C"}
    sf = parse_bytes(serialize(StructureFile(FILE_VERSION, structures, base_of)))
    for name, structure in structures.items():
        assert sf.structures[name] == structure
        check_everything(sf.structures[name])
