"""Plans against one-row checks and the per-coordinate oracle.

A ``laws.Plan`` evaluates the laws of one ``verify`` run together: one slot
width and one common scale for every row, and each packed operand, shared
class sum and shared contraction built once.  Every report must still equal
its rows checked alone (``reference_laws.check_row``, a plan of one row) and
``reference_laws.UnpackedLaw``, field for field: verdicts, failure counts
and witness residuals.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import homstruct.laws as laws
import reference_checks as ref
from homstruct import algebras, axioms, catalog, coalgebras, comodules, modules
from homstruct.algebras import HomAlgebra
from homstruct.coalgebras import HomPoissonCoalgebra
from homstruct.comodules import HomComodule
from homstruct.errors import KernelError
from homstruct.exact import (
    ActionTensor, CoactionTensor, ComulTensor, LinearMap, MulTensor, Vector, compiled,
)
from homstruct.modules import HomModule
from homstruct.report import AxiomReport
from reference_laws import UnpackedLaw, check_row, compiled_row

# Sparse, signed and fractional: half the entries are zero.
entry = st.one_of(st.just(0), st.fractions(min_value=-3, max_value=3, max_denominator=4))


def cube(draw, a: int, b: int, c: int) -> list:
    flat = draw(st.lists(entry, min_size=a * b * c, max_size=a * b * c))
    return [[flat[(i * b + j) * c: (i * b + j + 1) * c] for j in range(b)] for i in range(a)]


def square(draw, n: int) -> LinearMap:
    return LinearMap.from_rows(cube(draw, 1, n, n)[0], n)


@st.composite
def structures(draw):
    """An algebra, a module, a Hom-Poisson coalgebra or a comodule, dims 0-4."""
    n, m = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    kind = draw(st.sampled_from(["algebra", "left", "right", "coalgebra", "comodule"]))
    if kind in ("algebra", "left", "right"):
        alg = HomAlgebra(n, MulTensor.from_entries(cube(draw, n, n, n)), square(draw, n))
        if kind == "algebra":
            return alg
        shape = (n, m, m) if kind == "left" else (m, n, m)
        action = ActionTensor.from_entries(cube(draw, *shape), n, m, kind)
        return HomModule(alg, m, square(draw, m), action, kind)
    coalg = HomPoissonCoalgebra(
        n, ComulTensor.from_entries(cube(draw, n, n, n)),
        ComulTensor.from_entries(cube(draw, n, n, n)), square(draw, n), draw(st.booleans()),
    )
    if kind == "coalgebra":
        return coalg
    comodule = draw(st.sampled_from(["coassociative", "lie", "poisson"]))

    def coaction(kinds):
        return CoactionTensor.from_entries(cube(draw, m, n, m), n, m) if comodule in kinds else None

    dm, gm = coaction(("coassociative", "poisson")), coaction(("lie", "poisson"))
    return HomComodule(coalg, m, square(draw, m), comodule, dm, gm)


def ids_of(structure) -> list[str]:
    """The registered ids this structure has (its module side, its comodule kind)."""
    out = []
    for kind, axiom in axioms.AXIOMS:
        if kind is type(structure):
            try:
                structure.laws(axiom)
            except KernelError:
                continue
            out.append(axiom)
    return out


def alone(structure, axiom: str):
    """``axiom``'s report from its rows checked one at a time, each against the oracle."""
    rows = structure.laws(axiom)
    reports = []
    for part, law, operands in rows:
        report = check_row(law, part, **operands)
        assert report == UnpackedLaw.of(law).check(part, **operands), part
        reports.append(report)
    if len(rows) == 1 and rows[0][0] == axiom:
        return reports[0]
    return AxiomReport.aggregate(axiom, reports)


@settings(max_examples=20, deadline=None)
@given(data=st.data(), structure=structures())
def test_a_plan_reports_what_each_row_reports_alone(data, structure):
    ids = ids_of(structure)
    suite = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=5))
    reports = axioms.verify(structure, suite)
    assert [r.axiom for r in reports] == suite
    expected = {axiom: alone(structure, axiom) for axiom in suite}
    assert reports == [expected[axiom] for axiom in suite]
    # Each registered checker on its own plan agrees too.
    for axiom in set(suite):
        assert axioms.AXIOMS[type(structure), axiom](structure) == expected[axiom]


# --- what a plan builds once ----------------------------------------------------


def recorded(monkeypatch, sinks: list | None = None):
    """Record the law core's contractions ``(spec, operands)`` and packings, and into
    ``sinks`` the list each contraction adds into."""
    contractions, packings = [], []
    contract, pack = laws.contract, laws.pack

    def counting_contract(spec, *tensors, **kwargs):
        contractions.append((spec, tensors))
        if sinks is not None:
            sinks.append(kwargs["into"][0])
        return contract(spec, *tensors, **kwargs)

    def counting_pack(entries, layout, steps):
        packings.append((id(entries), tuple(p[:4] for p in layout), steps))
        return pack(entries, layout, steps)

    monkeypatch.setattr(laws, "contract", counting_contract)
    monkeypatch.setattr(laws, "pack", counting_pack)
    return contractions, packings


def test_an_algebra_suite_contracts_twice(monkeypatch):
    sinks = []
    contractions, packings = recorded(monkeypatch, sinks)
    # A = alpha.ai mu.abo mu.jkb and B = alpha.bk mu.abo mu.ija: all ten terms.  Under
    # alpha = id they are A = mu.ibo mu.jkb and B = mu.ako mu.ija.  A spec spells its
    # letters a, b, c, ... in order of first appearance: A's ai,ab,jkb->ijk is
    # ab,ac,dec->bde.
    twisted, untwisted = ["ab,ac,dec->bde", "ab,ca,dec->deb"], ["ab,cda->cdb", "ab,cdb->acd"]
    for name, specs in (("matrix2_twisted", twisted), ("dual_numbers_twisted", twisted),
                        ("octonions", untwisted), ("non_alternative2", untwisted)):
        structure = catalog.get(name).payload
        del contractions[:], packings[:], sinks[:]
        reports = axioms.verify(structure, axioms.native_suite(structure))
        assert [r.axiom for r in reports] == ["LEFT_HOM_ALT", "RIGHT_HOM_ALT", "HOM_ASSOC"]
        assert sorted(spec for spec, _ in contractions) == specs, name
        assert len(packings) == 1  # mu over o
        # Both add into one list, the W = A - B that the three rows' one class sums.
        assert len(sinks) == 2 and sinks[0] is sinks[1], name


def test_the_mixed_poisson_comodule_term_is_contracted_once(monkeypatch):
    contractions, _ = recorded(monkeypatch)
    for name in ("poisson_dual4_twisted_regular_comodule", "primitive2_twisted_regular_comodule"):
        comodule = catalog.get(name).payload
        del contractions[:]
        (report,) = axioms.verify(comodule, ["POISSON_COMODULE"])
        # - dm.pas alpha.ja gm.siq (pas,a,si->pi), in COMODULE_COLEIBNIZ and
        # COMODULE_COMULT_COMPAT
        shared = [spec for spec, tensors in contractions
                  if spec == "abc,b,cd->ad" and tensors[0] is comodule.delta_m.scaled[1]]
        assert shared == ["abc,b,cd->ad"]
        # Added into each class's W as a list: no lone-operand contraction re-adds it.
        assert [spec for spec, _ in contractions].count("ab->ab") == 0
        assert report == alone(comodule, "POISSON_COMODULE")
    for name in ("poisson_dual4_regular_comodule", "poisson_dual4_comodule_corrupt"):
        comodule = catalog.get(name).payload
        del contractions[:]
        (report,) = axioms.verify(comodule, ["POISSON_COMODULE"])
        # Under alpha = id the shared term is - dm.pjs gm.siq; the other ps,si->pi is
        # GAMMA_COACTION_COMPATIBILITY's + gm.pjs gm.siq, on its own packed gm.  Both are
        # spelled ab,bc->ac, as are the four pa,ai->pi terms on a base map: ten
        # contractions in all, none made twice, and no lone operand re-added.
        made = [(spec, *map(id, tensors)) for spec, tensors in contractions]
        specs = [spec for spec, _ in contractions]
        assert len(set(made)) == len(made) == 10 and specs.count("ab,bc->ac") == 6
        assert specs.count("ab->ab") == 0
        assert report == alone(comodule, "POISSON_COMODULE")


def test_equal_contractions_in_one_class_cancel(monkeypatch):
    contractions, _ = recorded(monkeypatch)
    # Under f = id, with src and dst one tensor, the multiplicativity row is + src.ijo -
    # dst.ijo: one contraction, coefficients 1 and -1.  Under f = alpha = id, COMMUTES is
    # + src.oi - f.oi, every identity map of a shape being one operand.  Both cancel.
    octo, e = catalog.octonions(), LinearMap.identity(8)
    checks = [(algebras.check_endomorphism, ref.check_endomorphism, (octo, e)),
              (algebras.check_morphism, ref.check_morphism, (e, octo, octo))]
    for check, reference, args in checks:
        del contractions[:]
        assert check(*args) == reference(*args)
        assert contractions == [], check.__name__


def test_no_operand_is_packed_twice_in_one_plan(monkeypatch):
    _, packings = recorded(monkeypatch)
    for entry in catalog.entries():
        structure = entry.payload
        del packings[:]
        axioms.verify(structure, axioms.native_suite(structure) + list(entry.expected_verdicts))
        assert len(packings) == len(set(packings)), entry.name
    # The 7-part coalgebra and 6-part comodule suites: 10 and 7 distinct packings; 11
    # and 8 under alpha = beta = id, where the packed letters the maps held move to tensors.
    for name, count in (("poisson_dual4_twisted", 10), ("poisson_dual4_twisted_regular_comodule", 7),
                        ("poisson_dual4", 11), ("poisson_dual4_regular_comodule", 8)):
        structure = catalog.get(name).payload
        del packings[:]
        axioms.verify(structure, axioms.native_suite(structure))
        assert len(packings) == count, name


def test_one_slot_width_serves_every_row():
    # A cheap row (COCOMMUTATIVITY, slots sized for one entry) beside a costly
    # one (HOM_COJACOBI, three-fold products) on entries at the 62-bit mark:
    # the plan's B is the larger, and both rows still decode exactly.
    top = Fraction(2**62 - 1, 5)
    t = ComulTensor.from_entries([[[top, -top], [1, top]], [[-top, 0], [top, -1]]])
    coalg = HomPoissonCoalgebra(2, t, t, LinearMap.from_rows([[top, 1], [-1, top]]), True)
    suite = ["COCOMMUTATIVITY", "HOM_COJACOBI", "HOM_POISSON_COALGEBRA"]
    plan = laws.Plan({axiom: coalg.laws(axiom) for axiom in suite})
    widths = [laws.Plan({axiom: [row]})._size()[1] for axiom in suite[:2]
              for row in coalg.laws(axiom)]
    assert widths[0] < widths[1] == plan._size()[1]
    reports = axioms.verify(coalg, suite)
    assert reports == [alone(coalg, axiom) for axiom in suite]
    assert not reports[0].holds and not reports[1].holds


def test_a_kept_class_sum_takes_no_later_adds():
    # Both rows hold the class t - s, so it is kept as W.  The first row's W
    # is its residual, and its second class (u with k and i swapped; u's
    # identity uses cancel) adds into that residual afterwards; the second
    # row must still read t - s.
    first = laws.Law("ki", "j", "+ t.kij", "- s.kij", "+ u.kij", "- u.kij", "+ u.ikj")
    second = laws.Law("ki", "j", "+ t.kij", "- s.kij")
    cubes = [[[[Fraction(i * 9 + j * 3 + k + 1, d) * (-1) ** k for k in range(3)]
               for j in range(3)] for i in range(3)] for d in (2, 3, 5)]
    operands = dict(zip("tsu", map(MulTensor.from_entries, cubes)))
    assert len(compiled_row(first)[1]) == 2
    plan = laws.Plan({"FIRST": [("FIRST", first, operands)],
                      "SECOND": [("SECOND", second, operands)]})
    for axiom, law in (("FIRST", first), ("SECOND", second)):
        assert plan.check(axiom) == UnpackedLaw.of(law).check(axiom, **operands)


# --- identity operands ----------------------------------------------------------


def alike(*terms):
    """A row with no beta: the same terms under alpha = id and under alpha = beta = id."""
    return terms, terms


# Each registered row's terms under alpha = id, then under alpha = beta = id.
UNTWISTED = {
    "LEFT_HOM_ALT": alike("+ mu.ibo mu.jkb", "- mu.ako mu.ija", "+ mu.jbo mu.ikb",
                          "- mu.ako mu.jia"),
    "RIGHT_HOM_ALT": alike("+ mu.ibo mu.jkb", "- mu.ako mu.ija", "+ mu.ibo mu.kjb",
                           "- mu.ajo mu.ika"),
    "HOM_ASSOC": alike("+ mu.ibo mu.jkb", "- mu.ako mu.ija"),
    "LEFT_MODULE": (
        ("+ action.ibo action.jkb", "- beta.bk action.abo mu.ija", "+ action.jbo action.ikb",
         "- beta.bk action.abo mu.jia"),
        ("+ action.ibo action.jkb", "- action.ako mu.ija", "+ action.jbo action.ikb",
         "- action.ako mu.jia"),
    ),
    "RIGHT_MODULE": (
        ("+ action.ako action.ija", "- beta.ai action.abo mu.jkb", "+ action.ajo action.ika",
         "- beta.ai action.abo mu.kjb"),
        ("+ action.ako action.ija", "- action.ibo mu.jkb", "+ action.ajo action.ika",
         "- action.ibo mu.kjb"),
    ),
    "COCOMMUTATIVITY": alike("+ delta.kij", "- delta.kji"),
    "DELTA_MULTIPLICATIVITY": alike("+ delta.oij", "- delta.oij"),
    "HOM_COASSOCIATIVITY": alike("+ delta.oib delta.bjk", "- delta.oak delta.aij"),
    "SKEW_COSYMMETRY": alike("+ gamma.kij", "+ gamma.kji"),
    "GAMMA_MULTIPLICATIVITY": alike("+ gamma.oij", "- gamma.oij"),
    "HOM_COJACOBI": alike("+ gamma.oib gamma.bjk", "+ gamma.ojb gamma.bki",
                          "+ gamma.okb gamma.bij"),
    "HOM_COLEIBNIZ": alike("+ gamma.oib delta.bjk", "- delta.oak gamma.aij",
                           "- delta.ojb gamma.bik"),
    "DELTA_COACTION_MULTIPLICATIVITY": (("+ beta.ao delta_m.aij", "- delta_m.oib beta.jb"),
                                        ("+ delta_m.oij", "- delta_m.oij")),
    "DELTA_COACTION_COASSOCIATIVITY": (
        ("+ delta_m.oib delta_m.bjk", "- delta_m.oab beta.kb delta.aij"),
        ("+ delta_m.oib delta_m.bjk", "- delta_m.oak delta.aij"),
    ),
    "GAMMA_COACTION_MULTIPLICATIVITY": (("+ beta.ao gamma_m.aij", "- gamma_m.oib beta.jb"),
                                        ("+ gamma_m.oij", "- gamma_m.oij")),
    "GAMMA_COACTION_COMPATIBILITY": (
        ("+ gamma_m.oba beta.ia gamma.bjk", "- gamma_m.ojb gamma_m.bki",
         "+ gamma_m.okb gamma_m.bji"),
        ("+ gamma_m.obi gamma.bjk", "- gamma_m.ojb gamma_m.bki", "+ gamma_m.okb gamma_m.bji"),
    ),
    "COMODULE_COLEIBNIZ": (
        ("+ gamma_m.oib delta_m.bjk", "- delta_m.oab beta.kb gamma.aij",
         "- delta_m.ojb gamma_m.bik"),
        ("+ gamma_m.oib delta_m.bjk", "- delta_m.oak gamma.aij", "- delta_m.ojb gamma_m.bik"),
    ),
    "COMODULE_COMULT_COMPAT": (
        ("+ gamma_m.oba beta.ia delta.bjk", "- delta_m.ojb gamma_m.bki",
         "- delta_m.oka gamma_m.aji"),
        ("+ gamma_m.obi delta.bjk", "- delta_m.ojb gamma_m.bki", "- delta_m.oka gamma_m.aji"),
    ),
}


def cancelled(law: laws.Law, maps: tuple) -> bool:
    """Whether a plan keeps no class of ``law`` less the identity maps named in ``maps``,
    each operand a tensor of its own, every axis of size 2."""
    names = law.names
    arity = {name: len(letters) for _, ops in law._parsed for name, letters in ops}
    numbers = tuple(range(len(names)))
    shapes = tuple([(2,) * arity[name] for name in names])
    return compiled(laws._program, (("R", law, numbers, maps),), shapes)[2]["R"][-1] == ()


def test_identity_operands_are_dropped_from_every_registered_row():
    rows = {**algebras._LAWS, **modules._LAWS, **coalgebras._LAWS, **comodules._LAWS}
    assert set(rows) == set(UNTWISTED)
    for axiom, law in rows.items():
        for bound, terms in zip((("alpha", "f"), ("alpha", "beta", "f")), UNTWISTED[axiom]):
            maps = tuple([name for name in law.names if name in bound])  # as in a Plan
            compiled_terms = laws._terms(law, maps)  # what the plan compiles (laws._row)
            assert tuple([laws._term(*term) for term in compiled_terms]) == terms, (axiom, bound)
            assert (compiled_terms == law._parsed) == (terms == law.terms)
            # A multiplicativity row whose every map is the identity cancels to nothing.
            cancels = "MULTIPLICATIVITY" in axiom and {"alpha", "beta", "f"} & set(law.names) <= set(bound)
            assert cancelled(law, maps) == cancels, (axiom, bound)


def test_a_plan_whose_rows_all_cancel_reports_pass():
    # Under alpha = id both multiplicativity rows cancel: the plan reads no
    # tensor, bounds nothing, and reports PASS at the minimum slot width.
    coalg = catalog.poisson_dual_dim4()
    suite = ["DELTA_MULTIPLICATIVITY", "GAMMA_MULTIPLICATIVITY"]
    plan = laws.Plan({axiom: coalg.laws(axiom) for axiom in suite})
    assert coalg.alpha.is_identity() and plan._size()[:2] == (1, 2)
    for axiom in suite:
        assert plan.check(axiom) == AxiomReport(axiom, True, (), 0)
    assert "scaled" not in vars(coalg.delta) and "scaled" not in vars(coalg.gamma)


def test_identity_map_checks_read_no_structure_tensor():
    # An identity map's every multiplicativity row cancels, so neither the
    # endomorphism and coendomorphism checks nor a module twist over alpha = id
    # compute the structure tensor's scaled reading; the twist keeps the action.
    from homstruct import fileformat

    octonions, coalg = catalog.octonions(), catalog.poisson_dual_dim4()
    assert algebras.check_endomorphism(octonions, LinearMap.identity(8)).holds
    assert coalgebras.check_coendomorphism(coalg, LinearMap.identity(coalg.dim)).holds
    assert "scaled" not in vars(octonions.mu)
    assert "scaled" not in vars(coalg.delta) and "scaled" not in vars(coalg.gamma)
    regular = fileformat.single_structure_file("m", modules.regular_module(octonions),
                                               ("o", octonions))
    for side in ("left", "right"):
        parsed = fileformat.parse_bytes(fileformat.serialize(regular)).structures["m"]
        mod = parsed if side == "left" else modules.regular_module(parsed.algebra, side)
        twisted = modules.twist_module(mod)
        assert twisted.action is mod.action and twisted == mod
        assert "scaled" not in vars(mod.algebra.mu) and "scaled" not in vars(mod.action)


def test_only_the_plan_and_the_registry_build_a_plan():
    import ast
    from pathlib import Path

    builders = set()
    for path in Path(laws.__file__).parent.glob("*.py"):
        text = path.read_text()  # a call of Plan names it: no other file need be parsed
        for node in ast.walk(ast.parse(text)) if "Plan" in text else ():
            if isinstance(node, ast.Call) and "Plan" in (getattr(node.func, "id", None),
                                                         getattr(node.func, "attr", None)):
                builders.add(path.name)
    assert builders == {"laws.py", "axioms.py"}


def test_an_identity_is_kept_where_dropping_it_is_no_relabelling():
    e, f = LinearMap.identity(3), LinearMap.from_rows([[1, -2, 0], [Fraction(1, 3), 0, 5], [0, 0, 2]])
    v = Vector.from_entries([2, 0, Fraction(-1, 2)])
    t = MulTensor.from_entries([[[i - j + k for k in range(3)] for j in range(3)] for i in range(3)])
    cases = [
        (laws.Law("ij", "o", "+ e.ij v.o"), {"e": e, "v": v}),  # both letters are outputs
        (laws.Law("i", "o", "+ e.ia t.iao"), {"e": e, "t": t}),  # t.iio repeats a letter
        # x.io y.jo would hold the packed o twice: the stated row is kept.
        (laws.Law("ij", "o", "+ e.ao x.ia y.ja"), {"e": e, "x": f, "y": f}),
    ]
    for law, operands in cases:
        assert laws._terms(law, ("e",)) == law._parsed, law.terms
        report = check_row(law, "KEPT", **operands)
        assert not report.holds
        assert report == UnpackedLaw.of(law).check("KEPT", **operands)


# --- operands known by their entries ------------------------------------------


def fresh(nested):
    """Nested entry tuples rebuilt as new tuples around the same entries."""
    return tuple(map(fresh, nested)) if isinstance(nested, tuple) else nested


def rebuilt(structure):
    """``structure`` with every tensor on fresh tuples, so no two share entries:
    the oracle for what reading a shared operand once must not change."""
    if isinstance(structure, HomModule):
        alg, n, m = structure.algebra, structure.algebra.dim, structure.dim_mod
        base = HomAlgebra(n, MulTensor(fresh(alg.mu.c)), LinearMap(fresh(alg.alpha.entries), n))
        action = ActionTensor(fresh(structure.action.a), n, m, structure.side)
        return HomModule(base, m, LinearMap(fresh(structure.beta.entries), m), action,
                         structure.side)
    coalg, n, m = structure.coalgebra, structure.coalgebra.dim, structure.dim_mod
    base = HomPoissonCoalgebra(n, ComulTensor(fresh(coalg.delta.d)),
                               ComulTensor(fresh(coalg.gamma.d)),
                               LinearMap(fresh(coalg.alpha.entries), n),
                               coalg.cocommutative_expected)

    def coaction(t):
        return t and CoactionTensor(fresh(t.g), n, m)

    return HomComodule(base, m, LinearMap(fresh(structure.beta.entries), m), structure.kind,
                       coaction(structure.delta_m), coaction(structure.gamma_m))


def regular_structures():
    """Regular (co)modules on fresh tuples, so no ``scaled`` is cached yet."""
    from homstruct.comodules import regular_comodule
    from homstruct.modules import regular_module

    for make in (catalog.octonions, catalog.non_alternative_dim2):
        for side in ("left", "right"):
            yield regular_module(rebuilt(regular_module(make())).algebra, side)
    for make in (catalog.poisson_dual_dim4, catalog.coleibniz_failing_coalgebra):
        for kind in ("poisson", "coassociative", "lie"):
            yield regular_comodule(rebuilt(regular_comodule(make())).coalgebra, kind)


def spied(monkeypatch):
    """Count ``scaled`` computations by (entry tuple id, shape), and packings."""
    from homstruct.exact import _Tensor

    scaled, (_, packings) = [], recorded(monkeypatch)
    lazy = _Tensor.__dict__["scaled"]
    compute = lazy.compute

    def counting(t):
        scaled.append((id(getattr(t, t._nested)), t.shape))
        return compute(t)

    monkeypatch.setattr(lazy, "compute", counting)
    return scaled, packings


def test_a_regular_operand_is_scaled_and_packed_once_per_plan(monkeypatch):
    from homstruct.report import format_report

    scaled, packings = spied(monkeypatch)
    for structure in regular_structures():
        # act is mu (beta, dm and gm are alpha, delta and gamma): one operand each.
        own = [structure.beta] + [getattr(structure, field, None) for field in
                                  ("action", "delta_m", "gamma_m")]
        own = [t for t in own if t is not None]
        suite = axioms.native_suite(structure)
        runs = []
        for each in (structure, rebuilt(structure)):
            del scaled[:], packings[:]
            reports = axioms.verify(each, suite)
            assert len(scaled) == len(set(scaled)) and len(packings) == len(set(packings))
            runs.append((reports, len(scaled), len(packings)))
        (reports, shared, packed), (expected, apart, packed_apart) = runs
        assert (shared, apart) == (len(own), 2 * len(own)) and packed <= packed_apart
        assert reports == expected
        assert [format_report(r, 16) for r in reports] == [format_report(r, 16) for r in expected]
