"""Acceptance suite: one test per criterion, every tolerance exact (zero).

Run ``pytest tests/test_acceptance.py -v -s`` for the per-criterion verdict
lines.  The suite is collected last (see conftest) so the wall-clock
criterion observes the whole run.

Criterion 7's corollary cross-check twists the regular comodule over a Yau
twisted coalgebra ``(A, delta.phi, gamma.phi, phi)`` by ``(phi^2 @ id)``.  The
result is a Poisson comodule over that same twisted coalgebra, with coactions
``(phi^3 @ phi).delta`` and ``(phi^3 @ phi).gamma``.  Over the untwisted
``(A, delta, gamma, id)`` it is one only when ``phi`` is idempotent; the test
pins the failure for invertible twists as exact residuals.  See
``test_criterion_7_corollary_cross_check``.
"""

import time
from fractions import Fraction

import pytest

from conftest import session_elapsed
from corpus import POINTS_PER_STRUCTURE, algebra_corpus, point_rng
from homstruct import (
    check_hom_associative,
    check_hom_poisson_coalgebra,
    check_left_hom_alternative,
    check_left_module,
    check_module_morphism,
    check_poisson_comodule,
    check_right_hom_alternative,
    check_right_module,
    negate,
    negate_coalgebra,
    negate_module,
    negate_poisson_comodule,
    opposite,
    opposite_module,
    regular_comodule,
    regular_module,
    twist_module,
    twist_poisson_comodule,
    yau_twist,
    yau_twist_coalgebra,
)
from homstruct.algebras import HomAlgebra
from homstruct.catalog import (
    dual_numbers,
    entries,
    lie_only_coalgebra,
    matrix_algebra,
    matrix_conjugation,
    octonions,
    poisson_dual_dim4,
    primitive_coalgebra,
)
from homstruct.coalgebras import (
    COCOMMUTATIVITY,
    DELTA_MULTIPLICATIVITY,
    GAMMA_MULTIPLICATIVITY,
    HOM_COASSOCIATIVITY,
    HOM_COJACOBI,
    HOM_COLEIBNIZ,
    SKEW_COSYMMETRY,
    HomPoissonCoalgebra,
    check_hom_coleibniz,
)
from homstruct.comodules import (
    DELTA_COACTION_COASSOCIATIVITY,
    DELTA_COACTION_MULTIPLICATIVITY,
    GAMMA_COACTION_MULTIPLICATIVITY,
    HomComodule,
    check_coassoc_comodule,
    check_lie_comodule,
    twist_coassoc_comodule,
    twist_lie_comodule,
)
from homstruct.errors import NotEndomorphism
from homstruct.exact import LinearMap
from reference_eval import is_zero, left_alternative_defect, module_hom_associator, point, with_coalgebra


def _verdict(n: int, label: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {n} {label}: {'PASS' if ok else 'FAIL'}{detail}")
    assert ok, f"criterion {n} ({label}) failed{detail}"


def test_criterion_1_octonion_suite():
    start = time.monotonic()
    octo = octonions()
    left = check_left_hom_alternative(octo)
    right = check_right_hom_alternative(octo)
    assoc = check_hom_associative(octo)
    elapsed = time.monotonic() - start
    ok = (
        left.holds
        and right.holds
        and not assoc.holds
        and assoc.witnesses[0].index == (1, 2, 4)
        and elapsed < 1.0
    )
    _verdict(1, "octonion suite", ok, f" ({elapsed:.3f}s)")


def test_criterion_2_polarization_oracle():
    corpus = algebra_corpus(200)
    agreements = 0
    for idx, alg in enumerate(corpus):
        basis_verdict = check_left_hom_alternative(alg).holds
        rng = point_rng(idx)
        point_verdict = all(
            is_zero(left_alternative_defect(alg, point(rng, alg.dim), point(rng, alg.dim)))
            for _ in range(POINTS_PER_STRUCTURE)
        )
        agreements += basis_verdict == point_verdict
    _verdict(2, "polarization oracle", agreements == 200, f" ({agreements}/200 agree)")


def test_criterion_3_negation_opposite_suite():
    failures = 0
    for entry in entries():
        alg = entry.payload
        if not isinstance(alg, HomAlgebra):
            continue
        if check_left_hom_alternative(alg).holds:
            failures += not check_left_hom_alternative(negate(alg)).holds
            failures += not check_right_hom_alternative(opposite(alg)).holds
        if check_right_hom_alternative(alg).holds:
            failures += not check_right_hom_alternative(negate(alg)).holds
            failures += not check_left_hom_alternative(opposite(alg)).holds
    _verdict(3, "negation/opposite suite", failures == 0, f" ({failures} failures)")


def test_criterion_4_yau_twist_suite():
    failures = 0
    for lam in (0, 1, 2, -1, Fraction(3, 2)):
        alg, phi = dual_numbers(lam)
        twisted = yau_twist(alg, phi)
        failures += not check_left_hom_alternative(twisted).holds
        failures += not check_right_hom_alternative(twisted).holds
        failures += not check_hom_associative(twisted).holds
    twisted = yau_twist(matrix_algebra(2), matrix_conjugation(2, [1, 2]))
    failures += not check_hom_associative(twisted).holds
    failures += not check_left_hom_alternative(twisted).holds
    failures += not check_right_hom_alternative(twisted).holds
    rejected = False
    try:
        yau_twist(dual_numbers(2)[0], LinearMap.diagonal([2, 1]))
    except NotEndomorphism:
        rejected = True
    _verdict(4, "yau twist suite", failures == 0 and rejected, f" ({failures} failures)")


def test_criterion_5_module_theorems():
    failures = 0
    left_modules = []
    for entry in entries():
        alg = entry.payload
        if isinstance(alg, HomAlgebra) and check_left_hom_alternative(alg).holds:
            left_modules.append(regular_module(alg))
        if isinstance(alg, HomAlgebra) and check_right_hom_alternative(alg).holds:
            failures += not check_right_module(regular_module(alg, "right")).holds
    for tag, mod in enumerate(left_modules):
        failures += not check_left_module(mod).holds
        failures += not check_left_module(twist_module(mod)).holds
        rng = point_rng(40000 + tag)
        for _ in range(POINTS_PER_STRUCTURE):
            x = point(rng, mod.algebra.dim)
            m = point(rng, mod.dim_mod)
            failures += not is_zero(module_hom_associator(mod, x, x, m))
        failures += not check_left_module(negate_module(mod)).holds
        failures += not check_right_module(opposite_module(mod)).holds
    # morphism transport under twisting
    dual = dual_numbers(2)[0]
    reg = regular_module(dual)
    for f in (
        LinearMap.from_rows([[1, 0], [2, 1]]),
        LinearMap.identity(2),
        LinearMap.zero(2, 2),
    ):
        failures += not check_module_morphism(f, reg, reg).holds
        failures += not check_module_morphism(f, twist_module(reg), twist_module(reg)).holds
    octo_reg = regular_module(octonions())
    two = LinearMap.diagonal([2] * 8)
    failures += not check_module_morphism(two, octo_reg, octo_reg).holds
    failures += not check_module_morphism(two, twist_module(octo_reg), twist_module(octo_reg)).holds
    _verdict(5, "module theorems", failures == 0, f" ({failures} failures)")


def test_criterion_6_poisson_coalgebra_axioms():
    start = time.monotonic()
    failures = 0
    grouplike = None
    primitive = None
    for entry in entries():
        if entry.name == "grouplike1":
            grouplike = entry.payload
        if entry.name == "primitive2":
            primitive = entry.payload
    for p in (grouplike, primitive):
        rep = check_hom_poisson_coalgebra(p)
        failures += not rep.holds
        for axiom in (
            COCOMMUTATIVITY,
            DELTA_MULTIPLICATIVITY,
            HOM_COASSOCIATIVITY,
            SKEW_COSYMMETRY,
            GAMMA_MULTIPLICATIVITY,
            HOM_COJACOBI,
            HOM_COLEIBNIZ,
        ):
            failures += not rep.part(axiom).holds
    # the non-example fails the co-Leibniz law at its recorded witness
    from homstruct.catalog import coleibniz_failing_coalgebra

    leib = check_hom_coleibniz(coleibniz_failing_coalgebra())
    failures += leib.holds
    failures += leib.witnesses[0].index != (0,)
    failures += leib.witnesses[0].residual.entries[0] != -1
    # reversal and negation keep verified structures verified
    from homstruct.coalgebras import opposite_coalgebra

    for entry in entries():
        p = entry.payload
        if isinstance(p, HomPoissonCoalgebra) and check_hom_poisson_coalgebra(p).holds:
            failures += not check_hom_poisson_coalgebra(opposite_coalgebra(p)).holds
            failures += not check_hom_poisson_coalgebra(negate_coalgebra(p)).holds
    twisted = yau_twist_coalgebra(primitive, LinearMap.diagonal([1, 3]))
    failures += not check_hom_poisson_coalgebra(twisted).holds
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 1.0
    _verdict(6, "poisson coalgebra axioms", ok, f" ({failures} failures, {elapsed:.3f}s)")


def test_criterion_7_comodule_suite():
    failures = 0
    for entry in entries():
        c = entry.payload
        if not isinstance(c, HomComodule):
            continue
        if c.kind in ("coassociative", "poisson") and check_coassoc_comodule(c).holds:
            failures += not check_coassoc_comodule(twist_coassoc_comodule(c)).holds
        if c.kind in ("lie", "poisson") and check_lie_comodule(c).holds:
            failures += not check_lie_comodule(twist_lie_comodule(c)).holds
        if c.kind == "poisson" and check_poisson_comodule(c).holds:
            failures += not check_poisson_comodule(twist_poisson_comodule(c)).holds
            neg = negate_poisson_comodule(c)
            failures += not check_poisson_comodule(neg).holds
    # regular comodules pass over every verified cocommutative coalgebra
    # (the poisson comodule laws presuppose a cocommutative base)
    for entry in entries():
        p = entry.payload
        if (
            isinstance(p, HomPoissonCoalgebra)
            and p.cocommutative_expected
            and check_hom_poisson_coalgebra(p).holds
        ):
            failures += not check_poisson_comodule(regular_comodule(p)).holds
    # morphism transport under twisting
    base = yau_twist_coalgebra(primitive_coalgebra(), LinearMap.diagonal([1, 3]))
    reg = regular_comodule(base)
    f = LinearMap.diagonal([5, 5])
    from homstruct import check_comodule_morphism

    failures += not check_comodule_morphism(f, reg, reg).holds
    failures += not check_comodule_morphism(
        f, twist_poisson_comodule(reg), twist_poisson_comodule(reg)
    ).holds
    _verdict(7, "comodule suite", failures == 0, f" ({failures} failures)")


def _mat_pow(phi: LinearMap, k: int) -> list[list[Fraction]]:
    """phi^k as a plain row-major matrix (column j is the image of e_j)."""
    n = phi.dim_in
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(k):
        out = [
            [sum(phi.entries[i][l] * out[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return out


def _legs(comul, f, g) -> list[list[list[Fraction]]]:
    """(f @ g).comul on each basis vector: out[p][i][q] = sum f[i][a] g[q][b] comul[p][a][b]."""
    n = len(comul)
    return [
        [
            [
                sum(f[i][a] * g[q][b] * comul[p][a][b] for a in range(n) for b in range(n))
                for q in range(n)
            ]
            for i in range(n)
        ]
        for p in range(n)
    ]


def _nonzero_witnesses(cube) -> list[tuple[tuple[int], tuple[Fraction, ...]]]:
    """The witnesses a scan over e_p reports for the residual planes ``cube[p]``."""
    out = []
    for p, plane in enumerate(cube):
        flat = tuple(x for row in plane for x in row)
        if any(flat):
            out.append(((p,), flat))
    return out


def _reported(report, axiom: str):
    part = report.part(axiom)
    return part.total_failures, [(w.index, tuple(w.residual.entries)) for w in part.witnesses]


def test_criterion_7_corollary_cross_check():
    """The corollary over the twisted base, and its exact failure one level down.

    For each classical Poisson coalgebra ``(A, delta, gamma, id)`` and
    coendomorphism ``phi``: twist the coalgebra to ``(A, delta.phi,
    gamma.phi, phi)``, take the verified regular comodule over it, and twist
    both coactions by ``(phi^2 @ id)``.  Asserted, for every pair:

    (a) the result is a Poisson comodule over the twisted coalgebra;
    (b) its coactions are ``(phi^3 @ phi).delta`` and ``(phi^3 @ phi).gamma``,
        computed here from the untwisted tensors;
    (c) viewed over the untwisted ``(A, delta, gamma, id)`` its coaction
        multiplicativity residuals are ``((phi^4 - phi^3) @ phi^2)`` applied
        to ``delta`` and to ``gamma``, so it is a comodule there for the
        identity and the idempotents but not for the invertible twists.  On
        primitive2 with ``phi = diag(1, 3)`` the coassociativity residual is
        the hand-derived ``54 e0 @ e1 @ e0`` at ``e1``.
    """
    invertible = (
        ("primitive2/diag(1,3)", primitive_coalgebra(), LinearMap.diagonal([1, 3])),
        ("poisson_dual4/diag(1,2,3,6)", poisson_dual_dim4(), LinearMap.diagonal([1, 2, 3, 6])),
        ("lie_only2/diag(2,1)", lie_only_coalgebra(), LinearMap.diagonal([2, 1])),
    )
    idempotent = (
        ("primitive2/diag(1,0)", primitive_coalgebra(), LinearMap.diagonal([1, 0])),
        ("poisson_dual4/diag(1,0,0,0)", poisson_dual_dim4(), LinearMap.diagonal([1, 0, 0, 0])),
        ("lie_only2/diag(0,1)", lie_only_coalgebra(), LinearMap.diagonal([0, 1])),
        ("primitive2/id", primitive_coalgebra(), LinearMap.identity(2)),
        ("poisson_dual4/id", poisson_dual_dim4(), LinearMap.identity(4)),
        ("lie_only2/id", lie_only_coalgebra(), LinearMap.identity(2)),
    )
    problems = []
    transported_down = {}
    pairs = [(pair, False) for pair in invertible] + [(pair, True) for pair in idempotent]
    for (label, base0, phi), is_idempotent in pairs:
        p1, p2, p3, p4 = (_mat_pow(phi, k) for k in (1, 2, 3, 4))
        if is_idempotent and p2 != p1:
            problems.append(f"{label}: phi is not idempotent")
        twisted_base = yau_twist_coalgebra(base0, phi)
        comodule = regular_comodule(twisted_base)
        if not check_poisson_comodule(comodule).holds:
            problems.append(f"{label}: hypothesis comodule invalid")
        transported = twist_poisson_comodule(comodule)
        # (a) the corollary, read over the Hom-coalgebra's own maps
        if not check_poisson_comodule(transported).holds:
            problems.append(f"{label}: (a) fails over the twisted base")
        # (b) (phi^2 @ id).(delta.phi) = (phi^2 @ id).(phi @ phi).delta = (phi^3 @ phi).delta
        for side, comul, coaction in (
            ("delta", base0.delta.d, transported.delta_m.g),
            ("gamma", base0.gamma.d, transported.gamma_m.g),
        ):
            expected = _legs(comul, p3, p1)
            if [[list(row) for row in plane] for plane in coaction] != expected:
                problems.append(f"{label}: (b) {side}_m is not (phi^3 @ phi).{side}")
        # (c) over alpha = id and beta = phi the multiplicativity law reads
        #     coaction.phi = (id @ phi).coaction, that is
        #     (phi^4 @ phi^2).comul = (phi^3 @ phi^2).comul,
        #     with residual ((phi^4 - phi^3) @ phi^2).comul.
        down = check_poisson_comodule(with_coalgebra(transported, base0))
        transported_down[label] = down
        p43 = [[a - b for a, b in zip(r4, r3)] for r4, r3 in zip(p4, p3)]
        for axiom, comul in (
            (DELTA_COACTION_MULTIPLICATIVITY, base0.delta.d),
            (GAMMA_COACTION_MULTIPLICATIVITY, base0.gamma.d),
        ):
            expected = _nonzero_witnesses(_legs(comul, p43, p2))
            if _reported(down, axiom) != (len(expected), expected):
                problems.append(f"{label}: (c) {axiom} is not ((phi^4 - phi^3) @ phi^2)")
        if down.holds != is_idempotent:
            problems.append(f"{label}: (c) untwisted-base verdict {down.holds}")
    # primitive2, phi = diag(1, 3): delta(e0) = e0 e0, delta(e1) = e0 e1 + e1 e0
    # (tensor signs dropped), phi^k = diag(1, 3^k).  The transported coaction is
    #     dm(e0) = e0 e0,   dm(e1) = (phi^3 @ phi).delta(e1) = 3 e0 e1 + 27 e1 e0.
    # Coassociativity over (delta, id) with beta = phi reads
    # (id @ dm).dm = (delta @ phi).dm.  At e1:
    #     (id @ dm).dm(e1) = 3 e0 dm(e1) + 27 e1 dm(e0)
    #                      = 9 e0 e0 e1 + 81 e0 e1 e0 + 27 e1 e0 e0
    #     (delta @ phi).dm(e1) = 3 delta(e0) phi(e1) + 27 delta(e1) phi(e0)
    #                          = 9 e0 e0 e1 + 27 e0 e1 e0 + 27 e1 e0 e0
    # so the residual is 54 e0 e1 e0, flat index 0*4 + 1*2 + 0 = 2 in A @ A @ M.
    # At e0 every map fixes e0 and the residual is zero.
    coassoc = _reported(transported_down["primitive2/diag(1,3)"], DELTA_COACTION_COASSOCIATIVITY)
    if coassoc != (1, [((1,), (0, 0, 54, 0, 0, 0, 0, 0))]):
        problems.append(f"primitive2/diag(1,3): (c) coassociativity residual {coassoc}")
    _verdict(
        7,
        "comodule untwisting cross-check",
        not problems,
        f" ({len(pairs)} pairs, {len(problems)} problems: {problems})",
    )


def test_criterion_8_cli_contract(tmp_path):
    import pathlib

    from homstruct.cli import main
    from homstruct.fileformat import parse_bytes, serialize

    data = pathlib.Path(__file__).parent / "data"
    corpus = data / "corpus.json"
    failures = 0
    for name in ("corpus.json", "golden_octonions.json"):
        raw = (data / name).read_bytes()
        failures += serialize(parse_bytes(raw)) != raw
    failures += main(["verify", str(corpus), "octonions", "--suite", "LEFT_HOM_ALT,RIGHT_HOM_ALT"]) != 0
    failures += main(["verify", str(corpus), "octonions", "--suite", "HOM_ASSOC"]) != 1
    failures += main(["verify", str(data / "bad_rational.json"), "a"]) != 2
    out = tmp_path / "id_twist.json"
    failures += main(["twist", str(corpus), "dual_numbers", "--endo", "id", "--out", str(out)]) != 0
    failures += out.read_bytes() != corpus.read_bytes()
    failures += (
        main(["twist", str(corpus), "dual_numbers", "--endo", "diag:2,1",
              "--out", str(tmp_path / "no.json")])
        != 1
    )
    _verdict(8, "cli contract", failures == 0, f" ({failures} failures)")


def test_criterion_9_wall_clock():
    elapsed = session_elapsed()
    _verdict(9, "wall clock", elapsed < 60.0, f" ({elapsed:.1f}s elapsed)")
