"""The three workloads: their inputs, op lists and per-op output checks.

A workload is a list of passes; a pass is a list of ops replayed in order.
Pass ``p`` draws its inputs from ``sub_seed(seed, p)``, so a run averages
over several independent draws while the seed still fixes everything.
Input files are written into the work directory with the program's own
serializer; ops name them by relative path and run with that directory as
the current directory, so output text never contains a machine path.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from homstruct import catalog
from homstruct.algebras import HOM_ASSOC, LEFT_HOM_ALT, RIGHT_HOM_ALT, HomAlgebra
from homstruct.coalgebras import HOM_POISSON_COALGEBRA, HomPoissonCoalgebra
from homstruct.comodules import (
    COASSOC_COMODULE,
    LIE_COMODULE,
    POISSON_COMODULE,
    HomComodule,
    regular_comodule,
)
from homstruct.fileformat import FILE_VERSION, StructureFile, write_file
from homstruct.modules import LEFT_MODULE, RIGHT_MODULE, HomModule, regular_module

import checks
from structures import (
    dense_algebra_side,
    dense_coalgebra_side,
    seeded_permutation,
    seeded_skew,
    sedenions,
    truncated_poisson_dual,
)

ALGEBRA_LAWS = (LEFT_HOM_ALT, RIGHT_HOM_ALT, HOM_ASSOC)

# Failure counts of the sedenions and their regular modules; a basis
# relabelling leaves them unchanged.
SEDENION_FAILURES = {
    LEFT_HOM_ALT: 672,
    RIGHT_HOM_ALT: 672,
    HOM_ASSOC: 1848,
    LEFT_MODULE: 672,
    RIGHT_MODULE: 672,
}


@dataclass
class Op:
    key: str
    argv: list[str]
    check: Callable[[int, str], str | None]
    """Invariant that holds for every seed: ``(exit_code, stdout) -> problem or None``."""


def sub_seed(seed: int, pass_index: int) -> int:
    return seed * 1_000_003 + pass_index


def _write(workdir: Path, filename: str, structures: dict, base_of: dict[str, str]) -> str:
    write_file(workdir / filename, StructureFile(FILE_VERSION, structures, base_of))
    return filename


def _verify(key: str, filename: str, name: str, suite: list[str], **pins) -> Op:
    argv = ["verify", filename, name, "--suite", ",".join(suite)]
    return Op(key, argv, checks.verify_invariant(suite, **pins))


# ---------------------------------------------------------------------------
# catalog_session
# ---------------------------------------------------------------------------


def _native_suite(payload) -> list[str]:
    if isinstance(payload, HomAlgebra):
        return list(ALGEBRA_LAWS)
    if isinstance(payload, HomModule):
        return [LEFT_MODULE if payload.side == "left" else RIGHT_MODULE]
    if isinstance(payload, HomPoissonCoalgebra):
        return [HOM_POISSON_COALGEBRA]
    return [{"coassociative": COASSOC_COMODULE, "lie": LIE_COMODULE,
             "poisson": POISSON_COMODULE}[payload.kind]]


def _transform_of(payload) -> str | None:
    """The transform op the kind allows, if any."""
    if isinstance(payload, (HomAlgebra, HomPoissonCoalgebra)):
        return "opposite"
    if isinstance(payload, HomModule) and payload.side == "left":
        return "negate"
    if isinstance(payload, HomComodule) and payload.kind == "poisson":
        return "negate"
    return None


def _entry_ops(entry: catalog.CatalogEntry) -> list[Op]:
    """export, verify the pinned suite, then transform and twist where allowed, verifying each."""
    name, payload = entry.name, entry.payload
    src = f"{name}.json"
    pinned = list(entry.expected_verdicts)
    ops = [
        Op(f"export:{name}", ["catalog", "export", name, "--out", src], checks.wrote_invariant(src)),
        _verify(f"verify:{name}", src, name, pinned, holds=entry.expected_verdicts),
    ]
    op = _transform_of(payload)
    if op is not None:
        out = f"{name}.t.json"
        ops.append(Op(f"{op}:{name}", ["transform", src, name, op, "--out", out], checks.wrote_invariant(out)))
        ops.append(Op(f"verify:{name}.t", ["verify", out, name],
                      checks.verify_invariant(_native_suite(payload))))
    if isinstance(payload, (HomAlgebra, HomPoissonCoalgebra)) and not payload.alpha.is_identity():
        return ops  # already twisted: the kind allows no further Yau twist
    out = f"{name}.w.json"
    argv = ["twist", src, name, "--out", out]
    if isinstance(payload, (HomAlgebra, HomPoissonCoalgebra)):
        argv += ["--endo", "id"]
    ops.append(Op(f"twist:{name}", argv, checks.wrote_invariant(out)))
    ops.append(Op(f"verify:{name}.w", ["verify", out, name],
                  checks.verify_invariant(_native_suite(payload))))
    return ops


def catalog_session(seed: int, passes: int, workdir: Path) -> list[list[Op]]:
    plan = {entry.name: _entry_ops(entry) for entry in catalog.entries()}
    names = sorted(plan)
    out = []
    for p in range(passes):
        order = seeded_permutation(sub_seed(seed, p), len(names))
        out.append([op for i in order for op in plan[names[i]]])
    return out


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------


def _algebra_witness_check(alg: HomAlgebra):
    def check(axiom, index, residual):
        want = checks.algebra_residual(alg.mu.c, alg.alpha.entries, axiom, index)
        return None if want == residual else f"{axiom}{index}: residual {residual} != {want}"

    return check


def _module_witness_check(mod: HomModule):
    def check(axiom, index, residual):
        alg = mod.algebra
        want = checks.left_module_residual(alg.mu.c, alg.alpha.entries, mod.action.a,
                                           mod.beta.entries, index)
        return None if want == residual else f"{axiom}{index}: residual {residual} != {want}"

    return check


def dense(seed: int, passes: int, workdir: Path) -> list[list[Op]]:
    out = []
    for p in range(passes):
        ops = []
        s = sub_seed(seed, p)
        for alg, mod in dense_algebra_side(s):
            f = _write(workdir, f"dense{p}_alg{alg.dim}.json", {"A": alg, "M": mod}, {"M": "A"})
            for law in ALGEBRA_LAWS:
                ops.append(_verify(f"p{p}:alg{alg.dim}:{law}", f, "A", [law],
                                   witness_check=_algebra_witness_check(alg)))
            ops.append(_verify(f"p{p}:alg{alg.dim}:{LEFT_MODULE}", f, "M", [LEFT_MODULE],
                               witness_check=_module_witness_check(mod)))
        for coalg in dense_coalgebra_side(s):
            f = _write(workdir, f"dense{p}_coalg{coalg.dim}.json",
                       {"C": coalg, "R": regular_comodule(coalg)}, {"R": "C"})
            ops.append(Op(f"p{p}:coalg{coalg.dim}:all", ["verify", f, "C", "--suite", "all"],
                          checks.verify_invariant([HOM_POISSON_COALGEBRA])))
            ops.append(Op(f"p{p}:comod{coalg.dim}:all", ["verify", f, "R", "--suite", "all"],
                          checks.verify_invariant([POISSON_COMODULE])))
        out.append(ops)
    return out


# ---------------------------------------------------------------------------
# sparse16
# ---------------------------------------------------------------------------


def sparse16(seed: int, passes: int, workdir: Path) -> list[list[Op]]:
    out = []
    for p in range(passes):
        s = sub_seed(seed, p)
        sed = sedenions(s)
        f = _write(workdir, f"sparse{p}_sedenions.json",
                   {"S": sed, "SL": regular_module(sed, "left"), "SR": regular_module(sed, "right")},
                   {"SL": "S", "SR": "S"})
        ops = [_verify(f"p{p}:sedenions:{law}", f, "S", [law], totals=SEDENION_FAILURES)
               for law in ALGEBRA_LAWS]
        ops.append(_verify(f"p{p}:sedenions:{LEFT_MODULE}", f, "SL", [LEFT_MODULE],
                           totals=SEDENION_FAILURES))
        ops.append(_verify(f"p{p}:sedenions:{RIGHT_MODULE}", f, "SR", [RIGHT_MODULE],
                           totals=SEDENION_FAILURES))
        coalg = truncated_poisson_dual(seeded_skew(s))
        f = _write(workdir, f"sparse{p}_poisson.json",
                   {"P": coalg, "PR": regular_comodule(coalg)}, {"PR": "P"})
        ops.append(Op(f"p{p}:poisson:all", ["verify", f, "P", "--suite", "all"],
                      checks.verify_invariant([HOM_POISSON_COALGEBRA],
                                              holds={HOM_POISSON_COALGEBRA: True})))
        ops.append(Op(f"p{p}:poisson_comodule:all", ["verify", f, "PR", "--suite", "all"],
                      checks.verify_invariant([POISSON_COMODULE], holds={POISSON_COMODULE: True})))
        out.append(ops)
    return out


WORKLOADS = {
    "catalog_session": catalog_session,
    "dense": dense,
    "sparse16": sparse16,
}

# Whether an op's output depends only on its key, whatever the seed: the
# catalogue session only reorders seed-independent ops.
SEED_INDEPENDENT = {"catalog_session": True, "dense": False, "sparse16": False}
