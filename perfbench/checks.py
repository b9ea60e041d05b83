"""Output checks for benchmark ops.

An op's output is its exit code plus its stdout.  For the recorded seed every
op is compared with a digest stored under ``expected/``; for any other seed
each op carries an invariant that holds whatever the seed.  An invariant is a
function ``(exit_code, stdout) -> problem or None``.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

_HEADER = re.compile(r"^( *)([A-Z_]+): (PASS|FAIL \((\d+) failing indices; showing (\d+)\))$")
_WITNESS = re.compile(r"^( *)\(([\d,]*)\): \[(.*)\]$")


def digest(exit_code, stdout: str) -> str:
    return hashlib.sha256(f"{exit_code}\n{stdout}".encode("utf-8")).hexdigest()


def expected_path(workload: str) -> Path:
    return EXPECTED_DIR / f"{workload}.json"


def load_record(workload: str, seed: int) -> dict[str, str]:
    """Digests recorded for this workload and seed; empty when none exist."""
    path = expected_path(workload)
    if not path.exists():
        return {}
    record = json.loads(path.read_text())
    if record["seed"] != seed and not record.get("seed_independent", False):
        return {}
    return record["digests"]


def write_record(workload: str, seed: int, seed_independent: bool, digests: dict[str, str]):
    doc = {"workload": workload, "seed": seed, "seed_independent": seed_independent,
           "digests": dict(sorted(digests.items()))}
    expected_path(workload).write_text(json.dumps(doc, indent=1) + "\n")


def check_results(workload: str, seed: int, ops: dict, results) -> list[str]:
    """Set ``error`` on each result that fails its digest or its op's invariant.

    ``ops`` maps op keys to ops; returns one problem line per failed result.
    """
    record = load_record(workload, seed)
    problems = []
    for r in results:
        if r.error is None:
            want = record.get(r.key)
            if want is not None and want != digest(r.exit_code, r.stdout):
                r.error = "output differs from the recorded digest"
            else:
                r.error = ops[r.key].check(r.exit_code, r.stdout)
        if r.error is not None:
            problems.append(f"{r.key}: {r.error}")
    return problems


# ---------------------------------------------------------------------------
# Parsing the text report of ``homstruct verify``
# ---------------------------------------------------------------------------


class Report:
    """One ``AXIOM: PASS|FAIL`` block of verify output, with parts and witness lines."""

    def __init__(self, axiom: str, holds: bool, total: int, shown: int, depth: int):
        self.axiom, self.holds, self.total, self.shown, self.depth = axiom, holds, total, shown, depth
        self.parts: list[Report] = []
        self.witnesses: list[tuple[tuple[int, ...], list[Fraction]]] = []


def parse_verify(stdout: str) -> list[Report]:
    """Top-level reports of verify output; raises ValueError on any unexpected line."""
    top: list[Report] = []
    stack: list[Report] = []
    for line in stdout.splitlines():
        m = _HEADER.match(line)
        if m:
            depth = len(m.group(1)) // 2
            holds = m.group(3) == "PASS"
            rep = Report(m.group(2), holds, 0 if holds else int(m.group(4)),
                         0 if holds else int(m.group(5)), depth)
            del stack[depth:]
            if len(stack) != depth:
                raise ValueError(f"bad nesting at {line!r}")
            (stack[-1].parts if stack else top).append(rep)
            stack.append(rep)
            continue
        m = _WITNESS.match(line)
        if m and stack and len(m.group(1)) == 2 * stack[-1].depth + 2:
            index = tuple(int(x) for x in m.group(2).split(",") if x)
            values = [Fraction(x) for x in m.group(3).split(", ")] if m.group(3) else []
            stack[-1].witnesses.append((index, values))
            continue
        raise ValueError(f"unexpected line {line!r}")
    return top


def _consistent(rep: Report, problems: list[str]):
    if rep.parts:
        total = sum(p.total for p in rep.parts)
        if total != rep.total:
            problems.append(f"{rep.axiom}: total {rep.total} != sum of parts {total}")
        if rep.holds != all(p.holds for p in rep.parts):
            problems.append(f"{rep.axiom}: verdict disagrees with its parts")
        if rep.witnesses:
            problems.append(f"{rep.axiom}: aggregate printed its own witnesses")
        for part in rep.parts:
            _consistent(part, problems)
        return
    if len(rep.witnesses) != rep.shown or rep.shown != min(rep.total, 16):
        problems.append(f"{rep.axiom}: {len(rep.witnesses)} witness lines, "
                        f"showing {rep.shown} of {rep.total}")
    for _, values in rep.witnesses:
        if not any(values):
            problems.append(f"{rep.axiom}: zero residual printed as a witness")


def verify_invariant(suite: list[str], *, totals: dict[str, int] | None = None,
                     holds: dict[str, bool] | None = None,
                     witness_check=None):
    """Invariant for a verify op: well-formed report per axiom, in suite order.

    ``totals`` pins failure counts, ``holds`` pins verdicts, and
    ``witness_check(axiom, index, residual)`` recomputes each printed witness.
    """

    def check(exit_code, stdout: str):
        try:
            reports = parse_verify(stdout)
        except ValueError as exc:
            return str(exc)
        if [r.axiom for r in reports] != suite:
            return f"axioms {[r.axiom for r in reports]} != {suite}"
        problems: list[str] = []
        for rep in reports:
            _consistent(rep, problems)
            if totals is not None and rep.total != totals[rep.axiom]:
                problems.append(f"{rep.axiom}: {rep.total} failures, expected {totals[rep.axiom]}")
            if holds is not None and rep.holds != holds[rep.axiom]:
                problems.append(f"{rep.axiom}: verdict {rep.holds}, expected {holds[rep.axiom]}")
            if witness_check is not None:
                problems.extend(filter(None, (witness_check(rep.axiom, index, residual)
                                              for index, residual in rep.witnesses)))
        expected_exit = 0 if all(r.holds for r in reports) else 1
        if exit_code != expected_exit:
            problems.append(f"exit {exit_code}, expected {expected_exit}")
        return "; ".join(problems) or None

    return check


def wrote_invariant(out: str):
    """Invariant for a twist, transform or export op: exit 0 and a report of the file written."""

    def check(exit_code, stdout: str):
        if exit_code != 0 or not stdout.endswith(f"wrote {out}\n"):
            return f"exit {exit_code}, stdout {stdout[-80:]!r}; expected a write of {out}"
        return None

    return check


# ---------------------------------------------------------------------------
# Independent residuals for the dense algebra-side laws
# ---------------------------------------------------------------------------


def _mul(c, x: list[Fraction], y: list[Fraction]) -> list[Fraction]:
    """Bilinear map with constants c[i][j][k] applied to coordinate vectors."""
    n_out = len(c[0][0])
    out = [Fraction(0)] * n_out
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    row = c[i][j]
                    for k in range(n_out):
                        out[k] += xi * yj * row[k]
    return out


def _apply(matrix, x: list[Fraction]) -> list[Fraction]:
    return [sum((row[j] * x[j] for j in range(len(x))), Fraction(0)) for row in matrix]


def _basis(n: int, i: int) -> list[Fraction]:
    return [Fraction(int(j == i)) for j in range(n)]


def _sub(*terms):
    """terms[0] - terms[1] + terms[2] - ... coordinate-wise."""
    return [sum(t[k] if s % 2 == 0 else -t[k] for s, t in enumerate(terms))
            for k in range(len(terms[0]))]


def algebra_residual(mu, alpha, axiom: str, index: tuple[int, int, int]) -> list[Fraction]:
    """Polarized left/right Hom-alternative or Hom-associative residual at a basis triple."""
    n = len(mu)
    x, y, z = (_basis(n, i) for i in index)
    ax, ay, az = (_apply(alpha, v) for v in (x, y, z))
    assoc = [_mul(mu, ax, _mul(mu, y, z)), _mul(mu, _mul(mu, x, y), az)]
    if axiom == "HOM_ASSOC":
        return _sub(*assoc)
    if axiom == "LEFT_HOM_ALT":
        return _sub(*assoc, _mul(mu, ay, _mul(mu, x, z)), _mul(mu, _mul(mu, y, x), az))
    if axiom == "RIGHT_HOM_ALT":
        return _sub(*assoc, _mul(mu, ax, _mul(mu, z, y)), _mul(mu, _mul(mu, x, z), ay))
    raise ValueError(axiom)


def left_module_residual(mu, alpha, action, beta, index: tuple[int, int, int]) -> list[Fraction]:
    """Polarized left module law at (e_i, e_j, f_p)."""
    n, m = len(mu), len(beta)
    i, j, p = index
    x, y, v = _basis(n, i), _basis(n, j), _basis(m, p)
    bv = _apply(beta, v)
    return _sub(
        _mul(action, _apply(alpha, x), _mul(action, y, v)), _mul(action, _mul(mu, x, y), bv),
        _mul(action, _apply(alpha, y), _mul(action, x, v)), _mul(action, _mul(mu, y, x), bv),
    )
