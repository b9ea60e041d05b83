"""Closed-loop op runner, the statistics the benchmark reports, and the
calibration probe that measures how fast the machine runs at the moment.

One op is one call of ``homstruct.cli.main(argv)`` in this process with
stdout and stderr captured; the next op starts only after it returns.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from dataclasses import dataclass
from fractions import Fraction


@dataclass
class OpResult:
    key: str
    exit_code: int | None
    stdout: str
    seconds: float
    error: str | None = None
    """Set when the op raised, or when its output failed a check."""


def run_op(main, key: str, argv: list[str]) -> OpResult:
    """Call ``main(argv)`` once; an exception is recorded, not raised."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception as exc:  # any escape from the CLI is a failed op
        error = f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return OpResult(key, code, out.getvalue(), seconds, error)


def error_rate(results: list[OpResult]) -> float:
    """Failed ops over attempted ops; exit codes 1 and 2 are outcomes, not failures."""
    if not results:
        raise ValueError("no ops attempted")
    return sum(r.error is not None for r in results) / len(results)


def percentile(sorted_values: list[float], q: int) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(values: list[float], beyond: int = 10) -> tuple[int, float]:
    """The highest whole percentile with at least ``beyond`` samples above its rank.

    Returns ``(q, value)``.  Needs more than ``beyond`` samples.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {n}")
    ordered = sorted(values)
    q = next(q for q in range(99, 0, -1) if n - math.ceil(q / 100 * n) >= beyond)
    return q, percentile(ordered, q)


# Mean seconds of ``calibrate()`` at the reference machine speed.  A run
# divides its times by (its mean calibrate() time / this constant), so the
# share of the host's cores the machine got during the run cancels out.
CALIBRATION_REF_S = 0.005


def calibrate() -> float:
    """Seconds a fixed exact-rational loop takes now: a probe of the machine's current speed."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 1000):
        acc += Fraction(i % 9 - 4, i % 3 + 1) * Fraction(i % 7 - 3, i % 5 + 1)
    return time.perf_counter() - start
