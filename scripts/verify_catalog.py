#!/usr/bin/env python3
"""Run every catalogue entry through its pinned checks and print a table.

Each row shows the live verdicts and the time the entry's checks took.
Exit code 0 when every live verdict matches the catalogue's expectation.

    python3 scripts/verify_catalog.py
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from homstruct.axioms import verify  # noqa: E402
from homstruct.catalog import CatalogEntry, entries  # noqa: E402


def run_expected_checks(entry: CatalogEntry) -> dict[str, bool]:
    """Live verdicts for the axioms an entry pins down."""
    return {r.axiom: r.holds for r in verify(entry.payload, list(entry.expected_verdicts))}


def main() -> int:
    start = time.monotonic()
    catalogue = entries()
    mismatches = 0
    name_width = max(len(e.name) for e in catalogue)
    for entry in catalogue:
        checked = time.perf_counter()
        live = run_expected_checks(entry)
        check_ms = (time.perf_counter() - checked) * 1000
        ok = live == entry.expected_verdicts
        mismatches += not ok
        verdicts = "  ".join(
            f"{axiom}={'pass' if value else 'fail'}" for axiom, value in live.items()
        )
        marker = "ok " if ok else "!! "
        print(f"{marker}{entry.name:<{name_width}}  {check_ms:8.2f} ms  {verdicts}")
    elapsed = time.monotonic() - start
    print(f"\n{len(catalogue)} entries checked in {elapsed:.2f}s, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
