"""Time the dense ``--suite all`` of each structure through several source trees, interleaved.

    python scripts/ab_suites.py DIMS ROUNDS NAME=SRC NAME=SRC [NAME=SRC ...]

``DIMS`` is a comma-separated list of dims, read as ``time_laws.py --dims`` is
(``time_laws.dims``: an empty, non-integer or negative dim is a usage error).
Each ``SRC`` is a tree's ``src`` directory, imported side by side in one process
as ``scripts/ab_replay.py`` does (``ab_replay.load``); the first tree is the
reference.  For each dim, the five
dense structures of ``scripts/time_laws.py`` (``build_structures``: an algebra, a
left and a right module, a Hom-Poisson coalgebra and a Poisson comodule) are
written once as one file (``structure_file``).  In each of ``ROUNDS`` rounds, each
tree parses those bytes afresh, so no tensor's ``scaled`` entries are kept from an
earlier round, and times ``axioms.verify`` of each structure's native suite, and
the ``repr`` of its report, by ``time_laws``' ``quiet`` and ``best``: one call, with
the collector off, after a full collection.  The order of the trees rotates by
one from structure to structure and from round to round.

Prints one line per dim and later tree: the dim, the tree's name, then for each
structure its best time through that tree over its best time through the first
(``1.0123x``) and the first tree's best time in ms.  One tree named twice
(``parent=A again=A change=B``) reads the first tree against itself in the same
interleaved run, a control for the other ratios.  Exits 1 if any report differs
from the first tree's.
"""

from __future__ import annotations

import argparse
import importlib
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_replay import load, tree  # noqa: E402
from time_laws import (  # noqa: E402
    NAMES, best, build_structures, dense_entries, dims, quiet, serialize, structure_file,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dims", type=dims)
    parser.add_argument("rounds", type=int)
    parser.add_argument("trees", type=tree, nargs="+", metavar="NAME=SRC")
    args = parser.parse_args(argv)
    names = [name for name, _ in args.trees]
    if args.rounds < 1 or len(names) < 2 or len(set(names)) != len(names):
        parser.error("needs ROUNDS >= 1 and two or more trees of distinct names")
    packages = [load(name, src).__package__ for name, src in args.trees]
    parse = [importlib.import_module(f"{p}.fileformat").parse_bytes for p in packages]
    axioms = [importlib.import_module(f"{p}.axioms") for p in packages]
    differs = False
    for n in args.dims:
        data = serialize(structure_file(build_structures(n, dense_entries(n))))
        times = [[math.inf] * len(NAMES) for _ in args.trees]
        for r in range(args.rounds):
            files = [parse_bytes(data) for parse_bytes in parse]
            for i, name in enumerate(NAMES):
                reports = {}
                for t in [(t + r + i) % len(names) for t in range(len(names))]:
                    check, structure = axioms[t].verify, files[t].get(name)
                    suite = axioms[t].native_suite(structure)
                    with quiet():
                        seconds, reports[t] = best(lambda: repr(check(structure, suite)), 1)
                    times[t][i] = min(times[t][i], seconds)
                for t in range(1, len(names)):
                    if reports[t] != reports[0]:
                        print(f"DIFFERS dim {n} round {r} {name} {names[t]}", file=sys.stderr)
                        differs = True
        for later, seconds in zip(names[1:], times[1:]):
            print(f"{n:>3}  {later}  " + "  ".join(
                f"{name} {time / first:.4f}x {first * 1000:.2f}ms"
                for name, first, time in zip(NAMES, times[0], seconds)), flush=True)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
