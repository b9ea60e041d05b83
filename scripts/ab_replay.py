"""Replay the passes of a benchmark workload through several source trees, interleaved.

    python scripts/ab_replay.py WORKLOAD ROUNDS NAME=SRC NAME=SRC [NAME=SRC ...]

Each ``SRC`` is a tree's ``src`` directory.  Its ``homstruct`` is imported under
a package name of its own, ``homstruct_NAME`` (every import inside the package
is relative), so the trees run side by side in one process.  The inputs of
``WORKLOAD`` (``perfbench/workloads.py``, seed ``SEED``) are written by the first
tree's ``homstruct`` into a temporary directory: every pass that a benchmark run
of ``BENCHMARK.json``'s ``run_seconds`` replays (``perfbench/run.py``'s
``pass_count``) where the ops depend on the seed, else one pass
(``workloads.SEED_INDEPENDENT``).  Every op runs there as ``cli.main(argv)`` of
each tree in turn (``perfbench``'s ``run_op``).  The order of the trees rotates
by one from op to op and from round to round, and each round starts after a full
garbage collection.

Prints, per tree, the sum over the ops of each op's minimum time over the
``ROUNDS`` rounds, and its ratio to the first tree's.  Exits 1 if any op's exit
code or stdout differs between the trees, or if any op raised.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import math
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def load(name: str, src: str):
    """The ``cli`` module of the ``homstruct`` under ``src``, imported as ``homstruct_<name>``."""
    package = Path(src).resolve() / "homstruct"
    spec = importlib.util.spec_from_file_location(
        f"homstruct_{name}", package / "__init__.py", submodule_search_locations=[str(package)])
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return importlib.import_module(f"{spec.name}.cli")


def tree(text: str) -> tuple[str, str]:
    name, sep, src = text.partition("=")
    if not sep or not name.isidentifier() or not (Path(src) / "homstruct" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(f"{text!r} is not NAME=SRC, SRC holding homstruct/")
    return name, src


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("catalog_session", "dense", "sparse16"))
    parser.add_argument("rounds", type=int)
    parser.add_argument("trees", type=tree, nargs="+", metavar="NAME=SRC")
    args = parser.parse_args(argv)
    names = [name for name, _ in args.trees]
    if args.rounds < 1 or len(names) < 2 or len(set(names)) != len(names):
        parser.error("needs ROUNDS >= 1 and two or more trees of distinct names")

    sys.path[:0] = [str(Path(args.trees[0][1]).resolve()), str(ROOT / "perfbench")]
    import workloads  # builds the inputs with the first tree's plain ``homstruct``
    from run import pass_count
    from timing import run_op

    mains = [load(name, src).main for name, src in args.trees]
    problems, old_cwd = [], os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        passes = 1 if workloads.SEED_INDEPENDENT[args.workload] else pass_count(args.workload,
                                                                                 seconds)
        ops = [op for one in workloads.WORKLOADS[args.workload](SEED, passes, Path(workdir))
               for op in one]
        best = [[math.inf] * len(ops) for _ in mains]
        os.chdir(workdir)
        try:
            for r in range(args.rounds):
                gc.collect()
                for i, op in enumerate(ops):
                    order = [(t + r + i) % len(mains) for t in range(len(mains))]
                    results = {t: run_op(mains[t], op.key, op.argv) for t in order}
                    first = results[0]
                    for t, result in sorted(results.items()):
                        best[t][i] = min(best[t][i], result.seconds)
                        if result.error or (result.exit_code, result.stdout) != (
                                first.exit_code, first.stdout):
                            problems.append(f"round {r} {op.key}: {names[t]} "
                                            f"{result.error or 'differs from ' + names[0]}")
        finally:
            os.chdir(old_cwd)
    for line in problems[:20]:
        print(f"DIFFERS {line}", file=sys.stderr)
    totals = [sum(times) for times in best]
    for name, total in zip(names, totals):
        print(f"{name}: {total * 1000:.3f} ms summed per-op minimum over {args.rounds} round(s),"
              f" {len(ops)} ops, {total / totals[0]:.4f}x {names[0]}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
