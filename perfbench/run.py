"""homstruct benchmark: replay CLI traffic in process and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory.  One client, one op in flight (closed loop).  A run
replays ``ceil(S / nominal pass time)`` whole passes of the workload, so
every commit compared replays the same ops.  Times are scaled to a
reference machine speed measured during the run.  The last stdout line is
the JSON result; the lines before it repeat the metrics for people.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
from timing import CALIBRATION_REF_S, calibrate, error_rate, run_op, tail_percentile

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

# Turns --seconds into a whole number of passes.  Roughly the wall time of one
# pass at the seed commit on the reference machine (Python 3.11, 2 vCPUs);
# dense's is set so that a 24-second run replays five passes.
NOMINAL_PASS_S = {"catalog_session": 2.2, "dense": 4.8, "sparse16": 5.6}
# Enough passes for op_s.tail, which needs more than 10 ops.
MIN_PASSES = {"catalog_session": 1, "dense": 1, "sparse16": 2}
SETUP_SAMPLES = 9  # fresh processes timed for setup_s, this one included
SETUP_CALIBRATIONS = 20  # speed samples taken right after each set-up
PROBE_TIMEOUT_S = 120
CALIBRATE_EVERY_S = 0.1

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.self_s": "s/op",
    "fileformat.parse_s": "s/op",
    "fileformat.parse_bytes": "B/op",
    "fileformat.serialize_s": "s/op",
    "fileformat.serialize_bytes": "B/op",
    "catalog.entries_s": "s/op",
    "catalog.entries_calls": "count/op",
    "algebras.check_s": "s/op",
    "algebras.checks": "count/op",
    "algebras.tuples": "count/op",
    "algebras.construct_s": "s/op",
    "modules.check_s": "s/op",
    "modules.checks": "count/op",
    "modules.tuples": "count/op",
    "modules.construct_s": "s/op",
    "coalgebras.check_s": "s/op",
    "coalgebras.checks": "count/op",
    "coalgebras.scan_points": "count/op",
    "coalgebras.residual_entries": "count/op",
    "coalgebras.construct_s": "s/op",
    "comodules.check_s": "s/op",
    "comodules.checks": "count/op",
    "comodules.scan_points": "count/op",
    "comodules.residual_entries": "count/op",
    "comodules.construct_s": "s/op",
    "exact.input_nnz": "count/op",
    "report.failures": "count/op",
    "report.witnesses": "count/op",
    "trace.overhead_pct": "%",
}


def import_program():
    """Import ``homstruct.cli`` from this checkout; returns the module and the import time."""
    if not (SRC / "homstruct" / "cli.py").is_file():
        raise SystemExit(f"error: no program source under {SRC.name}/ next to the benchmark")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import homstruct.cli as cli

    seconds = time.perf_counter() - start
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported homstruct from {cli.__file__}, not from this checkout")
    return cli, seconds


def pass_count(workload: str, seconds: int) -> int:
    return max(MIN_PASSES[workload], math.ceil(seconds / NOMINAL_PASS_S[workload]))


def setup(args, workdir: Path):
    """Import the program and build the workload's inputs, timed from before the import.

    Returns the module handles, the passes, the import time and the setup
    time, both times scaled by the slowdown sampled right after set-up.
    """
    start = time.perf_counter()
    cli, import_s = import_program()
    import workloads  # builds inputs with the program, so it comes after the timed import

    workdir.mkdir(parents=True, exist_ok=True)
    passes = workloads.WORKLOADS[args.workload](args.seed, pass_count(args.workload, args.seconds),
                                                workdir)
    setup_s = time.perf_counter() - start
    slowdown = statistics.fmean(calibrate() for _ in range(SETUP_CALIBRATIONS)) / CALIBRATION_REF_S
    return cli, workloads, passes, import_s / slowdown, setup_s / slowdown


def probe_setups(args, count: int) -> list[float]:
    """setup seconds of ``count`` fresh processes, run one after another."""
    out = []
    for _ in range(count):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise SystemExit(f"error: setup probe failed: {done.stderr.strip()}")
        out.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return out


def replay(call, ops, tracer=None):
    """One pass, closed loop; returns the op results and the pass's slowdown.

    After each op the machine's speed is sampled, once per CALIBRATE_EVERY_S
    of op time, so the samples spread evenly over the pass.  Only the ops
    themselves are timed.
    """
    results, samples = [], []
    gc.collect()
    owed = CALIBRATE_EVERY_S
    for op in ops:
        if tracer is not None:
            tracer.op_id = len(tracer.spans)
        results.append(run_op(call, op.key, op.argv))
        owed += results[-1].seconds
        while owed >= CALIBRATE_EVERY_S:
            samples.append(calibrate())
            owed -= CALIBRATE_EVERY_S
    return results, statistics.fmean(samples) / CALIBRATION_REF_S


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time the set-up in this fresh process and print it")
    parser.add_argument("--record", action="store_true",
                        help="store output digests for this seed under expected/")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    workdir = SCRATCH / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            setup_s = setup(args, workdir)[-1]
            print(json.dumps({"setup_s": setup_s}))
            return 0
        probes = [] if args.trace else probe_setups(args, SETUP_SAMPLES - 1)
        cli, workloads, passes, import_s, own_setup_s = setup(args, workdir)
        return measure(args, cli, workloads, passes, workdir, import_s,
                       statistics.median(probes + [own_setup_s]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _scaled(replays) -> list[float]:
    """Op times of (results, slowdown) pairs, each divided by its pass's slowdown."""
    return [r.seconds / slowdown for results, slowdown in replays for r in results]


def measure(args, cli, workloads, passes, workdir, import_s, setup_s) -> int:
    untraced, traced = [], []  # (results, slowdown) per pass
    old_cwd = os.getcwd()
    os.chdir(workdir)
    try:
        if args.trace:
            tracer = spans.Tracer()
            traced_main = tracer.wrap("cli.main", cli.main)
            for ops in passes[: max(1, len(passes) // 2)]:
                untraced.append(replay(cli.main, ops))
                restore = spans.instrument(tracer)
                try:
                    traced.append(replay(traced_main, ops, tracer))
                finally:
                    restore()
        else:
            untraced = [replay(cli.main, ops) for ops in passes]
    finally:
        os.chdir(old_cwd)

    results = [r for rs, _ in untraced for r in rs]
    all_results = results + [r for rs, _ in traced for r in rs]
    problems = checks.check_results(args.workload, args.seed,
                                    {op.key: op for ops in passes for op in ops}, all_results)
    failed = sum(r.error is not None for r in all_results)
    for line in problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    if args.record:
        if problems:
            raise SystemExit("error: not recording outputs that fail their invariants")
        checks.write_record(args.workload, args.seed, workloads.SEED_INDEPENDENT[args.workload],
                            {r.key: checks.digest(r.exit_code, r.stdout) for r in results})

    # Times are divided by their pass's slowdown (see replay and README.md):
    # seconds at the reference machine speed.
    times = _scaled(untraced)
    slowdown = statistics.fmean(s for _, s in untraced)
    raw = [r.seconds for r in results]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(untraced)}"
          f"  ops {len(results)}  closed loop, 1 in flight")
    print(f"machine slowdown {slowdown:.4f} (passes {min(s for _, s in untraced):.4f}"
          f"..{max(s for _, s in untraced):.4f}); raw: replay {sum(raw):.3f} s,"
          f" op p50 {statistics.median(raw):.6f} s")
    print(f"error_rate: {error_rate(all_results):.6f} ratio ({failed} of {len(all_results)} ops)")

    if args.trace:
        traced_times = _scaled(traced)
        traced_slowdown = statistics.fmean(s for _, s in traced)
        per_op, self_by_layer = spans.layer_metrics(tracer.spans, len(traced_times), workdir)
        metrics = {}
        for name, unit in PER_LAYER_UNITS.items():
            value = per_op.get(name, 0)
            metrics[name] = {"value": value / traced_slowdown if unit == "s/op" else value,
                             "unit": unit}
        metrics["cli.import_s"]["value"] = import_s
        metrics["trace.overhead_pct"]["value"] = 100 * (sum(traced_times) / sum(times) - 1)
        for layer, seconds in sorted(self_by_layer.items()):
            print(f"self time {layer}: {seconds / traced_slowdown:.6g} s/op")
        trace_file = SCRATCH / f"trace-{args.workload}-seed{args.seed}.jsonl"
        spans.dump(tracer.spans, trace_file)
        print(f"spans: {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
    else:
        q, tail = tail_percentile(times)
        print(f"op_s.tail is p{q} of {len(times)} ops")
        values = {
            "setup_s": setup_s,
            "ops_per_s": len(times) / sum(times),
            "op_s.p50": statistics.median(times),
            "op_s.tail": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(all_results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
