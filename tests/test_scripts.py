"""The maintenance scripts under scripts/ still run against the library."""

import functools
import gc
import importlib.util
import pathlib
import subprocess
import sys
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def test_verify_catalog_reports_no_mismatches():
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "verify_catalog.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "entries checked in" in run.stdout and ", 0 mismatches" in run.stdout


def test_regen_golden_reproduces_the_checked_in_files(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("regen_golden", ROOT / "scripts" / "regen_golden.py")
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    monkeypatch.setattr(regen, "DATA", tmp_path)
    regen.main()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in DATA.iterdir())
    for path in DATA.iterdir():
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


def test_benchmark_own_tests_pass():
    # perfbench/tests has its own conftest module, so it cannot share this session
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr


def test_ab_replay_reads_a_tree_against_itself_and_exits_1_on_another_output(tmp_path):
    def replay(*trees):
        return subprocess.run([sys.executable, str(ROOT / "scripts" / "ab_replay.py"),
                               "catalog_session", "1", *trees],
                              capture_output=True, text=True, timeout=300)

    src = ROOT / "src"
    same = replay(f"a={src}", f"b={src}")
    assert same.returncode == 0 and same.stderr == "", same.stdout + same.stderr
    lines = same.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["a", "b"] and lines[0].endswith(" 1.0000x a")
    report = tmp_path / "src" / "homstruct" / "report.py"  # a tree that prints PASS otherwise
    report.parent.mkdir(parents=True)
    for path in (src / "homstruct").glob("*.py"):
        (report.parent / path.name).write_text(path.read_text())
    report.write_text(report.read_text().replace(": PASS", ": Pass"))
    other = replay(f"a={src}", f"b={tmp_path / 'src'}")
    assert other.returncode == 1 and "DIFFERS round 0 verify:" in other.stderr, other.stderr


def test_ab_suites_reads_a_tree_against_itself():
    # Three trees: each later one is read against the first, so a control rides along.
    src = ROOT / "src"
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "ab_suites.py"), "2", "1",
                          f"a={src}", f"b={src}", f"c={src}"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0 and run.stderr == "", run.stdout + run.stderr
    lines = run.stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [["2", "b"], ["2", "c"]]
    for line in lines:
        dim, _, *fields = line.split()
        assert dim == "2" and fields[::3] == ["algebra", "left", "right", "coalgebra", "comodule"]
        assert all(ratio.endswith("x") and ms.endswith("ms") for ratio, ms in zip(fields[1::3],
                                                                                  fields[2::3]))


def time_laws(*argv):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "time_laws.py"), *argv],
        capture_output=True,
        text=True,
        timeout=300,
    )


@functools.cache
def time_laws_at_small_dims():
    """One run at dims 0 to 3, which two tests read: each run times the once-a-run lines
    (the sparse one at dim 16) again."""
    return time_laws("--dims", "0,1,2,3")


def script(name: str):
    """``scripts/<name>.py``, loaded as a module of its own (not put in ``sys.modules``)."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def refuses(capsys, name: str, *argv):
    """Whether ``scripts/<name>.py``'s ``main`` ends ``argv`` as a usage error: exit 2,
    usage on stderr and nothing on stdout (in process, as no timing starts)."""
    with pytest.raises(SystemExit) as exit_:
        script(name).main(list(argv))
    captured = capsys.readouterr()
    return exit_.value.code == 2 and captured.out == "" and "usage:" in captured.err


MODULES = [path.stem for path in sorted((ROOT / "src" / "homstruct").glob("*.py"))]
LAYER_FIELDS = {
    "compile": [f"{stem}_ms" for stem in MODULES] + ["total_ms"],
    "exec": [f"{stem}_ms" for stem in MODULES if stem != "__main__"] + ["total_ms"],
    "records": ["algebra_ns", "module_ns", "coalgebra_ns", "comodule_ns", "witness_ns", "report_ns",
                "mul_tensor_ns", "linear_map_ns"],
    "write": ["build_ms", "serialize_ms", "regular_ms", "regular_kb"],
    "ingest": ["parse_ms", "scaled_ms", "rewrite_ms"],
    "suite": ["algebra_ms", "left_ms", "right_ms", "coalgebra_ms", "comodule_ms", "compiled_kb"],
    "untwisted": ["algebra_ms", "left_ms", "right_ms", "coalgebra_ms", "comodule_ms"],
    "construct": ["twist_module_ms", "twist_comodule_ms", "then_map_ms", "precompose_ms"],
    "catalog": ["catalog_ms", "slowest", "slowest_ms", "first_ms"],
    "sparse": ["serialize_ms", "parse_ms", "scaled_ms", "algebra_ms", "left_ms", "coalgebra_ms", "comodule_ms"],
}
# timed once a run, the sparse line at dim 16 whatever --dims says
RUN_LAYERS = [["-", "compile"], ["-", "exec"], ["-", "records"], ["-", "catalog"], ["16", "sparse"]]
DIM_LAYERS = ["write", "ingest", "suite", "untwisted", "construct"]  # timed once a dim


def layer_ms(row: str, unit: str = "_ms") -> list[float]:
    """The times (or with ``unit="_kb"`` the sizes, ``unit="_ns"`` the ``records`` times) of a
    ``compile``, ``exec``, ``records``, ``catalog``, ``sparse``, ``write``, ``ingest``, ``suite``,
    ``untwisted`` or ``construct`` line, checked against their names."""
    _, label, *fields = row.split()
    assert [field.split("=")[0] for field in fields] == LAYER_FIELDS[label], row
    return [float(value) for name, value in (f.split("=") for f in fields) if name.endswith(unit)]


def test_time_laws_prints_one_line_per_law(capsys):
    from homstruct.axioms import AXIOMS

    run = time_laws_at_small_dims()
    assert run.returncode == 0, run.stdout + run.stderr
    header, *rows = run.stdout.splitlines()
    assert header.split() == ["dim", "law", "ms", "fmt_ms", "failures"]
    assert [row.split()[:2] for row in rows] == RUN_LAYERS + [
        [str(n), law] for n in range(4) for law in DIM_LAYERS + [axiom for _, axiom in AXIOMS]
    ]
    for row in rows[:2]:
        *modules, total = layer_ms(row)
        assert abs(total - sum(modules)) <= 0.005 * (len(modules) + 1), row
    for row in rows:
        if row.split()[1] in LAYER_FIELDS:
            assert min(layer_ms(row) or layer_ms(row, "_ns")) >= 0, row  # records: ns, no ms
            # the regular file's write allocates something, and the suites compile programs
            if row.split()[1] in ("write", "suite"):
                assert layer_ms(row, "_kb")[0] > 0, row
            continue
        _, _, ms, fmt_ms, failures = row.split()
        assert float(ms) >= 0 and float(fmt_ms) >= 0 and int(failures) >= 0
    for dims in ("6,,10", "x", "-1", ""):
        assert refuses(capsys, "time_laws", "--dims", dims), dims


def test_time_laws_at_dims_zero_and_one():
    from homstruct.axioms import AXIOMS

    run = time_laws_at_small_dims()
    assert run.returncode == 0, run.stdout + run.stderr
    rows = [row.split() for row in run.stdout.splitlines()[1:]]
    layers = [row[:2] for row in rows if row[1] in LAYER_FIELDS]
    assert layers == RUN_LAYERS + [[str(n), label] for n in range(4) for label in DIM_LAYERS]
    rows = [row for row in rows if row[1] not in LAYER_FIELDS]
    assert [row[:2] for row in rows] == [[str(n), axiom] for n in range(4) for _, axiom in AXIOMS]
    # Nothing fails over empty structures; the dim-1 counts are pinned.
    failures = {(n, axiom): int(f) for n, axiom, _, _, f in rows}
    assert {failures["0", axiom] for _, axiom in AXIOMS} == {0}
    assert {axiom: failures["1", axiom] for _, axiom in AXIOMS if failures["1", axiom]} == {
        "LEFT_MODULE": 1, "RIGHT_MODULE": 1, "HOM_COASSOC_COALGEBRA": 1,
        "DELTA_MULTIPLICATIVITY": 1, "HOM_LIE_COALGEBRA": 3, "SKEW_COSYMMETRY": 1,
        "GAMMA_MULTIPLICATIVITY": 1, "HOM_COJACOBI": 1, "HOM_COLEIBNIZ": 1,
        "HOM_POISSON_COALGEBRA": 5, "COASSOC_COMODULE": 2, "LIE_COMODULE": 2,
        "POISSON_COMODULE": 6,
    }


def test_time_laws_times_only_the_named_laws(capsys):
    from homstruct import catalog

    run = time_laws("--dims", "2", "--laws", "HOM_POISSON_COALGEBRA", "--repeat", "2")
    assert run.returncode == 0, run.stdout + run.stderr
    header, *rows = run.stdout.splitlines()
    assert [row.split()[:2] for row in rows] == RUN_LAYERS + [
        ["2", "write"], ["2", "ingest"], ["2", "suite"], ["2", "untwisted"], ["2", "construct"],
        ["2", "HOM_POISSON_COALGEBRA"]
    ]
    # The catalog line times every entry whatever --laws names: the sum, then the slowest,
    # then the sum of the first runs, which also compile every row and program.
    total, slowest, first = layer_ms(rows[3])
    assert 0 < slowest <= total < first and rows[3].split()[3].split("=")[1] in [entry.name for entry in catalog.entries()]
    for laws in ("NO_SUCH_LAW", "HOM_ASSOC,NO_SUCH_LAW", ""):
        assert refuses(capsys, "time_laws", "--dims", "2", "--laws", laws), laws


def test_ab_suites_refuses_the_dims_time_laws_refuses(capsys, monkeypatch):
    # ab_suites imports its neighbours by name: sys.path and sys.modules are restored after
    monkeypatch.setattr(sys, "path", list(sys.path))
    for name in ("ab_replay", "time_laws"):
        monkeypatch.setitem(sys.modules, name, script(name))
    src = ROOT / "src"
    for dims in ("6,,10", "x", "-1", ""):
        assert refuses(capsys, "ab_suites", dims, "1", f"a={src}", f"b={src}"), dims


def test_quiet_collects_once_then_keeps_the_collector_off_raising_or_not():
    quiet, seen = script("time_laws").quiet, []

    def record(phase, info):
        seen.append((phase, info["generation"]))

    assert gc.isenabled()
    gc.callbacks.append(record)
    try:
        with quiet():
            assert seen[-2:] == [("start", 2), ("stop", 2)] and not gc.isenabled()
        assert gc.isenabled()
        with pytest.raises(ZeroDivisionError):
            with quiet():
                assert not gc.isenabled()
                1 / 0
        assert gc.isenabled()
    finally:
        gc.callbacks.remove(record)
        gc.enable()


def test_best_times_each_call_alone_on_a_fresh_setup_value(monkeypatch):
    time_laws, events = script("time_laws"), []
    clock, made = iter([0.0, 5.0, 10.0, 12.0, 20.0, 27.0, 30.0, 31.0]), iter("abc")

    class Made:
        def __init__(self, tag):
            self.tag = tag

        def __del__(self):
            events.append("free " + self.tag)

    def perf_counter():
        events.append("clock")
        return next(clock)

    def setup():
        events.append("setup")
        return next(made)

    def run(value):
        events.append(value)
        return Made(value.upper())

    monkeypatch.setattr(time_laws, "time", types.SimpleNamespace(perf_counter=perf_counter))
    # spans of 5, 2 and 7: the best, and the last call's value; each earlier value is
    # freed, and each setup made, outside every span
    seconds, last = time_laws.best(run, 3, setup)
    assert (seconds, last.tag) == (2.0, "C")
    assert events == ["setup", "clock", "a", "clock", "free A", "setup", "clock", "b", "clock",
                      "free B", "setup", "clock", "c", "clock"]
    assert time_laws.best(lambda: events.append("alone") or 9, 1) == (1.0, 9)
    assert events[-3:] == ["clock", "alone", "clock"]
