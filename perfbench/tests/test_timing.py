"""The tail rule, op error accounting and output checks."""

import pytest

import checks
from timing import error_rate, run_op, tail_percentile
from workloads import Op


def test_tail_keeps_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    assert tail_percentile(values) == (90, 90.0)
    q, value = tail_percentile([float(i) for i in range(1, 12)])
    assert value == 1.0 and q == 9  # 11 samples: only the smallest has 10 beyond it


@pytest.mark.parametrize("n", [11, 12, 30, 37, 100, 137, 1000])
def test_tail_is_the_highest_such_percentile(n):
    values = [float(i) for i in range(n)]
    q, value = tail_percentile(values)
    rank = values.index(value) + 1
    assert n - rank >= 10
    if q < 99:  # one percentile higher leaves fewer than ten beyond
        import math

        assert n - math.ceil((q + 1) / 100 * n) < 10


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 10)


def _main_printing(text, code=0):
    def main(argv):
        print(text)
        return code

    return main


def _raising_main(argv):
    raise RuntimeError("boom")


def test_error_rate_counts_raises_and_wrong_output():
    expect_ok = lambda code, out: None if (code, out) == (0, "ok\n") else f"got {code} {out!r}"
    ops = {key: Op(key, [], expect_ok) for key in ("good", "raises", "differs", "refused")}
    ops["refused"] = Op("refused", [], lambda code, out: None if code == 2 else "want exit 2")
    results = [
        run_op(_main_printing("ok"), "good", []),
        run_op(_raising_main, "raises", []),
        run_op(_main_printing("not ok"), "differs", []),
        run_op(_main_printing("", code=2), "refused", []),
    ]
    assert results[1].error == "raised RuntimeError: boom"
    problems = checks.check_results("no-record-workload", 0, ops, results)
    assert [r.error is not None for r in results] == [False, True, True, False]
    assert len(problems) == 2
    assert error_rate(results) == 0.5


@pytest.mark.parametrize("arg, code", [(2, 2), (None, 0), ("message", 1)])
def test_system_exit_is_an_exit_code_not_a_raise(arg, code):
    def main(argv):
        raise SystemExit(arg)

    result = run_op(main, "k", [])
    assert result.exit_code == code and result.error is None


def test_recorded_digest_overrides(monkeypatch):
    op = Op("k", [], lambda code, out: None)
    result = run_op(_main_printing("changed"), "k", [])
    monkeypatch.setattr(checks, "load_record", lambda workload, seed: {"k": checks.digest(0, "was\n")})
    assert checks.check_results("w", 1, {"k": op}, [result]) == [
        "k: output differs from the recorded digest"]


def test_verify_invariant_on_pinned_counts():
    out = "LEFT_HOM_ALT: FAIL (2 failing indices; showing 2)\n  (0,1,2): [1, -1/2]\n  (1,1,1): [0, 3]\n"
    check = checks.verify_invariant(["LEFT_HOM_ALT"], totals={"LEFT_HOM_ALT": 2})
    assert check(1, out) is None
    assert "expected 3" in checks.verify_invariant(["LEFT_HOM_ALT"], totals={"LEFT_HOM_ALT": 3})(1, out)
    assert "exit 0" in check(0, out)
    assert "witness lines" in check(1, out.rsplit("  (1", 1)[0])
