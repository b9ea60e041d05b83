"""Span recording: wrapping, restoring, self time and per-layer counts."""

import contextlib
import io

import homstruct.catalog as catalog
import homstruct.cli as cli

import spans


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, (), None]


def test_self_time_subtracts_direct_children():
    recorded = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("fileformat.parse_file", 1.0, 3.0, 0),
        _span("modules.negate_module", 4.0, 8.0, 0),
        _span("algebras.negate", 5.0, 6.0, 2),
    ]
    assert spans.self_times(recorded) == [4.0, 2.0, 3.0, 1.0]


def test_instrument_records_calls_into_layers_and_restores(tmp_path):
    original_parse, original_entries = cli.parse_file, catalog.entries
    tracer = spans.Tracer()
    main = tracer.wrap("cli.main", cli.main)
    restore = spans.instrument(tracer)
    try:
        assert cli.parse_file is not original_parse
        out = tmp_path / "octonions.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["catalog", "export", "octonions", "--out", str(out)]) == 0
            assert main(["verify", str(out), "octonions", "--suite", "HOM_ASSOC"]) == 1
    finally:
        restore()
    assert cli.parse_file is original_parse and catalog.entries is original_entries
    names = [s[spans.NAME] for s in tracer.spans]
    assert names.count("cli.main") == 2
    assert names.count("catalog.entries") == 1
    assert "fileformat.parse_file" in names
    assert "algebras.check_hom_associative" in names
    metrics, self_by_layer = spans.layer_metrics(tracer.spans, 2, tmp_path)
    assert metrics["catalog.entries_calls"] == 0.5
    assert metrics["algebras.checks"] == 0.5
    assert metrics["algebras.tuples"] == 8 ** 3 / 2
    assert metrics["report.failures"] == 168 / 2
    assert metrics["report.witnesses"] == 16 / 2
    assert metrics["fileformat.parse_bytes"] == out.stat().st_size / 2
    assert metrics["exact.input_nnz"] == (64 + 8) / 2
    assert set(self_by_layer) >= {"cli", "catalog", "fileformat", "algebras"}


def test_coalgebra_scan_counts_follow_the_report_parts():
    from homstruct.catalog import poisson_dual_dim4
    from homstruct.coalgebras import check_hom_poisson_coalgebra

    coalg = poisson_dual_dim4()
    span = ["coalgebras.check_hom_poisson_coalgebra", 0.0, 1.0, -1, 0, (coalg,),
            check_hom_poisson_coalgebra(coalg)]
    metrics, _ = spans.layer_metrics([span], 1, None)
    n = 4
    assert metrics["coalgebras.scan_points"] == 7 * n
    assert metrics["coalgebras.residual_entries"] == n * (4 * n * n + 3 * n ** 3)
