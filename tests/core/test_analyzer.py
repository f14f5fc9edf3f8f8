"""Analyzer façade."""

import pytest

from repro.core.analyzer import analyze
from repro.errors import TraceValidationError
from repro.trace.builder import TraceBuilder


def test_full_pipeline(micro_trace):
    result = analyze(micro_trace)
    assert result.report.nthreads == 4
    assert result.report.duration == pytest.approx(12.0)
    assert result.critical_path.length == pytest.approx(12.0)
    assert set(result.timeline_columns.tids.tolist()) == {0, 1, 2, 3}
    assert "critical lock analysis" in result.render()


def test_validation_enabled_by_default():
    b = TraceBuilder()
    t = b.thread()
    t.start(at=0.0)  # missing exit
    trace = b.build(validate=False)
    with pytest.raises(TraceValidationError):
        analyze(trace)
    # Opt-out still analyzes best-effort.
    result = analyze(trace, validate=False)
    assert result.report.nthreads == 1


def test_graph_cached(micro_trace):
    result = analyze(micro_trace)
    assert result.graph is result.graph


def test_report_name_from_meta(micro_trace):
    assert analyze(micro_trace).report.name == "micro"
