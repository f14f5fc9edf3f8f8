"""Unit tests for the extension experiment modules (small parameters)."""

import pytest

from repro.experiments import overhead, scaling
from repro.experiments.harness import list_experiments


def test_new_experiments_registered():
    ids = list_experiments()
    assert "overhead" in ids
    assert "scaling" in ids


class TestOverhead:
    def test_small_run(self):
        # Min of 3 samples per variant (the experiment's default), so one
        # host stall of a ~4 ms sample cannot decide the ratio.
        result = overhead.run(nthreads=2, rounds=5, cs_seconds=2e-4, repeats=3)
        assert result.values["plain"] > 0
        assert result.values["traced"] > 0
        # Sanity ceiling, generous for CI noise on tiny runs.
        assert result.values["overhead"] < 2.0
        assert "Instrumentation overhead" in result.render()

    def test_values_consistent(self):
        result = overhead.run(nthreads=2, rounds=5, cs_seconds=2e-4, repeats=1)
        assert result.values["overhead"] == pytest.approx(
            result.values["traced"] / result.values["plain"] - 1.0
        )


class TestScaling:
    def test_two_point_sweep(self):
        result = scaling.run(thread_counts=(4, 16), seed=0)
        for app in ("radiosity", "tsp", "raytrace", "volrend"):
            assert app in result.values
            assert set(result.values[app]) == {4, 16}
            cp16 = result.values[app][16]["cp_fraction"]
            assert 0 <= cp16 <= 1
        # Radiosity's master queue grows.
        rad = result.values["radiosity"]
        assert rad[16]["cp_fraction"] > rad[4]["cp_fraction"]

    def test_render_has_ratio_column(self):
        result = scaling.run(thread_counts=(4,), seed=0)
        assert "CP/Wait" in result.render()
