"""Job model, JobStore, and the picklable execute() facade."""

import pytest

from repro.core.analyzer import analyze
from repro.errors import ServiceError
from repro.service.jobs import JobSpec, JobStore, execute
from repro.trace import write_trace


@pytest.fixture
def micro_path(micro_trace, tmp_path):
    return str(write_trace(micro_trace, tmp_path / "micro.clt"))


class TestJobSpec:
    def test_cache_key_is_deterministic(self):
        a = JobSpec("analyze", ("d1",), {"top": 5})
        b = JobSpec("analyze", ("d1",), {"top": 5})
        assert a.cache_key() == b.cache_key()

    def test_cache_key_separates_kind_params_traces(self):
        base = JobSpec("analyze", ("d1",), {}).cache_key()
        assert JobSpec("forecast", ("d1",), {}).cache_key() != base
        assert JobSpec("analyze", ("d2",), {}).cache_key() != base
        assert JobSpec("analyze", ("d1",), {"top": 3}).cache_key() != base

    def test_unknown_kind_rejected(self):
        with pytest.raises(ServiceError, match="unknown job kind"):
            JobSpec("frobnicate", ("d1",), {})

    def test_arity_enforced(self):
        with pytest.raises(ServiceError, match="takes 2 trace"):
            JobSpec("compare", ("d1",), {})
        with pytest.raises(ServiceError, match="takes 1 trace"):
            JobSpec("analyze", ("d1", "d2"), {})
        with pytest.raises(ServiceError, match="takes 0 trace"):
            JobSpec("check", ("d1",), {})


class TestJobStore:
    def test_lifecycle(self):
        store = JobStore()
        job = store.create(JobSpec("selftest", (), {}))
        assert job.state == "queued"
        store.mark_running(job.id)
        assert store.get(job.id).state == "running"
        store.mark_done(job.id, {"ok": True})
        done = store.get(job.id)
        assert done.state == "done"
        assert done.latency is not None
        assert done.to_dict()["state"] == "done"
        assert "result" not in done.to_dict()
        assert done.to_dict(include_result=True)["result"] == {"ok": True}

    def test_unknown_job_404(self):
        with pytest.raises(ServiceError, match="no such job") as ei:
            JobStore().get("nope")
        assert ei.value.status == 404

    def test_history_trims_finished_not_active(self):
        store = JobStore(max_finished=2)
        keep = store.create(JobSpec("selftest", (), {"i": -1}))  # stays queued
        done = [store.create(JobSpec("selftest", (), {"i": i})) for i in range(4)]
        for job in done:
            store.mark_done(job.id, {})
        assert store.get(keep.id).state == "queued"
        assert len(store.list()) <= 3  # 2 finished + the queued one

    def test_trim_at_full_history_touches_only_what_it_drops(self):
        # At a full history every create and mark_done trims; the trim
        # stops once it has dropped enough instead of walking every job.
        store = JobStore(max_finished=256)
        running = store.create(JobSpec("selftest", (), {"i": -1}))
        store.mark_running(running.id)
        for i in range(300):
            job = store.create(JobSpec("selftest", (), {"i": i}))
            store.mark_done(job.id, {})
        visits = []

        class Counting(dict):
            def __getitem__(self, key):
                visits.append(key)
                return super().__getitem__(key)

            def items(self):
                for key, value in super().items():
                    visits.append(key)
                    yield key, value

        store._jobs = Counting(store._jobs)
        job = store.create(JobSpec("selftest", (), {"i": 300}))
        store.mark_done(job.id, {})
        assert len(visits) <= 4  # the running job, then the oldest finished
        order = [j.spec.params["i"] for j in store.list()]
        assert order == [-1, *range(301 - 255, 301)]


class TestExecute:
    def test_analyze_matches_in_process(self, micro_trace, micro_path):
        out = execute("analyze", [micro_path], {})
        expected = analyze(micro_trace).report.to_dict()
        assert out["locks"] == expected["locks"]
        assert out["critical_locks"][0]["name"] == "L2"

    def test_whatif(self, micro_path):
        out = execute("whatif", [micro_path], {"lock": "L2", "factor": 0.6})
        assert out["predicted_speedup"] == pytest.approx(1.263, abs=1e-3)

    def test_whatif_requires_lock(self, micro_path):
        with pytest.raises(ServiceError, match="params.lock"):
            execute("whatif", [micro_path], {})

    def test_whatif_protocol_identity_fifo(self, micro_trace, micro_path):
        out = execute("whatif_protocol", [micro_path], {"protocol": "fifo"})
        assert out["predicted_time"] == micro_trace.duration
        assert out["reranked"] is False

    def test_whatif_protocol_renders_and_serializes(self, micro_path):
        import json

        out = execute(
            "whatif_protocol", [micro_path],
            {"protocol": "priority", "priorities": {"1": 5}, "render": True},
        )
        assert out["protocol"] == "priority"
        assert "protocol what-if" in out["rendered"]
        json.dumps(out)

    def test_compare_identical_traces(self, micro_path):
        out = execute("compare", [micro_path, micro_path], {})
        assert out["speedup"] == pytest.approx(1.0)

    def test_forecast(self, micro_path):
        out = execute("forecast", [micro_path], {"thread_counts": [8, 64]})
        assert out["locks"][0]["name"] == "L2"
        assert set(out["completion_time"]) == {"8", "64"}

    def test_unknown_kind(self):
        with pytest.raises(ServiceError, match="unknown job kind"):
            execute("nope", [], {})

    def test_check_runs_differential_seeds(self):
        out = execute("check", [], {"count": 2, "start": 7})
        assert out["ok"] is True
        assert out["seeds"] == 2
        assert out["start"] == 7
        assert out["failures"] == []

    def test_check_result_is_json_serializable(self):
        import json

        json.dumps(execute("check", [], {"count": 1}))

    def test_results_are_json_serializable(self, micro_path):
        import json

        for kind, params in [
            ("analyze", {}),
            ("whatif", {"lock": "L1"}),
            ("forecast", {}),
        ]:
            json.dumps(execute(kind, [micro_path], params))


class TestSampledAnalyze:
    def test_downsamples_full_trace_server_side(self, micro_trace, micro_path):
        out = execute(
            "sampled_analyze", [micro_path],
            {"rate": 1.0, "seed": 0, "render": True, "top": 3},
        )
        exact = analyze(micro_trace).report
        assert out["sampling"] == {"strategy": "unit-hash", "rate": 1.0, "seed": 0}
        ranked = out["critical_locks"]
        assert ranked[0]["name"] == "L2"
        # Rate 1.0 through the service is still bit-identical to exact.
        assert ranked[0]["cp_time_frac"] == exact.lock("L2").cp_fraction
        assert "statistical critical lock estimate" in out["rendered"]

    def test_accepts_pre_sampled_trace(self, micro_trace, tmp_path):
        from repro.sampling import downsample_trace

        sampled = downsample_trace(micro_trace, 0.5, seed=3)
        path = str(write_trace(sampled, tmp_path / "sampled.clt"))
        out = execute("sampled_analyze", [path], {})
        assert out["sampling"]["rate"] == 0.5
        for row in out["locks"].values():
            assert 0.0 <= row["ci_low"] <= row["ci_high"] <= 1.0

    def test_json_serializable(self, micro_path):
        import json

        json.dumps(execute("sampled_analyze", [micro_path], {"rate": 0.5}))
