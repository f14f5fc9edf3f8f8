"""FleetAggregator: observation folding, persistence, summaries."""

from __future__ import annotations

import threading

from tests.fleet.fleethelpers import seeded_aggregator, synth_report

from repro.fleet import FleetAggregator, Observation, render_summary


def test_observe_builds_clusters(tmp_path):
    agg = seeded_aggregator(tmp_path / "fleet", runs=3)
    s = agg.summary()
    assert (s["traces"], s["workloads"], s["clusters"]) == (3, 1, 2)
    top = s["top"]
    assert [c["site"] for c in top] == ["L2", "L1"]
    assert top[0]["runs"] == 3
    assert abs(top[0]["cp_mean"] - 0.8) < 0.01
    assert len(top[0]["series"]) == 3


def test_observe_is_idempotent_by_digest(tmp_path):
    agg = FleetAggregator(tmp_path / "fleet")
    rep = synth_report({"L": 0.5})
    assert agg.observe(rep, digest="d1", workload="w") is not None
    assert agg.observe(rep, digest="d1", workload="w") is None
    assert agg.stats() == {
        "workloads": 1, "observations": 1, "digests": 1, "version": 1,
    }


def test_same_site_instances_fold_into_one_cluster(tmp_path):
    agg = FleetAggregator(tmp_path / "fleet")
    rep = synth_report({"pool[0].m#11": 0.3, "pool[5].m#92": 0.4, "other": 0.1})
    obs = agg.observe(rep, digest="d", workload="w")
    assert isinstance(obs, Observation)
    assert len(obs.locks) == 2  # both pool instances share a fingerprint
    folded = next(m for m in obs.locks.values() if m["site"] == "pool[*].m#*")
    assert abs(folded["cp"] - 0.7) < 1e-9


def test_state_round_trips_through_disk(tmp_path):
    first = seeded_aggregator(tmp_path / "fleet", runs=4)
    reloaded = FleetAggregator(tmp_path / "fleet")
    assert reloaded.summary() == first.summary()
    assert reloaded.version == first.version
    # The reloaded instance keeps ingesting where the first left off.
    assert reloaded.observe(
        synth_report({"L2": 0.8}), digest="run-0", workload="micro"
    ) is None
    assert reloaded.observe(
        synth_report({"L2": 0.8}), digest="new", workload="micro"
    ) is not None


def test_corrupt_state_starts_fresh(tmp_path):
    state = tmp_path / "fleet"
    seeded_aggregator(state, runs=2).compact()  # the runs live in fleet.json
    (state / "fleet.json").write_text("{not json", encoding="utf-8")
    agg = FleetAggregator(state)
    assert agg.stats()["observations"] == 0
    # The fresh state replaced the corrupt checkpoint: what it observes
    # next survives a reopen.
    agg.observe(synth_report({"L": 0.5}), digest="after", workload="w")
    assert FleetAggregator(state).stats()["observations"] == 1


def test_wait_version_wakes_on_observe(tmp_path):
    agg = FleetAggregator(tmp_path / "fleet")
    seen = []

    def waiter():
        seen.append(agg.wait_version(0, timeout=10.0))

    t = threading.Thread(target=waiter)
    t.start()
    agg.observe(synth_report({"L": 0.5}), digest="d", workload="w")
    t.join(timeout=10)
    assert seen == [1]
    # And an immediate return when the version is already newer.
    assert agg.wait_version(0, timeout=0.01) == 1
    assert agg.wait_version(1, timeout=0.01) == 1  # timeout path


def test_render_summary_text(tmp_path):
    agg = seeded_aggregator(tmp_path / "fleet", runs=2)
    text = render_summary(agg.summary())
    assert "2 trace(s)" in text
    assert "L2" in text and "L1" in text
    empty = render_summary(FleetAggregator(tmp_path / "empty").summary())
    assert "no observations" in empty
