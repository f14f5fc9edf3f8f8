"""Fleet state on disk: a checkpoint plus an append-only observation log."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

import repro.fleet.aggregate as aggregate
from repro.errors import ReproError
from repro.fleet import FleetAggregator
from repro.fleet.aggregate import FleetState, Observation, apply
from repro.service.jobs import execute

from tests.fleet.fleethelpers import seeded_aggregator, synth_report


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _views(agg: FleetAggregator) -> tuple[str, str, str]:
    return (
        _digest(agg.summary(top=10**9)),
        _digest(agg.regressions()),
        _digest(agg.stats()),
    )


def _logs(state_dir) -> list[str]:
    return sorted(p.name for p in state_dir.glob("fleet.*.log"))


def test_observe_appends_one_line_and_writes_no_checkpoint(tmp_path):
    agg = seeded_aggregator(tmp_path / "fleet", runs=3)
    assert not agg.state_path.exists()
    lines = (tmp_path / "fleet" / "fleet.0.log").read_bytes().splitlines()
    assert [json.loads(line)["digest"] for line in lines] == ["run-0", "run-1", "run-2"]
    assert [json.loads(line)["seq"] for line in lines] == [1, 2, 3]


def test_replay_equality_after_trimming_past_the_window(tmp_path):
    """Folding checkpoint + log rebuilds, hash for hash, the state the
    live aggregator built, after series trimmed past 512 and the log
    was compacted on its own."""
    rng = random.Random(11)
    state_dir = tmp_path / "fleet"
    agg = FleetAggregator(state_dir)
    workloads = ["hot", "cold", "warm"]
    group: list[Observation] = []
    for i in range(900):
        workload = "hot" if i % 4 else rng.choice(workloads)
        report = synth_report(
            {"L1": rng.random(), "L2": rng.random() / 2, f"pool[{i % 3}].m": 0.1},
            name=workload,
        )
        digest = f"d{rng.randrange(4000)}"  # some byte-identical re-uploads
        # Mostly group commits, some one by one.
        if i % 50 == 0:
            agg.observe(report, digest=digest, workload=workload, ts=float(i))
        else:
            group.append(Observation.from_report(
                report, digest=digest, workload=workload, ts=float(i)))
        if i % 64 == 63:
            agg.commit(group)
            group = []
    agg.commit(group)
    assert agg.stats()["observations"] > aggregate._MAX_OBSERVATIONS
    assert len(agg._state.series["hot"]) == aggregate._MAX_OBSERVATIONS
    assert agg.state_path.exists()  # a compaction happened on its own
    assert _logs(state_dir) == [f"fleet.{agg._log_seq}.log"]
    assert agg._log_seq > 0

    reread = FleetAggregator(state_dir, read_only=True)
    assert _views(reread) == _views(agg)
    assert reread.version == agg.version
    # A writer's reopen folds the same, and a second compaction too.
    reopened = FleetAggregator(state_dir)
    assert _views(reopened) == _views(agg)
    reopened.compact()
    assert _views(FleetAggregator(state_dir, read_only=True)) == _views(agg)


def test_trimmed_digests_stay_observed(tmp_path, monkeypatch):
    """The series trim, the digests do not: a trace observed before its
    workload's window moved on is still a duplicate, also after the
    checkpoint and log are folded again."""
    monkeypatch.setattr(aggregate, "_MAX_OBSERVATIONS", 3)
    monkeypatch.setattr(aggregate, "_COMPACT_MIN_LINES", 0)
    state_dir = tmp_path / "fleet"
    agg = FleetAggregator(state_dir)
    for i in range(5):
        agg.observe(synth_report({"L": 0.5}), digest=f"d{i}", workload="w")
    assert agg.stats() == {"workloads": 1, "observations": 3, "digests": 5,
                           "version": 5}
    assert agg.state_path.exists()  # compacted: d0 and d1 live in the checkpoint
    for reopened in (agg, FleetAggregator(state_dir, read_only=True)):
        assert reopened.has("d0")
        assert reopened.observe(synth_report({"L": 0.5}), digest="d0",
                                workload="w") is None


def test_apply_is_the_reducer_of_the_fold():
    state = FleetState()
    obs = [
        Observation.from_report(synth_report({"L": 0.1 * i}), digest=f"d{i}",
                                workload="w", seq=i + 1, ts=float(i))
        for i in range(4)
    ]
    for o in obs:
        apply(state, o)
    again = FleetState()
    for o in obs:
        apply(again, o)
    assert state == again
    assert (state.seq, state.version) == (4, 4)
    assert list(state.digests) == ["d0", "d1", "d2", "d3"]


def test_torn_tail_is_dropped(tmp_path):
    state_dir = tmp_path / "fleet"
    saved = seeded_aggregator(state_dir, runs=3)
    log = state_dir / "fleet.0.log"
    whole = log.read_bytes()
    log.write_bytes(whole + b'{"digest": "run-3", "workl')  # cut mid-append

    reader = FleetAggregator(state_dir, read_only=True)
    assert _views(reader) == _views(saved)
    assert log.read_bytes().endswith(b"workl")  # a reader repairs nothing

    writer = FleetAggregator(state_dir)
    assert _views(writer) == _views(saved)
    assert log.read_bytes() == whole  # the writer cut the torn tail
    writer.observe(synth_report({"L2": 0.8}), digest="run-3", workload="micro")
    assert FleetAggregator(state_dir, read_only=True).has("run-3")


def test_unreadable_line_ends_the_fold(tmp_path):
    state_dir = tmp_path / "fleet"
    seeded_aggregator(state_dir, runs=3)
    log = state_dir / "fleet.0.log"
    lines = log.read_bytes().splitlines(keepends=True)
    log.write_bytes(lines[0] + b"not json\n" + lines[2])
    agg = FleetAggregator(state_dir)
    assert agg.has("run-0") and not agg.has("run-2")
    assert log.read_bytes() == lines[0]


def test_worker_open_during_compaction_loses_nothing(tmp_path, monkeypatch):
    """A ``fleet_summary`` worker reads the checkpoint, then the API
    compacts (new checkpoint, old log removed), then the worker reads
    the log it was pointed at: it must notice and read again."""
    state_dir = tmp_path / "fleet"
    writer = seeded_aggregator(state_dir, runs=5)
    writer.compact()
    for i in range(5, 8):
        writer.observe(synth_report({"L2": 0.8, "L1": 0.2}), digest=f"run-{i}",
                       workload="micro", ts=float(i))
    real_read_log = FleetAggregator._read_log
    raced = []

    def read_log_after_compaction(self, path):
        if not raced:
            raced.append(path.name)
            writer.compact()  # lands between the checkpoint and log reads
        return real_read_log(self, path)

    monkeypatch.setattr(FleetAggregator, "_read_log", read_log_after_compaction)
    result = execute("fleet_summary", [], {"state_dir": str(state_dir)})
    assert raced == ["fleet.5.log"]
    assert not (state_dir / "fleet.5.log").exists()
    assert result == writer.summary()
    assert result["traces"] == 8


def test_version1_state_file_opens_as_the_checkpoint(tmp_path):
    """A data dir written before the log existed migrates on open."""
    state_dir = tmp_path / "fleet"
    state_dir.mkdir()
    live = seeded_aggregator(tmp_path / "reference", runs=3)
    blob = live._state.to_checkpoint()
    blob["state_version"] = 1
    (state_dir / "fleet.json").write_text(json.dumps(blob))

    agg = FleetAggregator(state_dir)
    assert _views(agg) == _views(live)
    agg.observe(synth_report({"L2": 0.8}), digest="run-3", workload="micro")
    assert _logs(state_dir) == ["fleet.3.log"]
    assert FleetAggregator(state_dir, read_only=True).stats()["observations"] == 4


def test_version1_trimmed_digests_are_kept(tmp_path):
    """A version-1 file listed digests its series had trimmed: they
    stay observed."""
    state_dir = tmp_path / "fleet"
    state_dir.mkdir()
    blob = seeded_aggregator(tmp_path / "reference", runs=2)._state.to_checkpoint()
    blob["state_version"] = 1
    blob["digests"] = {"trimmed-long-ago": "micro", **blob["digests"]}
    (state_dir / "fleet.json").write_text(json.dumps(blob))
    agg = FleetAggregator(state_dir)
    assert agg.has("trimmed-long-ago")
    assert agg.stats() == {"workloads": 1, "observations": 2, "digests": 3,
                           "version": 2}


def test_unknown_state_version_starts_fresh(tmp_path):
    state_dir = tmp_path / "fleet"
    seeded_aggregator(state_dir, runs=2).compact()
    blob = json.loads((state_dir / "fleet.json").read_text())
    (state_dir / "fleet.json").write_text(json.dumps({**blob, "state_version": 99}))
    assert FleetAggregator(state_dir).stats()["observations"] == 0


def test_stale_logs_are_removed_by_the_writer_only(tmp_path):
    # What a power cut between a compaction's checkpoint write and its
    # unlink of the old log leaves behind.
    state_dir = tmp_path / "fleet"
    seeded_aggregator(state_dir, runs=2).compact()
    stale = state_dir / "fleet.0.log"
    stale.write_bytes(b'{"stale": true}\n')
    assert FleetAggregator(state_dir, read_only=True).stats()["observations"] == 2
    assert stale.exists()
    assert FleetAggregator(state_dir).stats()["observations"] == 2
    assert not stale.exists()


def test_read_only_creates_and_writes_nothing(tmp_path):
    missing = tmp_path / "fleet"
    agg = FleetAggregator(missing, read_only=True)
    assert agg.stats()["observations"] == 0
    # Observations fold into memory only.
    assert agg.observe(synth_report({"L": 0.5}), digest="d", workload="w")
    assert agg.summary()["traces"] == 1
    with pytest.raises(ReproError, match="read-only"):
        agg.compact()
    assert not missing.exists()


def test_group_commit_is_one_append_and_durable_before_visible(tmp_path, monkeypatch):
    agg = FleetAggregator(tmp_path / "fleet")
    appends = []
    real_append = aggregate.append_durable

    def append(path, data):
        # Nothing of the group is visible while its bytes are in flight.
        appends.append((agg.stats()["observations"], agg.version, data.count(b"\n")))
        real_append(path, data)

    monkeypatch.setattr(aggregate, "append_durable", append)
    group = [
        Observation.from_report(synth_report({"L": 0.5}), digest=d, workload="w")
        for d in ("a", "b", "a", "c")
    ]
    committed = agg.commit(group)
    assert [o.seq if o else None for o in committed] == [1, 2, None, 3]
    assert appends == [(0, 0, 3)]
    assert agg.version == 3


def test_failed_append_leaves_nothing_behind(tmp_path, monkeypatch):
    agg = seeded_aggregator(tmp_path / "fleet", runs=2)
    log = tmp_path / "fleet" / "fleet.0.log"
    before = log.read_bytes()
    import repro._durable as durable

    def failing_fsync(fd):
        raise OSError("disk gone")

    monkeypatch.setattr(durable.os, "fsync", failing_fsync)
    with pytest.raises(OSError):
        agg.observe(synth_report({"L": 0.5}), digest="lost", workload="micro")
    monkeypatch.undo()
    assert log.read_bytes() == before  # cut back to its old length
    assert not agg.has("lost") and agg.version == 2
    agg.observe(synth_report({"L": 0.5}), digest="next", workload="micro")
    assert FleetAggregator(tmp_path / "fleet", read_only=True).stats()["version"] == 3


def _failing_dir_fsync(monkeypatch):
    import repro._durable as durable

    real_fsync_path = durable.fsync_path

    def fsync_path(path):
        if path.is_dir():
            raise OSError("directory fsync failed")
        real_fsync_path(path)

    monkeypatch.setattr(durable, "fsync_path", fsync_path)


def test_failed_log_creation_leaves_no_log(tmp_path, monkeypatch):
    """An append that creates the log and then fails to fsync the
    directory removes the log again: the failed group is not folded in
    on the next open, next to the lines that reuse its seqs."""
    agg = seeded_aggregator(tmp_path / "fleet", runs=2)
    agg.compact()  # the next commit creates fleet.2.log
    with monkeypatch.context() as m:
        _failing_dir_fsync(m)
        with pytest.raises(OSError):
            agg.observe(synth_report({"L": 0.5}), digest="lost", workload="micro")
    assert not (tmp_path / "fleet" / "fleet.2.log").exists()
    assert not agg.has("lost") and agg.version == 2
    agg.observe(synth_report({"L": 0.5}), digest="next", workload="micro")
    reread = FleetAggregator(tmp_path / "fleet", read_only=True)
    assert not reread.has("lost")
    assert _views(reread) == _views(agg)


def test_compaction_whose_dir_fsync_fails_moves_to_the_new_log(tmp_path, monkeypatch):
    """The checkpoint was replaced, only its directory fsync failed: it
    now names the new log, so the next commit must append there."""
    state_dir = tmp_path / "fleet"
    agg = seeded_aggregator(state_dir, runs=2)
    with monkeypatch.context() as m:
        _failing_dir_fsync(m)
        with pytest.raises(OSError):
            agg.compact()
    assert json.loads(agg.state_path.read_bytes())["seq"] == 2
    agg.observe(synth_report({"L": 0.5}), digest="run-2", workload="micro")
    for reread in (FleetAggregator(state_dir, read_only=True), FleetAggregator(state_dir)):
        assert reread.has("run-2")
        assert _views(reread) == _views(agg)
    assert _logs(state_dir) == ["fleet.2.log"]  # the writer's open removed fleet.0.log


def test_concurrent_committers_and_readers_lose_nothing(tmp_path, monkeypatch):
    """More committing threads than cores, half of their digests shared,
    with queries running beside them and a compaction every few lines:
    every digest commits exactly once, seqs are dense, and the folded
    log equals the state in memory."""
    import sys
    import threading

    monkeypatch.setattr(aggregate, "_MAX_OBSERVATIONS", 16)
    monkeypatch.setattr(aggregate, "_COMPACT_MIN_LINES", 8)
    agg = FleetAggregator(tmp_path / "fleet")
    committed: list[Observation] = []
    done = threading.Event()
    errors: list[BaseException] = []

    def committer(t: int) -> None:
        try:
            for i in range(40):
                digest = f"shared-{i}" if i % 2 else f"own-{t}-{i}"
                obs = Observation.from_report(
                    synth_report({"L": 0.5}), digest=digest, workload=f"w{i % 3}"
                )
                committed.extend(o for o in agg.commit([obs]) if o)
        except BaseException as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    def reader() -> None:
        while not done.wait(0.001):
            agg.summary()
            agg.regressions()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=committer, args=(t,)) for t in range(6)]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads + readers:
            t.start()
        for t in threads:
            t.join(timeout=60)
        done.set()
        for t in readers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads + readers)
    assert errors == []
    # 6 threads x 20 own digests, plus 20 shared ones committed once each.
    assert sorted(o.seq for o in committed) == list(range(1, 6 * 20 + 20 + 1))
    assert agg.version == len(committed)
    assert _views(FleetAggregator(tmp_path / "fleet", read_only=True)) == _views(agg)
