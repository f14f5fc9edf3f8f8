"""CLI tests for stats/export/replay/experiment-output commands."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def micro_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("tool-traces") / "micro.clt"
    assert main(["run", "micro", "-t", "4", "-o", str(path)]) == 0
    return path


def test_stats(micro_path, capsys):
    assert main(["stats", str(micro_path)]) == 0
    out = capsys.readouterr().out
    assert "32 events" in out  # 4 threads x (start + 2x3 lock events + exit)
    assert "Busiest synchronization objects" in out


def test_export(micro_path, tmp_path, capsys):
    out_path = tmp_path / "chrome.json"
    assert main(["export", str(micro_path), str(out_path)]) == 0
    events = json.loads(out_path.read_text())
    assert any(e.get("cat") == "critical-path" for e in events)
    assert "perfetto" in capsys.readouterr().out


def test_replay_plain(micro_path, capsys):
    assert main(["replay", str(micro_path)]) == 0
    out = capsys.readouterr().out
    assert "replay 12" in out
    assert "speedup vs original: 1.000" in out


def test_replay_with_shrink(micro_path, tmp_path, capsys):
    out_trace = tmp_path / "replayed.clt"
    assert main([
        "replay", str(micro_path), "--shrink", "L2", "--factor", "0.6",
        "-o", str(out_trace),
    ]) == 0
    out = capsys.readouterr().out
    assert "replay 9.5" in out
    assert out_trace.exists()
    # The replayed trace is itself analyzable.
    capsys.readouterr()
    assert main(["analyze", str(out_trace)]) == 0


def test_replay_under_cores(micro_path, capsys):
    assert main(["replay", str(micro_path), "--cores", "1"]) == 0
    assert "replay 18" in capsys.readouterr().out


def test_core_limited_trace_replays_without_a_core_limit(tmp_path, capsys):
    path = tmp_path / "micro-1core.clt"
    assert main(["run", "micro", "-t", "4", "--cores", "1", "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["replay", str(path)]) == 0
    assert "original completion 18 -> replay 18" in capsys.readouterr().out
    for cmd in (["replay", str(path)], ["whatif", str(path), "--protocol", "priority"]):
        assert main([*cmd, "--cores", "2"]) == 1
        assert "recorded on 1 core(s)" in capsys.readouterr().err


def test_whatif_lists_protocols_only(capsys):
    assert main(["whatif", "--list-protocols"]) == 0
    out = capsys.readouterr().out
    assert "reader-pref" in out and "sched" not in out
    with pytest.raises(SystemExit):
        main(["whatif", "t.clt", "--protocol", "fifo", "--scheduler", "rr"])


def test_experiment_output_file(tmp_path, capsys):
    out_file = tmp_path / "results.txt"
    assert main(["experiment", "table2", "-o", str(out_file)]) == 0
    text = out_file.read_text()
    assert "TYPE 1" in text
    # Appends on repeat invocations.
    assert main(["experiment", "table1", "-o", str(out_file)]) == 0
    text2 = out_file.read_text()
    assert len(text2) > len(text)
    assert "POWER7" in text2


def test_experiment_overhead_runs(capsys):
    assert main(["experiment", "overhead"]) == 0
    assert "Instrumentation overhead" in capsys.readouterr().out
