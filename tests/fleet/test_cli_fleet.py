"""The ``fleet`` CLI subcommand over a locally seeded service store."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.conftest import make_micro_program

from repro.cli import main
from repro.service import ServiceAPI
from repro.service.store import TraceStore
from repro.trace import write_trace

RULES = (
    "[[rule]]\n"
    "name = 'hot'\n"
    "expr = 'cp_fraction > 0.5'\n"
    "severity = 'page'\n"
)


@pytest.fixture()
def store_dir(tmp_path):
    """A service data dir with 3 baseline micro runs + 1 shifted run."""
    api = ServiceAPI(tmp_path / "svc", workers=0)
    try:
        for i in range(3):
            trace = make_micro_program(cs2=2.5 + 0.001 * i).run().trace
            path = write_trace(trace, tmp_path / f"t{i}.clt")
            api.handle("POST", "/traces", path.read_bytes(), {"name": "micro"})
        trace = make_micro_program(cs1=6.0).run().trace
        path = write_trace(trace, tmp_path / "shift.clt")
        api.handle("POST", "/traces", path.read_bytes(), {"name": "micro"})
        assert api.flush_fleet(timeout=60)
    finally:
        api.close()
    return str(tmp_path / "svc")


def test_fleet_summary(store_dir, capsys):
    assert main(["fleet", "summary", "--store", store_dir]) == 0
    out = capsys.readouterr().out
    assert "4 trace(s)" in out and "L1" in out and "L2" in out


def test_fleet_summary_json(store_dir, capsys):
    assert main(["fleet", "summary", "--store", store_dir, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["traces"] == 4
    assert {c["site"] for c in doc["top"]} == {"L1", "L2"}


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_fleet_store_is_read_not_reaped(store_dir, capsys):
    # What a live service leaves mid-upload: a staging file, and a body
    # whose sidecar has not landed yet.  Opening the store would delete
    # both; the CLI must only read.
    traces = Path(store_dir) / "traces"
    staged = traces / ".upload-inflight.tmp"
    staged.write_bytes(b"partial upload")
    body = next(traces.glob("*.clt"))
    pending = traces / ("f" * 64 + ".clt")
    pending.write_bytes(body.read_bytes())
    assert main(["fleet", "summary", "--store", store_dir, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["traces"] == 4
    assert staged.read_bytes() == b"partial upload"
    assert pending.exists()


def test_fleet_store_leaves_fleet_state_untouched(store_dir, capsys):
    # A trace the live service has not observed yet: the CLI ingests it
    # in memory, but the checkpoint and log belong to the service, whose
    # next commit would race anything the CLI wrote there.
    state = Path(store_dir) / "fleet"
    before = _files(state)
    assert any(name.endswith(".log") for name in before)
    TraceStore(Path(store_dir) / "traces").put_trace(
        make_micro_program(cs2=2.6).run().trace, name="micro"
    )
    assert main(["fleet", "summary", "--store", store_dir, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["traces"] == 5
    assert _files(state) == before


@pytest.fixture()
def shared_node(tmp_path):
    """A ``--shared-dir`` node: traces in the shared dir, fleet state in
    the node's data dir."""
    api = ServiceAPI(tmp_path / "node", workers=0, shared_dir=tmp_path / "shared")
    try:
        for i in range(2):
            trace = make_micro_program(cs2=2.5 + 0.001 * i).run().trace
            path = write_trace(trace, tmp_path / f"t{i}.clt")
            api.handle("POST", "/traces", path.read_bytes(), {"name": "micro"})
        assert api.flush_fleet(timeout=60)
    finally:
        api.close()
    assert not (tmp_path / "node" / "traces").exists()
    return tmp_path / "node", tmp_path / "shared"


def test_fleet_store_on_a_shared_dir_creates_nothing(shared_node, capsys):
    _, shared = shared_node
    before = sorted(p.relative_to(shared) for p in shared.rglob("*"))
    assert main(["fleet", "summary", "--store", str(shared), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["traces"] == 2
    assert sorted(p.relative_to(shared) for p in shared.rglob("*")) == before
    assert not (shared / "fleet").exists()


def test_fleet_store_reads_a_shared_dir_nodes_data_dir(shared_node, capsys):
    node, _ = shared_node
    before = _files(node / "fleet")
    assert main(["fleet", "summary", "--store", str(node), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["traces"] == 2
    assert _files(node / "fleet") == before


def test_fleet_summary_empty_store(tmp_path, capsys):
    (tmp_path / "traces").mkdir()
    assert main(["fleet", "summary", "--store", str(tmp_path)]) == 0
    assert "no observations" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["summary", "regressions", "alerts"])
def test_fleet_missing_store_fails_and_creates_nothing(tmp_path, capsys, command):
    missing = tmp_path / "no" / "such" / "dir"
    argv = ["fleet", command, "--store", str(missing)]
    if command == "alerts":
        rules = Path(__file__).parents[2] / "docs" / "examples" / "fleet-alerts.toml"
        argv += ["--rules", str(rules)]
    assert main(argv) == 1
    assert "not a service data dir" in capsys.readouterr().err
    assert not (tmp_path / "no").exists()


def test_fleet_regressions_flags_shift(store_dir, capsys):
    assert main(["fleet", "regressions", "--store", store_dir]) == 1
    out = capsys.readouterr().out
    assert "[cp_shift]" in out and "[top1_change]" in out


def test_fleet_regressions_respects_thresholds(store_dir, capsys):
    # A huge noise floor silences cp_shift flags; the genuine ranking
    # flip (top1_change) is threshold-free and still reported.
    rc = main(
        ["fleet", "regressions", "--store", store_dir,
         "--noise-floor", "0.99", "--json"]
    )
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert {f["kind"] for f in doc["flags"]} == {"top1_change"}


def test_fleet_alerts(store_dir, tmp_path, capsys):
    rules = tmp_path / "rules.toml"
    rules.write_text(RULES)
    rc = main(["fleet", "alerts", "--store", store_dir, "--rules", str(rules)])
    assert rc == 1  # the shifted run pushes L1 past the threshold
    out = capsys.readouterr().out
    assert "hot" in out and "firing" in out


def test_fleet_alerts_requires_rules(store_dir, capsys):
    assert main(["fleet", "alerts", "--store", store_dir]) == 1
    assert "needs --rules" in capsys.readouterr().err


def test_fleet_lint_rules_ok(tmp_path, capsys):
    spec = tmp_path / "rules.toml"
    spec.write_text(RULES)
    assert main(["fleet", "lint-rules", str(spec)]) == 0
    assert "OK" in capsys.readouterr().out


def test_fleet_lint_rules_rejects(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text("[[rule]]\nname = 'x'\nexpr = 'cp_fraction > 2'\n")
    assert main(["fleet", "lint-rules", str(bad)]) == 1
    assert "never exceeds" in capsys.readouterr().err


def test_fleet_state_is_cached_between_invocations(store_dir, capsys):
    # Both calls start from the service's persisted fleet state.
    assert main(["fleet", "summary", "--store", store_dir]) == 0
    assert main(["fleet", "summary", "--store", store_dir]) == 0
    out = capsys.readouterr().out
    assert out.count("4 trace(s)") == 2
