"""CLI end-to-end tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "radiosity" in out
    assert "fig9" in out


def test_run_with_report(capsys):
    assert main(["run", "micro", "--threads", "4"]) == 0
    out = capsys.readouterr().out
    assert "completion time" in out
    assert "TYPE 1" in out


def test_run_write_analyze_roundtrip(tmp_path, capsys):
    trace_path = tmp_path / "micro.clt"
    assert main(["run", "micro", "-t", "4", "-o", str(trace_path)]) == 0
    assert trace_path.exists()
    capsys.readouterr()

    assert main(["analyze", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "83.33%" in out


def test_analyze_json(tmp_path, capsys):
    trace_path = tmp_path / "micro.clt"
    main(["run", "micro", "-t", "4", "-o", str(trace_path)])
    capsys.readouterr()
    assert main(["analyze", str(trace_path), "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["locks"]["L2"]["cp_time_frac"] == pytest.approx(10 / 12)


def test_analyze_timeline(tmp_path, capsys):
    trace_path = tmp_path / "micro.clt"
    main(["run", "micro", "-t", "2", "-o", str(trace_path)])
    capsys.readouterr()
    assert main(["analyze", str(trace_path), "--timeline"]) == 0
    assert "locks:" in capsys.readouterr().out


def test_whatif(tmp_path, capsys):
    trace_path = tmp_path / "micro.clt"
    main(["run", "micro", "-t", "4", "-o", str(trace_path)])
    capsys.readouterr()
    assert main(["whatif", str(trace_path), "L2", "--factor", "0.6"]) == 0
    out = capsys.readouterr().out
    assert "predicted speedup 1.263" in out


def test_run_with_params(capsys):
    assert main(["run", "micro", "-t", "2", "-p", "cs1=1.0", "-p", "cs2=1.0"]) == 0
    out = capsys.readouterr().out
    assert "completion time 3.0000" in out  # CS1 chain [0,2]; CS2 ends at 3


def test_bad_param_format(capsys):
    assert main(["run", "micro", "-p", "oops"]) == 1
    assert "K=V" in capsys.readouterr().err


def test_unknown_workload(capsys):
    assert main(["run", "nope"]) == 1
    err = capsys.readouterr().err
    assert "unknown workload 'nope'" in err and "micro" in err


def test_experiment_command(capsys):
    assert main(["experiment", "table2"]) == 0
    assert "TYPE 1" in capsys.readouterr().out


def test_run_with_cores(capsys):
    assert main(["run", "micro", "-t", "4", "--cores", "1"]) == 0
    out = capsys.readouterr().out
    assert "completion time" in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("critical-lock-analysis ")
    assert out.split()[-1][0].isdigit()  # ends with a version number


def test_serve_subcommand_registered(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["serve", "--help"])
    assert ei.value.code == 0
    out = capsys.readouterr().out
    assert "--workers" in out
    assert "--data-dir" in out
    assert "--shared-dir" in out


@pytest.mark.parametrize("flag", ["--backend", "--object-root"])
def test_serve_refuses_retired_storage_options(flag, capsys):
    with pytest.raises(SystemExit) as ei:
        main(["serve", flag, "object"])
    assert ei.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_serve_shared_dir_reaches_service_api(monkeypatch, tmp_path):
    import repro.service.server as server

    class Built(Exception):
        pass

    seen = {}

    def fake_api(**kwargs):
        seen.update(kwargs)
        raise Built

    monkeypatch.setattr(server, "ServiceAPI", fake_api)
    with pytest.raises(Built):
        main(["serve", "--data-dir", str(tmp_path / "node"),
              "--shared-dir", str(tmp_path / "shared")])
    assert seen["shared_dir"] == str(tmp_path / "shared")
    assert seen["data_dir"] == str(tmp_path / "node")


#: Subsystems that ``analyze`` never runs; a cold start must not load them.
_NOT_ON_ANALYZE_PATH = (
    "repro.sim",
    "repro.replay",
    "repro.service",
    "repro.fleet",
    "repro.experiments",
    "repro.workloads",
    "repro.instrument",
    "repro.check",
)


def test_analyze_imports_only_its_chain(tmp_path, capsys):
    trace_path = tmp_path / "micro.clt"
    assert main(["run", "micro", "-t", "4", "-o", str(trace_path)]) == 0
    capsys.readouterr()
    dump = tmp_path / "modules.json"
    # Dump sys.modules as the process exits, after the report printed.
    code = (
        "import atexit, json, runpy, sys\n"
        f"atexit.register(lambda: open({str(dump)!r}, 'w').write("
        "json.dumps(sorted(sys.modules))))\n"
        f"sys.argv = ['repro', 'analyze', {str(trace_path)!r}]\n"
        "runpy.run_module('repro', run_name='__main__')\n"
    )
    src = str(Path(repro.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "83.33%" in proc.stdout
    loaded = json.loads(dump.read_text())
    assert "repro.core.analyzer" in loaded  # the dump saw the analysis run
    leaked = sorted(
        m for m in loaded
        if any(m == p or m.startswith(p + ".") for p in _NOT_ON_ANALYZE_PATH)
    )
    assert leaked == []


def test_version_is_computed_only_when_asked(monkeypatch, capsys):
    import repro.cli

    calls = []
    real = repro.cli._version_string

    def counted():
        calls.append(1)
        return real()

    monkeypatch.setattr(repro.cli, "_version_string", counted)
    assert main(["list"]) == 0
    assert calls == []
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["--version"])
    assert calls == [1]
    assert capsys.readouterr().out.startswith("critical-lock-analysis ")


def test_help_points_at_list_and_unknown_experiments_list_the_valid_ones(capsys):
    for command in ("run", "experiment"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "(see the list subcommand)" in capsys.readouterr().out
    assert main(["experiment", "nope"]) == 1
    err = capsys.readouterr().err
    assert "unknown experiment 'nope'" in err and "fig9" in err
