"""The lazily exported package APIs resolve exactly as the eager ones did."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

LAZY_PACKAGES = ("repro", "repro.core", "repro.trace", "repro.sampling", "repro.service")


def _type_checking_names(module) -> set[str]:
    """Names imported under ``if TYPE_CHECKING:`` in the module's source."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            for stmt in node.body:
                names.update(alias.asname or alias.name for alias in stmt.names)
    return names


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_export_resolves_and_is_listed(name):
    pkg = importlib.import_module(name)
    listed = dir(pkg)
    for attr in pkg.__all__:
        assert getattr(pkg, attr) is not None, attr
        assert attr in listed, attr
    exec(f"from {name} import *", {})  # a star import walks __all__


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_type_checking_imports_match_all(name):
    # ``__all__`` is built from the lazy-export map, so this compares the two
    # lists a package keeps.
    pkg = importlib.import_module(name)
    assert _type_checking_names(pkg) == set(pkg.__all__) - {"__version__"}


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_unknown_names_raise_attribute_error(name):
    pkg = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pkg.no_such_name


def test_top_level_convenience_imports():
    from repro import Program, analyze, reconstruct
    from repro.core.analyzer import analyze as defining
    from repro.replay import reconstruct as defining_reconstruct
    from repro.sim import Program as defining_program

    assert analyze is defining
    assert reconstruct is defining_reconstruct
    assert Program is defining_program
    assert repro.__version__[0].isdigit()


def test_retired_scheduler_axis_is_gone():
    # One FIFO ready queue: no scheduler registry, no forecast matrix.
    import repro.core
    import repro.sim

    assert "forecast_matrix" not in repro.core.__all__
    assert not {"Scheduler", "get_scheduler", "available_schedulers"} & set(
        repro.sim.__all__
    )
    with pytest.raises(ImportError):
        importlib.import_module("repro.sim.schedulers")


def test_retired_priority_boosting_is_gone():
    # One priority rule: no inheritance or ceiling protocol, no boosts.
    import repro.sim.protocols as protocols
    from repro.errors import SimulationError
    from repro.sim.protocols import LockProtocol, available_protocols, get_protocol
    from repro.sim.thread import SimThread

    for name in ("pi", "ceiling"):
        with pytest.raises(SimulationError) as err:
            get_protocol(name)
        assert "available: " + ", ".join(available_protocols()) in str(err.value)
    assert "priority" in available_protocols()
    assert not {"PriorityInheritanceProtocol", "PriorityCeilingProtocol"} & set(
        protocols.__all__
    )
    assert not {"boost", "held", "blocked_on"} & set(SimThread.__slots__)
    assert not hasattr(SimThread, "effective_priority")
    for hook in ("on_block", "on_obtain", "on_release"):
        assert not hasattr(LockProtocol, hook)
    assert not hasattr(protocols.base, "holders")
    assert not hasattr(protocols.base, "waiter_threads")


def test_reference_object_model_is_gone_from_core():
    # One critical-path representation: production keeps columns, and the
    # per-event objects live with the reference in repro.check.
    import repro.core
    import repro.core.model as model
    from repro.core.columnar.timelines import ColumnarTimelines
    from repro.core.columnar.wakers import ColumnarWakers
    from repro.core.dag import EventGraph
    from repro.core.model import CriticalPath

    moved = {"CPPiece", "HoldInterval", "Junction", "ThreadTimeline", "Wait",
             "WakerTable", "waits_from_columns"}
    assert not moved & set(repro.core.__all__)
    assert not moved & set(model.__all__)
    assert not [name for name in moved if hasattr(model, name)]
    for attr in ("wait_fields", "from_objects", "pieces", "junctions", "waits",
                 "junction_count"):
        assert not hasattr(CriticalPath, attr), attr
    for attr in ("critical_events", "to_networkx"):
        assert not hasattr(EventGraph, attr), attr
    assert not hasattr(ColumnarWakers, "to_table")
    assert not hasattr(ColumnarTimelines, "wait_columns")


def test_object_storage_is_gone():
    # One durable store: a directory, private or shared (serve --shared-dir).
    import repro.service
    import repro.service.backend as backend
    from repro.service.cache import ResultCache
    from repro.service.store import TraceStore

    gone = {"ObjectClient", "MemoryObjectClient", "DirectoryObjectClient",
            "ObjectBackend", "StorageBackend", "make_backend", "BACKEND_KINDS"}
    assert not gone & set(repro.service.__all__)
    assert not [name for name in gone if hasattr(backend, name)]
    for attr in ("scoped", "put_path", "name"):
        assert not hasattr(backend.LocalDiskBackend, attr), attr
    for attr in ("_materialize", "_remote", "backend"):
        assert not hasattr(TraceStore, attr), attr
    for cls, params in ((TraceStore, ["root", "shared"]),
                        (ResultCache, ["capacity", "disk_dir", "disk_capacity", "shared"])):
        assert list(inspect.signature(cls).parameters) == params


def test_unused_helpers_are_gone():
    from repro.core.estimate import LockEstimate
    from repro.core.lockorder import LockOrderGraph
    from repro.core.replay_whatif import LockDelta

    assert not hasattr(LockOrderGraph, "successors")
    assert not hasattr(LockEstimate, "ci_width")
    assert not hasattr(LockDelta, "wait_delta")


def test_export_wins_over_same_named_submodule():
    # ``repro.core.forecast`` is both a submodule and an exported function;
    # importing the submodule first must not shadow the function.
    code = (
        "import repro.core.forecast\n"
        "from repro.core import forecast\n"
        "assert callable(forecast) and forecast.__name__ == 'forecast', forecast\n"
    )
    _run(code)


def test_importing_a_package_loads_none_of_its_exports():
    modules = json.loads(_run(
        "import json, sys\n"
        "import repro, repro.core, repro.trace, repro.sampling, repro.service\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    ))
    assert modules == sorted(["repro._lazy", *LAZY_PACKAGES])


def _run(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_dependent_chain_estimator_is_gone():
    # One live answer: the exact analysis of the records so far.
    import repro.check.oracle as oracle
    import repro.check.reference as reference
    import repro.core.online as online

    assert not hasattr(online, "OnlineLockStats")
    assert not hasattr(reference, "reference_online")
    assert not hasattr(oracle, "online_state_diff")
    assert not hasattr(online.OnlineAnalyzer, "reconcile")
    with pytest.raises(ImportError):
        import repro.core.columnar.online  # noqa: F401  (held consume_batch)
    for attr in ("observe_batch", "snapshot"):
        assert attr in vars(online.OnlineAnalyzer), attr
