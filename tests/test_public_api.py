"""The lazily exported package APIs resolve exactly as the eager ones did."""

from __future__ import annotations

import ast
import importlib
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
