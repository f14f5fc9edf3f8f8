"""Layering guards, checked on the source's syntax trees.

* The production layers never import the test oracle: no module under
  ``repro.core``, ``repro.trace``, ``repro.sampling``, ``repro.stream``,
  ``repro.viz``, ``repro.replay`` or ``repro.export`` imports from
  ``repro.check`` (not even lazily, inside a function).
* Outside ``repro.check``, no code iterates over a ``Trace``: that
  builds one ``Event`` per record, and production reads the record
  columns instead.  The check flags a ``for`` loop or comprehension over
  a name or attribute ending in ``trace``, and ``list``/``iter``/
  ``tuple`` of one.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent

#: Packages (and modules) that must not import ``repro.check``.
PRODUCTION_LAYERS = ("core", "trace", "sampling", "stream", "viz", "replay.py", "export.py")


def check_imports(tree: ast.AST) -> list[int]:
    """Lines of the imports from ``repro.check`` in ``tree``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any(n == "repro.check" or n.startswith("repro.check.") for n in names):
            lines.append(node.lineno)
    return lines


def _names_a_trace(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id.endswith("trace")
    return isinstance(node, ast.Attribute) and node.attr.endswith("trace")


def trace_iterations(tree: ast.AST) -> list[int]:
    """Lines where ``tree`` iterates over something named like a trace."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            it = node.iter
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "iter", "tuple")
            and node.args
        ):
            it = node.args[0]
        else:
            continue
        if _names_a_trace(it):
            lines.append(it.lineno)
    return lines


def _modules(*parts: str) -> list[Path]:
    out = []
    for part in parts:
        path = SRC / part
        out += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return out


def _offenders(paths: list[Path], rule) -> list[str]:
    return [
        f"{path.relative_to(SRC.parent)}:{line}"
        for path in paths
        for line in rule(ast.parse(path.read_text(encoding="utf-8")))
    ]


def test_production_layers_never_import_the_oracle():
    assert _offenders(_modules(*PRODUCTION_LAYERS), check_imports) == []


def test_no_production_code_iterates_a_trace():
    paths = [p for p in _modules(".") if "check" not in p.relative_to(SRC).parts[:1]]
    assert _offenders(paths, trace_iterations) == []


@pytest.mark.parametrize(
    "source",
    [
        "from repro.check import run_seeds",
        "from repro.check.reference import Wait",
        "from repro import check",
        "import repro.check.oracle",
        "def f():\n    from repro.check import reference",
    ],
)
def test_import_rule_flags_every_form(source):
    assert check_imports(ast.parse(source)) == [source.count("\n") + 1]


@pytest.mark.parametrize(
    "source",
    [
        "for ev in trace: pass",
        "for ev in self.trace: pass",
        "[ev.tid for ev in sub_trace]",
        "{ev.obj for ev in result.trace}",
        "events = list(trace)",
        "it = iter(self.trace)",
        "rows = tuple(trace)",
    ],
)
def test_iteration_rule_flags_every_form(source):
    assert trace_iterations(ast.parse(source)) == [1]


@pytest.mark.parametrize(
    "source",
    [
        "for row in trace.records: pass",
        "n = len(trace)",
        "from repro.core import analyze",
        "for t in traces_dir.iterdir(): pass",
    ],
)
def test_rules_pass_clean_code(source):
    tree = ast.parse(source)
    assert check_imports(tree) == [] and trace_iterations(tree) == []
