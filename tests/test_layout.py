"""What src/srdepth holds: what the CLI runs and what the benchmark traces.

The benchmark's tracer (``perfbench/tracing.py``) wraps srdepth functions by
name, so a traced name dropped from the package would only show up when the
benchmark runs.  Code that only tests use belongs in ``tests/helpers.py``.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "srdepth"


def traced_targets() -> dict[str, tuple[str, ...]]:
    """``TARGETS`` of the tracer, read as a literal; perfbench is not imported."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def names_used(node: ast.AST) -> set[str]:
    """Plain names and attribute names read anywhere inside node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


class TestLayout:
    def test_traced_names_resolve(self):
        for module, names in traced_targets().items():
            mod = importlib.import_module(f"srdepth.{module}")
            for name in names:
                assert callable(getattr(mod, name, None)), f"srdepth.{module}.{name}"
        # the tracer's own test patches this binding
        assert callable(importlib.import_module("srdepth.betti").boundary_rank)

    def test_every_definition_is_reached(self):
        traced = {(module, name) for module, names in traced_targets().items() for name in names}
        traced.add(("cli", "main"))
        definitions = []  # (module, name, node)
        statements = []  # (module, node): every top-level statement but imports
        for path in sorted(PACKAGE.glob("*.py")):
            if path.stem == "__init__":
                continue
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                statements.append((path.stem, node))
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    definitions.append((path.stem, node.name, node))
        unreached = []
        for module, name, node in definitions:
            if (module, name) in traced:
                continue
            if not any(name in names_used(other) for _, other in statements if other is not node):
                unreached.append(f"{module}.{name}")
        assert unreached == []
