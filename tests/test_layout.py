"""What src/srdepth holds: what the CLI runs and what the benchmark traces.

The benchmark's tracer (``perfbench/tracing.py``) wraps srdepth functions by
name, so a traced name dropped from the package would only show up when the
benchmark runs.  Code that only tests use belongs in ``tests/helpers.py``.
The runtime imports nothing outside the standard library.
"""

from __future__ import annotations

import ast
import importlib
import sys
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


def names_used(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Plain names and attribute names read anywhere inside node, outside skip."""
    out = set()
    stack = [node]
    while stack:
        sub = stack.pop()
        if sub is skip:
            continue
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        stack.extend(ast.iter_child_nodes(sub))
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
        """Each top-level definition and non-dunder method is named outside its own body."""
        traced = {(module, name) for module, names in traced_targets().items() for name in names}
        traced.add(("cli", "main"))
        definitions = []  # (qualified name, node, top-level statement holding it)
        statements = []  # every top-level statement but imports
        for path in sorted(PACKAGE.glob("*.py")):
            if path.stem == "__init__":
                continue
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                statements.append(node)
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and (path.stem, node.name) not in traced:
                    definitions.append((f"{path.stem}.{node.name}", node, node))
                if isinstance(node, ast.ClassDef):
                    for method in node.body:
                        if isinstance(method, ast.FunctionDef) and not method.name.startswith("__"):
                            definitions.append((f"{path.stem}.{node.name}.{method.name}", method, node))
        used = {id(node): names_used(node) for node in statements}
        unreached = []
        for qualified, node, holder in definitions:
            name = node.name
            if any(name in used[id(other)] for other in statements if other is not holder):
                continue
            if holder is not node and name in names_used(holder, skip=node):
                continue
            unreached.append(qualified)
        assert unreached == []

    def test_runtime_imports_only_the_standard_library(self):
        """Every import in the package, nested ones too, is relative, srdepth's or stdlib."""
        outside = []
        for path in sorted(PACKAGE.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                outside += [f"{path.name}: {m}" for m in modules
                            if m.partition(".")[0] not in sys.stdlib_module_names | {"srdepth"}]
        assert outside == []
