"""How the package's modules import each other, read statically with ``ast``.

Three rules keep the import graph plain: no module imports another that
(directly or not) imports it back, every package import sits at module
level, so no function defers one to get round a cycle, and no module
imports another's underscore-prefixed (private) names.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "iadbench"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


def _package_modules(node: ast.AST) -> set[str]:
    """The package modules an import statement names; empty for any other node."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        if node.level:  # relative: inside the package
            base = "iadbench" + (f".{node.module}" if node.module else "")
        else:
            base = node.module or ""
        if base == "iadbench":  # from the package, import its modules
            names = [f"iadbench.{alias.name}" for alias in node.names]
        else:
            names = [base]
    else:
        return set()
    found = {name.split(".")[1] for name in names if name.startswith("iadbench.")}
    return found & set(MODULES)


def _graph() -> dict[str, set[str]]:
    return {
        name: set().union(*(_package_modules(node) for node in ast.walk(tree)))
        for name, tree in MODULES.items()
    }


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a path of module names, or None."""
    done: set[str] = set()

    def visit(name: str, path: list[str]) -> list[str] | None:
        if name in path:
            return path[path.index(name):] + [name]
        if name in done:
            return None
        for target in sorted(graph[name]):
            found = visit(target, path + [name])
            if found:
                return found
        done.add(name)
        return None

    for name in sorted(graph):
        found = visit(name, [])
        if found:
            return found
    return None


def test_every_import_form_is_read():
    for source, want in [
        ("from . import report, runner", {"report", "runner"}),
        ("from .report import write_reports", {"report"}),
        ("from iadbench import report, __version__", {"report"}),
        ("from iadbench.report import write_reports", {"report"}),
        ("import iadbench.report", {"report"}),
        ("import json", set()),
        ("from json import dumps", set()),
    ]:
        assert _package_modules(ast.parse(source).body[0]) == want, source
    assert "runner" in _graph()["cli"]


def test_cycle_finder_finds_a_cycle():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b"}, "b": set()}) is None


def test_package_imports_form_no_cycle():
    assert _cycle(_graph()) is None


def test_no_function_imports_a_package_module():
    inside = []
    for name, tree in MODULES.items():
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(function):
                    if _package_modules(node):
                        inside.append(f"{name}.{function.name}:{node.lineno}")
    assert inside == []


def _private_names(node: ast.AST) -> list[str]:
    """The underscore-prefixed names an import statement takes from a package module."""
    if not isinstance(node, ast.ImportFrom) or not _package_modules(node):
        return []
    return [alias.name for alias in node.names if alias.name.startswith("_")]


def test_private_name_finder_reads_every_form():
    for source, want in [
        ("from .errors import _expect_keys, read_json", ["_expect_keys"]),
        ("from iadbench.detector import _block_rows as rows", ["_block_rows"]),
        ("from . import report", []),
        ("from .runner import parse_config", []),
        ("from json import _default_decoder", []),
        ("import iadbench._private", []),
    ]:
        assert _private_names(ast.parse(source).body[0]) == want, source


def test_no_module_imports_a_private_name():
    private = []
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            private += [f"{name}:{node.lineno}:{found}" for found in _private_names(node)]
    assert private == []
