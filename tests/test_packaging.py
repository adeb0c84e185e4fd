import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def imported_top_level(path: Path) -> set[str]:
    """Top-level names of the absolute imports anywhere in a module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_the_declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower()
                    for dep in tomllib.load(fh)["project"]["dependencies"]}
    imported = set()
    for path in sorted((ROOT / "src" / "gswalk").glob("*.py")):
        imported |= imported_top_level(path)
    third_party = imported - set(sys.stdlib_module_names) - {"__future__", "gswalk"}
    assert third_party == declared == {"numpy"}


def calls_outside(names: set[str], allowed: set[str]) -> list[str]:
    """``module:line`` of each call to one of ``names`` (as a bare name or an
    attribute) in ``src/gswalk`` that no function named in ``allowed`` encloses."""
    found = []

    def visit(node, path, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            if name in names and func not in allowed:
                found.append(f"{path.name}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, func)

    for path in sorted((ROOT / "src" / "gswalk").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, None)
    return found


def test_seeded_streams_come_from_stream_rng():
    assert calls_outside({"SeedSequence", "default_rng"}, {"stream_rng"}) == []


def test_files_go_through_the_text_helpers():
    assert calls_outside({"open"}, {"read_text", "write_text"}) == []
