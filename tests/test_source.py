"""Checks on the package source itself."""

import ast
from pathlib import Path

import equichan

SOURCES = sorted(Path(equichan.__file__).parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 10


def test_no_assert_statements():
    # python -O strips assert statements, so every check in the library
    # must raise an exception instead
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements in the library: {found}"
