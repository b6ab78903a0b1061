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


# The benchmark's tracer (perfbench/tracer.py, REQUIRED_ALIASES) requires
# apps to bind these two phases, so that it can check they are wrapped;
# apps itself does not call them.
TRACER_ALIASES = {("apps.py", "_absorb_phase"), ("apps.py", "_emission_phase")}


def test_no_private_streaming_imports():
    # streamed_apply is the one executor: no other module runs the phases
    # or the middle-phase helpers of streaming.py itself
    found = []
    for path in SOURCES:
        if path.name == "streaming.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "equichan.streaming",
                "streaming",
            ):
                found += [
                    (path.name, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert set(found) <= TRACER_ALIASES, sorted(set(found) - TRACER_ALIASES)
