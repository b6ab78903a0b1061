"""Checks on the package source itself."""

import ast
import importlib
import os
import subprocess
import sys
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


def test_no_object_new():
    # an object built through object.__new__ skips the checks of its
    # constructor; every library object is built by calling its class
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr == "__new__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
        ]
    assert not found, f"object.__new__ in the library: {found}"


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


# ResourceLedger fields that are read off the schedule's steps
STEP_COUNTS = {"num_simple_cg", "num_simple_dual_cg", "num_inverse_cg", "peak_live_dim"}


def test_step_counts_written_only_by_count():
    # each step is recorded once, as a ScheduleStep; the ledger's step
    # counts are set from the schedule in ResourceLedger.count and nowhere
    # else in streaming.py
    path = Path(equichan.__file__).parent / "streaming.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    inside = {
        id(sub)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "count"
        for sub in ast.walk(node)
    }
    found = [
        f"streaming.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        and id(node) not in inside
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for sub in ast.walk(target)
        if isinstance(sub, ast.Attribute) and sub.attr in STEP_COUNTS
    ]
    assert not found, f"step counts written outside ResourceLedger.count: {found}"


def _tracer_table(name):
    """A module-level literal of perfbench/tracer.py, read without importing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"tracer.py defines no {name}")


def test_tracer_names_exist():
    # the benchmark's tracer raises on a name the library no longer has;
    # a refactor that drops one should fail here, not in the traced run
    missing = []
    for table in ("TARGETS", "REQUIRED_ALIASES"):
        for module, names in _tracer_table(table).items():
            lib = importlib.import_module(f"equichan.{module}")
            missing += [f"{module}.{n}" for n in names if not callable(getattr(lib, n, None))]
    assert not missing, missing


def test_no_scipy_imports():
    # numpy is the library's one runtime dependency; scipy is a test extra
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}"
                for name in modules
                if name == "scipy" or name.startswith("scipy.")
            ]
    assert not found, f"scipy imports in the library: {found}"


def test_public_names_resolve():
    # a deletion that leaves its name in __all__ breaks `from equichan import *`
    missing = [name for name in equichan.__all__ if not hasattr(equichan, name)]
    assert not missing, missing


def _called_name(node):
    """'kron' for np.kron(...) or kron(...), 'eye' for np.eye(...), else None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def test_builders_form_no_kron_with_identity():
    # the transform builders apply each operator to the tensor leg it acts
    # on; a Kronecker product with an identity is the dense detour
    found = []
    for path in SOURCES:
        if path.name not in ("realize.py", "transforms.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if _called_name(node) == "kron" and any(
                _called_name(arg) in ("eye", "identity") for arg in node.args
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"kron with an identity in the builders: {found}"


OP_PATHS = """
import sys
import numpy as np
import equichan
from equichan import channels, streaming
from equichan.apps import clone, depolarized_copies, purity_amplify, symmetrize

psi = np.array([1.0, 1.0j]) / np.sqrt(2)
symmetrize(np.eye(4) / 4, 2, 2)
clone(psi, 1, 2, 2)
purity_amplify(depolarized_copies(psi, 0.3, 3, 2), 3, 2, reference=psi)
spec = channels.cloning_spec(1, 2, 2)
choi = channels.extremal_choi(spec)
channels.factored_channel(spec)
streaming.streamed_apply(spec, np.eye(2) / 2)
streaming.streamed_apply(spec, np.eye(2) / 2, mode="sample", trajectories=5)
channels.check_symmetries(choi, trials=2)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_op_paths_load_no_scipy_linalg():
    # scipy.linalg brings its own OpenBLAS thread pool next to numpy's, and
    # interleaving calls to the two slows numpy's BLAS work; no op path
    # loads any scipy module at all
    src = Path(equichan.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", OP_PATHS], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", proc.stdout
