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


# Calls that write into the container they are called on.
MUTATING_METHODS = {"setdefault", "update", "append", "add", "extend", "insert"}


def _module_names(tree):
    """Names bound at the top level of a module: assignments and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def _local_names(func):
    """Parameters and names a function binds, less those it declares global."""
    a = func.args
    params = {x.arg for x in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if x}
    stored = {
        n.id for n in ast.walk(func) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
    }
    declared = {name for n in ast.walk(func) if isinstance(n, ast.Global) for name in n.names}
    return (params | stored) - declared


def test_memos_are_functools_cache():
    # functools.cache is the one cache mechanism: no function writes into a
    # module-level container, by item assignment or deletion or by a
    # mutating method call
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        module = _module_names(tree)
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            shared = module - _local_names(func)
            for node in ast.walk(func):
                if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                    target = node.value
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    target = node.func.value if node.func.attr in MUTATING_METHODS else None
                else:
                    continue
                if isinstance(target, ast.Name) and target.id in shared:
                    found.append(f"{path.name}:{node.lineno} {func.name} writes {target.id}")
    assert not found, f"module-level containers written by functions: {found}"


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


def test_one_gt_path_isometry_builder():
    # transforms._path_isometry builds every GT-path isometry: the rows of
    # the iterated CG transforms and the middle phase's embeddings alike,
    # so streaming.py neither defines a chain of its own nor reads the rows
    # of one label; its one read of ``.blocks`` is the absorption's loop
    # over ``.blocks.items()``
    import equichan.streaming as streaming
    import equichan.transforms as transforms

    assert streaming._path_isometry is transforms._path_isometry
    assert streaming._emit_steps is transforms._emit_steps
    path = Path(equichan.__file__).parent / "streaming.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert not defined & {"_path_isometry", "_emit_steps"}
    parents = {id(child): node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def loops_over_items(node):
        # node is the receiver of .items(), and that attribute is called
        up = parents.get(id(node))
        return (
            isinstance(up, ast.Attribute)
            and up.attr == "items"
            and isinstance(parents.get(id(up)), ast.Call)
            and parents[id(up)].func is up
        )

    blocks = [n for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "blocks"]
    assert blocks, "streaming.py no longer loops over CG blocks"
    found = [f"streaming.py:{n.lineno}" for n in blocks if not loops_over_items(n)]
    assert not found, f"one label's CG rows read in streaming.py: {found}"


# The row-offset interface that the sectors' row views replace
ROW_OFFSET_NAMES = {"offset", "sector_rows", "path_rows"}


def test_no_sector_row_offsets():
    # a Schur sector hands out its rows as the view PathSector.rows and
    # their slots as PathTransform.slots[label]: no library code defines,
    # reads or writes an attribute that locates rows by offset
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, ast.ClassDef):
                fields = [f.target for f in node.body if isinstance(f, ast.AnnAssign)]
                names = [f.id for f in fields if isinstance(f, ast.Name)]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n in ROW_OFFSET_NAMES]
    assert not found, f"row offsets in the library: {found}"


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


# Imports allowed inside a library function, as (file, function) pairs.
# There are none: every cycle between modules is broken by moving code, so
# calling a library function never imports a module.
DEFERRED_IMPORTS = set()


def test_library_imports_at_module_top():
    # a library function imports nothing when called: every import sits at
    # the top of its module
    found = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found |= {
            (path.name, func.name)
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
    assert found == DEFERRED_IMPORTS, sorted(found ^ DEFERRED_IMPORTS)


def _package_imports(path):
    """The equichan modules that the file at ``path`` imports, dotted."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = f"equichan.{node.module or ''}".rstrip(".") if node.level else node.module
            if module == "equichan":
                found |= {f"equichan.{alias.name}" for alias in node.names}
            else:
                found.add(module)
    return {name for name in found if name.split(".")[0] == "equichan"}


def test_realize_imports_only_staircases():
    # the layering is staircases -> gtpaths, realize -> transforms: the
    # GT-basis algebra builds on the labels alone, and the isometries that
    # embed it in tensor sites live in transforms
    path = Path(equichan.__file__).parent / "realize.py"
    assert _package_imports(path) <= {"equichan.staircases"}, _package_imports(path)


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


def test_builders_call_no_linalg_but_norm():
    # the transform builders are closed form: of numpy.linalg they use only
    # norm, and no eigensolver, SVD or solver runs while they build
    found = []
    for path in SOURCES:
        if path.name not in ("realize.py", "transforms.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.linalg"):
                found.append(f"{path.name}:{node.lineno}")
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"
                and node.attr != "norm"
            ):
                found.append(f"{path.name}:{node.lineno} linalg.{node.attr}")
    assert not found, f"numpy.linalg beyond norm in the builders: {found}"


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
