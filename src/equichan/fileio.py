"""Serialization of matrices, specs, paths, ledgers and reports.

Text-based JSON with explicit [re, im] pairs; complex literals are avoided
so the files stay portable.  Floats are written with shortest-exact
repr (up to 17 significant digits), which round-trips bit-exactly;
staircases are flat signed-integer arrays of length d including zeros.
"""

from __future__ import annotations

import json
from numbers import Integral, Real
from pathlib import Path
from typing import Any

import numpy as np

from equichan.channels import ChoiMatrix, ExtremalSpec, ExtremalTriple
from equichan.gtpaths import GtPath
from equichan.staircases import Staircase
from equichan.streaming import ResourceLedger
from equichan.verify import CaseResult, VerificationReport


def staircase_to_obj(s: Staircase) -> list[int]:
    return list(s.entries)


def staircase_from_obj(obj: list[int]) -> Staircase:
    return Staircase(_integers(obj, "staircase"))


def _integer(value: Any, key: str) -> int:
    """``value`` if it is an integer and not a bool, else ValueError naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return int(value)


def _real(value: Any, key: str) -> Real:
    """``value`` if it is a real number and not a bool, else ValueError naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{key!r} must be a real number, got {value!r}")
    return value


def _string(value: Any, key: str) -> str:
    """``value`` if it is a string, else ValueError naming ``key``."""
    if not isinstance(value, str):
        raise ValueError(f"{key!r} must be a string, got {value!r}")
    return value


def _object(value: Any, key: str) -> dict:
    """``value`` if it is a JSON object, else ValueError naming ``key`` and
    the type found (not the value, which may be a whole matrix)."""
    if not isinstance(value, dict):
        raise ValueError(f"{key!r} must be an object, got {type(value).__name__}")
    return value


def _list(value: Any, key: str) -> list | tuple:
    """``value`` if it is a JSON array, else ValueError naming ``key`` and
    the type found."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key!r} must be a list, got {type(value).__name__}")
    return value


def _integers(values: Any, key: str) -> tuple[int, ...]:
    """The entries of the list ``values`` of integers, named ``key``."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{key!r} must be a list of integers, got {values!r}")
    return tuple(_integer(x, f"{key}[{i}]") for i, x in enumerate(values))


def _complex_entries(pairs: Any, key: str) -> list[complex]:
    """The complex numbers of a list of [re, im] pairs of real numbers;
    ``key`` names the list in the error."""
    if not isinstance(pairs, (list, tuple)):
        raise ValueError(f"{key!r} must be a list of [re, im] pairs, got {pairs!r}")
    out = []
    for i, pair in enumerate(pairs):
        if not (
            isinstance(pair, (list, tuple))
            and len(pair) == 2
            and all(isinstance(x, Real) and not isinstance(x, bool) for x in pair)
        ):
            raise ValueError(
                f"{key!r} entry {i} is {pair!r}, expected a [re, im] pair of real numbers"
            )
        out.append(complex(pair[0], pair[1]))
    return out


def matrix_to_obj(M: np.ndarray) -> dict:
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    return {
        "rows": M.shape[0],
        "cols": M.shape[1],
        "data": [[float(x.real), float(x.imag)] for x in M.reshape(-1)],
    }


def matrix_from_obj(obj: dict) -> np.ndarray:
    obj = _object(obj, "matrix")
    rows, cols = _integer(obj["rows"], "rows"), _integer(obj["cols"], "cols")
    for key, size in (("rows", rows), ("cols", cols)):
        if size < 0:
            raise ValueError(f"{key!r} must be non-negative, got {size}")
    data = _complex_entries(obj["data"], "data")
    if len(data) != rows * cols:
        raise ValueError(f"data length {len(data)} != rows*cols {rows * cols}")
    flat = np.array(data, dtype=complex)
    if not np.all(np.isfinite(flat)):
        raise ValueError("matrix entries must be finite")
    return flat.reshape(rows, cols)


def choi_to_obj(choi: ChoiMatrix) -> dict:
    obj = matrix_to_obj(choi.matrix)
    obj.update({"m": choi.m, "n": choi.n, "d": choi.d})
    return obj


def choi_from_obj(obj: dict) -> ChoiMatrix:
    obj = _object(obj, "choi")
    m, n, d = (_integer(obj[key], key) for key in "mnd")
    for key, value, least in (("m", m, 0), ("n", n, 0), ("d", d, 1)):
        if value < least:
            raise ValueError(f"{key!r} must be at least {least}, got {value}")
    return ChoiMatrix(matrix_from_obj(obj), m, n, d)


def spec_to_obj(spec: ExtremalSpec) -> dict:
    return {
        "m": spec.m,
        "n": spec.n,
        "d": spec.d,
        "assignments": [
            {
                "lambda": staircase_to_obj(lam),
                "mu": staircase_to_obj(t.mu),
                "gamma": staircase_to_obj(t.gamma),
                "psi": [[float(x.real), float(x.imag)] for x in t.psi],
            }
            for lam, t in spec.assignments.items()
        ],
    }


def spec_from_obj(obj: dict) -> ExtremalSpec:
    obj = _object(obj, "spec")
    assignments = {}
    for i, a in enumerate(_list(obj["assignments"], "assignments")):
        a = _object(a, f"assignments[{i}]")
        lam, mu, gamma = (
            Staircase(_integers(a[key], key)) for key in ("lambda", "mu", "gamma")
        )
        if lam in assignments:
            raise ValueError(f"'lambda' {lam} is assigned twice")
        assignments[lam] = ExtremalTriple(mu, gamma, _complex_entries(a["psi"], "psi"))
    m, n, d = (_integer(obj[key], key) for key in "mnd")
    return ExtremalSpec(m, n, d, assignments)


def path_to_obj(p: GtPath) -> list[list[int]]:
    """A path is an array of staircase arrays; (k, l) is recovered from the
    box counts, which rise for additions and fall for removals."""
    return [staircase_to_obj(s) for s in p.steps]


def path_from_obj(obj: list[list[int]]) -> GtPath:
    if not _list(obj, "path"):
        raise ValueError("'path' must hold at least one staircase")
    steps = tuple(staircase_from_obj(row) for row in obj)
    sizes = [s.size for s in steps]
    k = int(np.argmax(sizes))
    l = len(steps) - 1 - k
    return GtPath(steps, k, l)


def report_to_obj(r: VerificationReport) -> dict:
    return {
        "suite": r.suite,
        "seed": r.seed,
        "passed": r.passed,
        "cases": [
            {
                "id": c.case_id,
                "value": c.value,
                "threshold": c.threshold,
                "pass": c.passed,
            }
            for c in r.cases
        ],
    }


def report_from_obj(obj: dict) -> VerificationReport:
    obj = _object(obj, "report")
    r = VerificationReport(_string(obj["suite"], "suite"), _integer(obj["seed"], "seed"))
    for i, c in enumerate(_list(obj["cases"], "cases")):
        c = _object(c, f"cases[{i}]")
        value, threshold = (_real(c[key], key) for key in ("value", "threshold"))
        r.cases.append(CaseResult(_string(c["id"], "id"), value, threshold))
    return r


def app_result_to_obj(output: np.ndarray, ledger: ResourceLedger, fidelity=None) -> dict:
    return {
        "output": matrix_to_obj(output),
        "ledger": ledger.as_dict(),
        "fidelity": None if fidelity is None else float(fidelity),
    }


def save_json(obj: Any, path: str | Path) -> None:
    Path(path).write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def load_json(path: str | Path) -> Any:
    return json.loads(Path(path).read_text(encoding="utf-8"))
