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
    rows, cols = _integer(obj["rows"], "rows"), _integer(obj["cols"], "cols")
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
    m, n, d = (_integer(obj[key], key) for key in "mnd")
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
    assignments = {}
    for a in obj["assignments"]:
        lam, mu, gamma = (
            Staircase(_integers(a[key], key)) for key in ("lambda", "mu", "gamma")
        )
        assignments[lam] = ExtremalTriple(mu, gamma, _complex_entries(a["psi"], "psi"))
    m, n, d = (_integer(obj[key], key) for key in "mnd")
    return ExtremalSpec(m, n, d, assignments)


def path_to_obj(p: GtPath) -> list[list[int]]:
    """A path is an array of staircase arrays; (k, l) is recovered from the
    box counts, which rise for additions and fall for removals."""
    return [staircase_to_obj(s) for s in p.steps]


def path_from_obj(obj: list[list[int]]) -> GtPath:
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
    r = VerificationReport(obj["suite"], int(obj["seed"]))
    for c in obj["cases"]:
        r.cases.append(CaseResult(c["id"], c["value"], c["threshold"]))
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
