"""Shared verification primitives: Haar sampling, distances, reports."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from equichan.gtpaths import RemovalDistribution
from equichan.staircases import Staircase


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed element of SU(d).

    QR of a complex Gaussian matrix with the R diagonal made positive gives
    Haar on U(d); dividing by the d-th root of the determinant lands in SU(d).
    A ``d`` that is not an integer (or is a bool) raises TypeError, and so
    does an ``rng`` that is not a ``numpy.random.Generator``, even at d = 1.
    """
    if isinstance(d, bool) or not hasattr(type(d), "__index__"):
        raise TypeError(f"d must be an integer, got {d!r}")
    d = operator.index(d)
    if d < 1:
        raise ValueError("need d >= 1")
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a numpy.random.Generator, got {rng!r}")
    if d == 1:
        return np.ones((1, 1), dtype=complex)
    Z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    Q, R = np.linalg.qr(Z)
    ph = np.diag(R) / np.abs(np.diag(R))
    Q = Q * ph
    det = np.linalg.det(Q)
    return Q / det ** (1.0 / d)


def tv_distance(empirical: dict[Staircase, float], exact: RemovalDistribution) -> float:
    """Total variation distance between an empirical histogram and an exact
    distribution; empirical counts are normalized first.  Raises ValueError
    naming the label of the first count that is negative or not finite."""
    extra = set(empirical) - set(exact.probs)
    if extra:
        raise ValueError(f"empirical support outside exact support: {extra}")
    for mu, c in empirical.items():
        if not (math.isfinite(c) and c >= 0):
            raise ValueError(f"count for {mu} is {c!r}, need a finite count >= 0")
    total = sum(empirical.values())
    if total <= 0:
        raise ValueError("empty histogram")
    acc = 0.0
    for mu, p in exact.probs.items():
        q = empirical.get(mu, 0) / total
        acc += abs(float(p) - q)
    return 0.5 * acc


@dataclass
class CaseResult:
    case_id: str
    value: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.value <= self.threshold


@dataclass
class VerificationReport:
    suite: str
    seed: int
    cases: list[CaseResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def add(self, case_id: str, value: float, threshold: float):
        self.cases.append(CaseResult(case_id, float(value), float(threshold)))

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.cases:
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"[{status}] {self.suite}/{c.case_id}: {c.value:.3e} <= {c.threshold:.3e}"
            )
        return lines

    def __str__(self) -> str:
        return "\n".join(self.summary_lines())
