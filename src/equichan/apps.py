"""Worked applications: state symmetrization, symmetric cloning, purity
amplification.

Each is one extremal spec (``symmetrization_spec``, ``cloning_spec``,
``purity_spec``) run by the streamed executor ``streamed_apply``, and
returns the output state with the resource ledger; independent dense
oracles for all three live in the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

import numpy as np

from equichan.channels import (
    check_input,
    cloning_spec,
    purity_spec,
    symmetrization_spec,
)
from equichan.staircases import sym_dim
from equichan.streaming import ResourceLedger, streamed_apply

# bound only because perfbench/tracer.py's REQUIRED_ALIASES demands them
from equichan.streaming import _absorb_phase, _emission_phase  # noqa: F401
from equichan.transforms import permutation_operator

SYMMETRIC_SUPPORT_TOL = 1e-8


@dataclass
class AppResult:
    """Output state, resource ledger and (where defined) a fidelity.

    The apps build it from the output of ``streamed_apply``, which returns
    a state or raises ValueError.
    """

    output: np.ndarray
    ledger: ResourceLedger
    fidelity: float | None = None


def symmetrize(
    rho: np.ndarray,
    m: int,
    d: int,
    mode: str = "exact",
    seed: int = 0,
    trajectories: int = 10_000,
) -> AppResult:
    """Average a state over all permutations of its m tensor factors.

    Runs the streaming schedule of the spec assigning the identity channel
    to every label; equals the average over all m! permutations.
    """
    spec = symmetrization_spec(m, d)
    out, ledger = streamed_apply(
        spec, rho, seed=seed, mode=mode, trajectories=trajectories
    )
    return AppResult(out, ledger)


def symmetric_projector(n: int, d: int) -> np.ndarray:
    acc = np.zeros((d**n, d**n))
    for perm in itertools.permutations(range(n)):
        acc += permutation_operator(perm, n, d)
    return acc / factorial(n)


def clone(
    state: np.ndarray,
    m: int,
    n: int,
    d: int,
    reference: np.ndarray | None = None,
) -> AppResult:
    """Optimal symmetric cloning of m copies into n > m approximate copies.

    Runs ``cloning_spec(m, n, d)`` through ``streamed_apply``.  ``state`` is
    either a single-qudit pure vector psi (cloned from psi^(x m)) or a
    density matrix on the m-qudit symmetric subspace.  A matrix input with
    off-mass |rho - P rho P| or weight tr((1 - P) rho) above 1e-8 outside
    it (P the symmetric projector) is rejected before anything is streamed.
    A pure ``state`` or a ``reference`` must be a length-d vector with
    finite entries and nonzero norm, else ValueError.  The fidelity field
    holds tr[(psi psi)^(x n) output] when a pure state is given or passed
    as ``reference``.
    """
    spec = cloning_spec(m, n, d)
    psi = None
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        psi = _unit_vector(state, d, "state")
        rho = np.array([1.0 + 0j])
        for _ in range(m):
            rho = np.kron(rho, np.outer(psi, psi.conj()))
        rho = rho.reshape(d**m, d**m)
    else:
        rho = state
        check_input(rho, d**m)
        _check_symmetric_support(rho, m, d)
    if reference is not None:
        psi = _unit_vector(np.reshape(reference, -1), d, "reference")

    out, ledger = streamed_apply(spec, rho)
    fidelity = None
    if psi is not None:
        target = np.array([1.0 + 0j])
        for _ in range(n):
            target = np.kron(target, psi)
        fidelity = float(np.real(target.conj() @ out @ target))
    return AppResult(out, ledger, fidelity)


def _check_symmetric_support(rho: np.ndarray, m: int, d: int) -> None:
    """ValueError unless rho lies on the m-qudit symmetric subspace.

    Runs before any streaming, after ``channels.check_input``: the
    off-mass |rho - P rho P| and the weight tr((1 - P) rho), which
    absorption would put on labels other than (m), must each be at most
    SYMMETRIC_SUPPORT_TOL.
    """
    P = symmetric_projector(m, d)
    off = np.linalg.norm(rho - P @ rho @ P)
    if off > SYMMETRIC_SUPPORT_TOL:
        raise ValueError(
            f"input has mass {off:.2e} outside the symmetric subspace; "
            "the cloning map is only trace preserving on it"
        )
    stray = float(np.trace(rho - P @ rho).real)
    if stray > SYMMETRIC_SUPPORT_TOL:
        raise ValueError(f"non-symmetric weight {stray:.2e} after absorption")


def _unit_vector(vec: np.ndarray, d: int, name: str) -> np.ndarray:
    """``vec`` normalized, or ValueError naming the argument ``name``: it
    must hold d finite entries and have nonzero norm."""
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (d,):
        raise ValueError(f"{name} must be a length-{d} vector, got shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise ValueError(f"{name} has non-finite entries")
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValueError(f"{name} has zero norm")
    return vec / norm


def cloning_fidelity(m: int, n: int, d: int) -> float:
    """The optimal global cloning fidelity: dim sym(m) / dim sym(n)."""
    return sym_dim(m, d) / sym_dim(n, d)


def purity_amplify(
    rho: np.ndarray,
    m: int,
    d: int,
    reference: np.ndarray | None = None,
) -> AppResult:
    """Distill one qudit from m noisy copies by keeping one box per label.

    Implements the first-descent box-removal rule; the channel never
    references the depolarization strength.  When ``reference`` is given the
    fidelity field holds <ref| output |ref>; it must be a length-d vector
    with finite entries and nonzero norm, else ValueError.
    """
    psi = None
    if reference is not None:
        psi = _unit_vector(np.reshape(reference, -1), d, "reference")
    out, ledger = streamed_apply(purity_spec(m, d), rho)
    fidelity = None
    if psi is not None:
        fidelity = float(np.real(psi.conj() @ out @ psi))
    return AppResult(out, ledger, fidelity)


def depolarized_copies(psi: np.ndarray, alpha: float, m: int, d: int) -> np.ndarray:
    """(1-alpha) psi psi + alpha/d, tensored m times."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    psi = psi / np.linalg.norm(psi)
    single = (1 - alpha) * np.outer(psi, psi.conj()) + (alpha / d) * np.eye(d)
    rho = np.array([1.0 + 0j])
    for _ in range(m):
        rho = np.kron(rho, single)
    return rho.reshape(d**m, d**m)
