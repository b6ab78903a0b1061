"""Dense reference results for the benchmark, written without equichan.

Every function here uses numpy only, so a defect in the package cannot hide
in its own check.  Sites of an m-qudit operator are ordered as numpy's
row-major reshape to (d,) * 2m orders them: ket sites first, bra sites last.
"""

from __future__ import annotations

import itertools
from math import comb, factorial

import numpy as np


def symmetrize_oracle(rho: np.ndarray, m: int, d: int) -> np.ndarray:
    """Average of P rho P^T over all m! site permutations, by cosets.

    Avg_k = (1/k) sum_j T_(j,k) Avg_(k-1) T_(j,k), where T_(j,k) swaps sites
    j and k and T_(k,k) is the identity: S_k is the union of the cosets
    T_(j,k) S_(k-1).  That is m(m-1)/2 conjugations instead of m!.
    """
    t = np.asarray(rho, dtype=complex).reshape((d,) * (2 * m))
    for k in range(1, m):
        acc = t.copy()
        for j in range(k):
            acc += np.swapaxes(np.swapaxes(t, j, k), m + j, m + k)
        t = acc / (k + 1)
    return t.reshape(d**m, d**m)


def symmetrize_brute(rho: np.ndarray, m: int, d: int) -> np.ndarray:
    """The m!-term permutation average, for checking the coset form."""
    t = np.asarray(rho, dtype=complex).reshape((d,) * (2 * m))
    acc = np.zeros_like(t)
    for perm in itertools.permutations(range(m)):
        acc += np.transpose(t, list(perm) + [m + p for p in perm])
    return (acc / factorial(m)).reshape(d**m, d**m)


def symmetric_projector(n: int, d: int) -> np.ndarray:
    """Projector onto Sym^n(C^d): entry 1/|g| where i and j share a type g.

    A type is the multiset of digits of a basis index; the normalized sum of
    the basis vectors of one type spans one symmetric direction.
    """
    digits = np.indices((d,) * n).reshape(n, -1).T
    codes = np.sort(digits, axis=1) @ (d ** np.arange(n))
    _, group, counts = np.unique(codes, return_inverse=True, return_counts=True)
    same = group[:, None] == group[None, :]
    return same / counts[group][:, None]


def pure_power(psi: np.ndarray, k: int) -> np.ndarray:
    """The vector psi^(x k)."""
    out = np.ones(1, dtype=complex)
    for _ in range(k):
        out = np.kron(out, psi)
    return out


def werner_clone(psi: np.ndarray, m: int, n: int, d: int, proj_n: np.ndarray) -> np.ndarray:
    """Werner's optimal cloner on psi^(x m): (s_m / s_n) P_n (rho (x) 1) P_n."""
    v = pure_power(psi, m)
    rho = np.kron(np.outer(v, v.conj()), np.eye(d ** (n - m)))
    scale = comb(m + d - 1, d - 1) / comb(n + d - 1, d - 1)
    return scale * (proj_n @ rho @ proj_n)


def depolarized_power(psi: np.ndarray, alpha: float, m: int, d: int) -> np.ndarray:
    """((1 - alpha) psi psi^dagger + alpha 1/d)^(x m)."""
    single = (1 - alpha) * np.outer(psi, psi.conj()) + (alpha / d) * np.eye(d)
    rho = np.ones((1, 1), dtype=complex)
    for _ in range(m):
        rho = np.kron(rho, single)
    return rho


def apply_choi(C: np.ndarray, rho: np.ndarray, din: int, dout: int) -> np.ndarray:
    """sum_kl rho_kl Phi(|k><l|) for C = sum_kl |k><l| (x) Phi(|k><l|)."""
    return np.einsum("kalb,kl->ab", C.reshape(din, dout, din, dout), rho)


def choi_defect(C: np.ndarray, din: int, dout: int) -> float:
    """Largest violation of Hermiticity, positivity and trace preservation."""
    herm = float(np.linalg.norm(C - C.conj().T))
    neg = max(0.0, -float(np.linalg.eigvalsh((C + C.conj().T) / 2).min()))
    tp = float(
        np.linalg.norm(
            np.einsum("iaja->ij", C.reshape(din, dout, din, dout)) - np.eye(din)
        )
    )
    return max(herm, neg, tp)


def state_defect(rho: np.ndarray) -> float:
    """Largest violation of Hermiticity, unit trace and positivity."""
    herm = float(np.linalg.norm(rho - rho.conj().T))
    trace = abs(complex(np.trace(rho)) - 1.0)
    neg = max(0.0, -float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()))
    return max(herm, trace, neg)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random U(d): QR of a complex Gaussian with a positive R diagonal."""
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def covariance_defect(
    C: np.ndarray, m: int, n: int, d: int, rng: np.random.Generator
) -> float:
    """||[conj(U)^(x m) (x) U^(x n), C]|| for one Haar U."""
    U = haar_unitary(d, rng)
    big = np.ones((1, 1), dtype=complex)
    for _ in range(m):
        big = np.kron(big, U.conj())
    for _ in range(n):
        big = np.kron(big, U)
    return float(np.linalg.norm(big @ C - C @ big))


def random_state(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """A random density matrix of the given rank (Wishart)."""
    A = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = A @ A.conj().T
    return rho / np.trace(rho)


def random_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# the statistical bound for sampled symmetrization
# ---------------------------------------------------------------------------

# Tolerance in units of the exact root-mean-square error.  The norm of a
# sum of many independent bounded matrices concentrates tightly at its RMS,
# so any correct sampler, with any random stream, stays far inside it.
SAMPLE_BOUND_SIGMAS = 6.0


def _partitions(m: int, rows: int, largest: int | None = None):
    largest = m if largest is None else largest
    if m == 0:
        yield ()
        return
    if rows == 0:
        return
    for first in range(min(m, largest), 0, -1):
        for rest in _partitions(m - first, rows - 1, first):
            yield (first,) + rest


def _content_sum(lam: tuple[int, ...]) -> int:
    return sum(j - i for i, r in enumerate(lam) for j in range(r))


def _hook_dim(lam: tuple[int, ...]) -> int:
    """Dimension of the S_m irrep lam, by the hook length formula."""
    cols = [sum(1 for r in lam if r > j) for j in range(lam[0])] if lam else []
    hooks = 1
    for i, r in enumerate(lam):
        for j in range(r):
            hooks *= (r - j - 1) + (cols[j] - i - 1) + 1
    return factorial(sum(lam)) // hooks


def transposition_sum(m: int, d: int) -> np.ndarray:
    """sum_(i<j) SWAP_ij on (C^d)^(x m): it acts on the isotypic component
    of a partition lam as the content sum of lam."""
    D = d**m
    digits = np.indices((d,) * m).reshape(m, -1)
    J = np.zeros((D, D))
    for i in range(m):
        for j in range(i + 1, m):
            swapped = digits.copy()
            swapped[[i, j]] = swapped[[j, i]]
            J[np.ravel_multi_index(swapped, (d,) * m), np.arange(D)] += 1
    return J


def sampling_rms(exact: np.ndarray, m: int, d: int) -> float:
    """Exact RMS Frobenius error of one sampled emission trajectory.

    A trajectory emits each isotypic block rho_lam along one uniformly
    random GT path, so it always has squared norm sum_lam ||rho_lam||^2 =
    sum_lam dim P_lam ||E_lam||^2, where E_lam is the lam component of the
    exact output E.  Its variance is that minus ||E||^2; the components come
    from the spectral projectors of the transposition sum.
    """
    by_content: dict[int, tuple[int, ...]] = {}
    for lam in _partitions(m, d):
        c = _content_sum(lam)
        if c in by_content:
            raise ValueError(f"content sum {c} is shared: pick another (m, d)")
        by_content[c] = lam
    evals, evecs = np.linalg.eigh(transposition_sum(m, d))
    second = 0.0
    for c, lam in by_content.items():
        V = evecs[:, np.abs(evals - c) < 1e-6]
        if V.shape[1] == 0:
            continue
        comp = V.T @ exact @ V
        second += _hook_dim(lam) * float(np.linalg.norm(comp)) ** 2
    return float(np.sqrt(max(second - float(np.linalg.norm(exact)) ** 2, 0.0)))


def sample_bound(rms: float, trajectories: int) -> float:
    """Largest accepted distance between a T-trajectory average and E."""
    return SAMPLE_BOUND_SIGMAS * rms / np.sqrt(trajectories) + 1e-9
