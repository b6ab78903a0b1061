"""Choi machinery and the classification of symmetric channels.

A channel from m to n qudits that commutes with collective SU(d) rotations
and with independent input/output permutations is determined by one
positive multiplicity-space matrix per admissible label triple
(lambda, mu, gamma), with unit trace sum per lambda.  The extremal channels
pin a single triple and a rank-one multiplicity state per input label, and
factor as Schur sampling, an irrep-level channel, and the reverse Schur
sampling.  This module builds all of these as dense objects and checks them
against each other.  Each stage of the factorization is a Kraus map; the
factored channel's Kraus operators are the products of one operator per
stage over matching sectors, and its Choi matrix is V V^dag with one
vectorized operator per column of V.

The classification isometry keys its rows by label triple: ``blocks``
maps (lambda, mu, gamma) to the read-only view of the triple's rows,
shaped (p_lambda, p_mu, mult, q_gamma, D), as ``transforms`` keys the
rows of its CG transforms by label.

Conventions: the Choi matrix of Phi is sum_ij |i><j| (x) Phi(|i><j|), so
its first tensor slot carries the conjugate action on the input space.
Conjugate-transforming coordinates are rotated into canonical realizations
of the dual label with the dual_structure intertwiners.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from equichan.limits import check_dense
from equichan.realize import dual_structure
from equichan.staircases import (
    Staircase,
    box_label,
    check_count,
    check_shape,
    dim_gl_irrep,
    dim_perm_irrep,
    lr_coeff,
    partitions_of,
)
from equichan.transforms import (
    PathTransform,
    _row_slices,
    _row_views,
    general_cg,
    schur_transform,
)
from equichan.verify import haar_unitary

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-9
TP_TOL = 1e-8

# Tolerance on an input state's unit trace and Hermiticity.
STATE_TOL = 1e-8

# Edge of the square tiles of rho^dag - rho that check_input holds at once.
HERMITICITY_BAND = 64


# The state gate: every route tests its input and its output here.
def check_input(rho: np.ndarray, dim: int) -> None:
    """ValueError unless rho is a finite dim x dim matrix whose trace and
    rho^dag - rho are within STATE_TOL of 1 and 0; positivity is not tested.

    rho is read through ``np.asarray``.  Finiteness comes first, as every
    comparison with a NaN is False.  The squared Frobenius norm of
    A = rho^dag - rho is summed over the pairs (I, J), I <= J, of square
    tiles of edge HERMITICITY_BAND, in one reused tile buffer: A is
    anti-Hermitian, so tile (J, I) of A has the norm of tile (I, J), and
    the off-diagonal pairs are weighted by 2, the diagonal tiles by 1.
    The test never holds a dim x dim copy of rho.
    """
    rho = np.asarray(rho)
    if not np.isfinite(rho).all():
        raise ValueError("input has non-finite entries")
    if rho.shape != (dim, dim):
        raise ValueError(f"input shape {rho.shape}, expected {(dim, dim)}")
    trace = np.trace(rho)
    if abs(trace - 1.0) > STATE_TOL:
        raise ValueError(f"input trace {trace:.6g}, expected 1")
    buf = np.empty(min(HERMITICITY_BAND, dim) ** 2, dtype=rho.dtype)
    starts = range(0, dim, HERMITICITY_BAND)
    squared = 0.0
    for i in starts:
        rows = slice(i, min(i + HERMITICITY_BAND, dim))
        for j in starts[i // HERMITICITY_BAND :]:
            cols = slice(j, min(j + HERMITICITY_BAND, dim))
            # tile (I, J) of rho^dag - rho
            tile = buf[: (rows.stop - i) * (cols.stop - j)].reshape(rows.stop - i, -1)
            np.conjugate(rho[cols, rows].T, out=tile)
            tile -= rho[rows, cols]
            squared += (1 if i == j else 2) * np.vdot(tile, tile).real
    if np.sqrt(squared) > STATE_TOL:
        raise ValueError("input is not Hermitian")


def _check_finite(X: np.ndarray) -> None:
    if not np.isfinite(X).all():
        raise ValueError("output has non-finite entries")


def _check_unit_trace(X: np.ndarray) -> None:
    tr = np.trace(X)
    if abs(tr - 1.0) >= 1e-10:
        raise ValueError(f"output trace {tr}, expected 1")


def check_finite_unit_trace(X: np.ndarray) -> None:
    """ValueError unless the output X has finite entries and trace 1 within 1e-10."""
    _check_finite(X)
    _check_unit_trace(X)


def check_state(X: np.ndarray) -> None:
    """ValueError unless the output X is a state, tested densely.

    The tests run in the order a streamed run meets them, so every route
    reports the same failure: finite entries first, as every comparison
    with a NaN is False; then positivity, where the Hermitian part H of X
    must have its smallest eigenvalue above -PSD_TOL: exactly when the
    Cholesky factorization of H + PSD_TOL * 1, built in one C-ordered
    buffer, exists (the eigenvalues of H are computed only when it fails,
    for the message); the unit trace last.
    """
    _check_finite(X)
    shifted = np.empty_like(X, dtype=np.result_type(X, np.float64), order="C")
    np.conjugate(X.T, out=shifted)
    shifted += X
    shifted *= 0.5
    np.einsum("ii->i", shifted)[:] += PSD_TOL
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        lowest = np.linalg.eigvalsh((X + X.conj().T) / 2).min()
        if lowest <= -PSD_TOL:
            raise ValueError(f"output not positive semidefinite: {lowest:.2e}") from None
    _check_unit_trace(X)


# ---------------------------------------------------------------------------
# channel objects
# ---------------------------------------------------------------------------


class KrausChannel:
    """A completely positive map from in_dim to out_dim dimensions, given by
    its Kraus operators, each of shape (out_dim, in_dim)."""

    def __init__(self, ops: list[np.ndarray], in_dim: int, out_dim: int):
        self.ops = ops
        self.in_dim = in_dim
        self.out_dim = out_dim

    def apply(self, rho: np.ndarray) -> np.ndarray:
        acc = np.zeros((self.out_dim, self.out_dim), dtype=complex)
        for K in self.ops:
            acc += K @ rho @ K.conj().T
        return acc

    def choi(self) -> np.ndarray:
        """C = V V^dag, column k of V being vec(K_k) indexed (in, out)."""
        V = np.stack([K.T.reshape(-1) for K in self.ops], axis=1)
        return V @ V.conj().T


class ChoiChannel:
    """A linear map from in_dim to out_dim dimensions, given by its dense
    Choi matrix, of shape (in_dim * out_dim,) * 2 and indexed (in, out)."""

    def __init__(self, matrix: np.ndarray, in_dim: int, out_dim: int):
        dim = in_dim * out_dim
        if matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {matrix.shape}, expected {(dim, dim)}")
        self.matrix = matrix
        self.in_dim = in_dim
        self.out_dim = out_dim

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Phi(rho) = tr_in[C (rho^T (x) 1_out)]."""
        if rho.shape != (self.in_dim, self.in_dim):
            raise ValueError(f"state has shape {rho.shape}, expected {(self.in_dim,) * 2}")
        C4 = self.matrix.reshape(self.in_dim, self.out_dim, self.in_dim, self.out_dim)
        return np.einsum("kalb,kl->ab", C4, rho)

    def validate(self) -> None:
        """Raise ValueError unless Hermitian, PSD and trace preserving."""
        M = self.matrix
        if not np.linalg.norm(M - M.conj().T) < HERMITIAN_TOL:
            raise ValueError("not Hermitian")
        evals = np.linalg.eigvalsh((M + M.conj().T) / 2)
        if not evals.min() > -PSD_TOL:
            raise ValueError(f"not PSD: min eigenvalue {evals.min():.2e}")
        C4 = M.reshape(self.in_dim, self.out_dim, self.in_dim, self.out_dim)
        red = np.einsum("iaja->ij", C4)
        if not np.linalg.norm(red - np.eye(self.in_dim)) < TP_TOL:
            raise ValueError("not trace preserving")


class ChoiMatrix(ChoiChannel):
    """The Choi matrix of a channel from m to n qudits of dimension d."""

    def __init__(self, matrix: np.ndarray, m: int, n: int, d: int):
        super().__init__(matrix, d**m, d**n)
        self.m, self.n, self.d = m, n, d


# ---------------------------------------------------------------------------
# symmetry certification
# ---------------------------------------------------------------------------


@dataclass
class SymmetryReport:
    unitary_residuals: list[float]
    permutation_residuals: list[float]

    @property
    def max_unitary_residual(self) -> float:
        return _max_residual(self.unitary_residuals)

    @property
    def max_permutation_residual(self) -> float:
        return _max_residual(self.permutation_residuals)

    def passed(self, tol: float) -> bool:
        return (
            self.max_unitary_residual <= tol
            and self.max_permutation_residual <= tol
        )


def _max_residual(residuals: list[float]) -> float:
    """The largest residual, 0.0 for none and NaN if any is NaN: the builtin
    ``max`` skips a NaN that follows a number, and a NaN must fail ``passed``."""
    return float(np.max(residuals)) if len(residuals) else 0.0


def check_symmetries(
    choi: ChoiMatrix,
    trials: int = 20,
    rng: np.random.Generator | None = None,
) -> SymmetryReport:
    """Residuals of the Choi commuting with conj U^(x m) (x) U^(x n) for Haar
    unitaries and with all adjacent input/output transpositions.

    ``trials`` Haar unitaries are drawn from ``rng``, one per trial.
    ``trials`` is read by ``staircases.check_count`` with least 1: a bool,
    a non-integer or a count below one raises ValueError, as the empty
    residual list would certify covariance without a single draw; an
    ``rng`` that is not a ``numpy.random.Generator`` raises TypeError.
    With W = A (x) B, A = conj U^(x m) and B = U^(x n), the unitary
    residual is |W C W^dag - C|, which equals |W C - C W| as W is
    unitary.  W is never
    formed: the Choi matrix C is the tensor of legs (row in, row out,
    column in, column out) of sizes (d^m, d^n, d^m, d^n), and each of four
    plain GEMMs applies A, B, conj A, conj B to its leading leg and leaves
    the result at the back, so after the fourth the legs are in their
    original order, for O(D^2 (d^m + d^n)) flops at D = d^(m+n).  A
    transposition P of two adjacent sites a, a+1 is an involutive
    permutation of tensor legs, so its residual |P C - C P| = |P C P - C|
    is C, viewed as (d^a, d, d, rest) x (d^a, d, d, rest), with the two
    middle legs of each half swapped, minus C: no arithmetic beyond the
    difference and its norm.

    Every Choi-sized intermediate lives in one workspace of two halves,
    allocated once per call: each GEMM writes into the half it does not
    read, and each difference is taken in place, so a trial allocates
    nothing of the size of C.  ``choi.matrix`` is only read; a matrix that
    is not C-contiguous complex is converted once.  The report holds
    residuals only; the caller picks the threshold with
    ``SymmetryReport.passed(tol)``.
    """
    trials = check_count("trials", trials, least=1)
    if rng is None:
        rng = np.random.default_rng(7)
    m, n, d = choi.m, choi.n, choi.d
    dm, dn = d**m, d**n
    C = np.ascontiguousarray(choi.matrix, dtype=complex).reshape(-1)
    work = np.empty((2, C.size), dtype=complex)
    unitary = []
    for _ in range(trials):
        U = haar_unitary(d, rng)
        A = _tensor_power(U.conj(), m)
        B = _tensor_power(U, n)
        # W C W^dag: each GEMM rotates the leading leg and moves it to the back
        X = C
        for Y, M, dim in zip((work[0], work[1]) * 2, (A, B, A.conj(), B.conj()), (dm, dn) * 2):
            np.matmul(X.reshape(dim, -1).T, M.T, out=Y.reshape(-1, dim))
            X = Y
        unitary.append(_residual(np.subtract(X, C, out=X)))
    perm = []
    for a in [*range(m - 1), *range(m, m + n - 1)]:
        legs = (d**a, d, d, d ** (m + n - a - 2)) * 2
        T = C.reshape(legs)
        diff = np.subtract(T.transpose(0, 2, 1, 3, 4, 6, 5, 7), T, out=work[0].reshape(legs))
        perm.append(_residual(diff.reshape(-1)))
    return SymmetryReport(unitary, perm)


def _residual(diff: np.ndarray) -> float:
    """The 2-norm of a flat contiguous complex difference, read as its real
    and imaginary parts with no copy: NaN if it holds a NaN, inf for an inf."""
    parts = diff.view(float)
    return float(np.sqrt(parts @ parts))


def _tensor_power(U: np.ndarray, k: int) -> np.ndarray:
    """U^(x k), each factor broadcast onto the legs: the entries of kron."""
    out = np.eye(1, dtype=complex)
    for _ in range(k):
        out = (out[:, None, :, None] * U[None, :, None, :]).reshape(
            out.shape[0] * U.shape[0], out.shape[1] * U.shape[1]
        )
    return out


# ---------------------------------------------------------------------------
# extremal specifications
# ---------------------------------------------------------------------------


@dataclass
class ExtremalTriple:
    mu: Staircase
    gamma: Staircase
    psi: np.ndarray

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=complex).reshape(-1)


@dataclass
class ExtremalSpec:
    """One extremal channel: a triple (mu, gamma, psi) per input label."""

    m: int
    n: int
    d: int
    assignments: dict[Staircase, ExtremalTriple]

    def __post_init__(self):
        self.m, self.n, self.d = check_shape(self.m, self.n, self.d)
        labels = partitions_of(self.m, self.d)
        if set(self.assignments) != set(labels):
            raise ValueError("assignments must cover every input label exactly once")
        for lam, t in self.assignments.items():
            if not t.mu.is_partition or t.mu.size != self.n or t.mu.d != self.d:
                raise ValueError(f"mu for {lam} is not a partition of n: {t.mu}")
            c = lr_coeff(lam.dual(), t.mu, t.gamma)
            if c < 1:
                raise ValueError(f"gamma {t.gamma} not admissible for {lam} -> {t.mu}")
            if t.psi.shape != (c,):
                raise ValueError(
                    f"psi for {lam} has length {t.psi.shape[0]}, multiplicity is {c}"
                )
            if not np.isfinite(t.psi).all():
                raise ValueError(f"psi for {lam} has non-finite entries")
            if abs(np.linalg.norm(t.psi) - 1.0) > 1e-10:
                raise ValueError(f"psi for {lam} is not normalized")

    def triple(self, lam: Staircase) -> ExtremalTriple:
        return self.assignments[lam]


def _admissible_gammas(lam: Staircase, mu: Staircase):
    """Each admissible gamma of lam -> mu with its multiplicity, in order."""
    shift = lam.entries[0]
    lam_v = lam.dual().shift(shift)  # partition with the same label
    for gp in partitions_of(lam_v.size + mu.size, lam.d):
        c = lr_coeff(lam_v, mu, gp)
        if c >= 1:
            yield gp.shift(-shift), c


def enumerate_extremal_triples(
    m: int, n: int, d: int
) -> list[tuple[Staircase, Staircase, Staircase, int]]:
    """All admissible (lambda, mu, gamma) with the multiplicity dimension.

    Bad arguments raise as in ``staircases.check_shape``.
    """
    m, n, d = check_shape(m, n, d)
    return [
        (lam, mu, gamma, c)
        for lam in partitions_of(m, d)
        for mu in partitions_of(n, d)
        for gamma, c in _admissible_gammas(lam, mu)
    ]


def symmetrization_spec(m: int, d: int) -> ExtremalSpec:
    """The spec of the permutation-averaging channel: identity on every label."""
    m, _, d = check_shape(m, m, d)
    zero = Staircase((0,) * d)
    assignments = {
        lam: ExtremalTriple(lam, zero, np.ones(1)) for lam in partitions_of(m, d)
    }
    return ExtremalSpec(m, m, d, assignments)


def cloning_spec(m: int, n: int, d: int) -> ExtremalSpec:
    """Optimal symmetric cloning of m copies into n (Werner, PRA 58, 1827).

    Label (m), the symmetric subspace, goes to (n) through gamma = (n - m);
    every other label takes its first admissible triple in
    ``enumerate_extremal_triples`` order, which has mu = (n).
    """
    m, n, d = check_shape(m, n, d)
    if not 0 < m < n:
        raise ValueError("need 0 < m < n")
    pad = (0,) * (d - 1)
    row_m, row_n = Staircase((m,) + pad), Staircase((n,) + pad)
    assignments = {}
    for lam in partitions_of(m, d):
        if lam == row_m:
            gamma, c = Staircase((n - m,) + pad), 1
        else:
            gamma, c = next(_admissible_gammas(lam, row_n))
        assignments[lam] = ExtremalTriple(row_n, gamma, np.eye(c)[0])
    return ExtremalSpec(m, n, d, assignments)


def gamma_min(lam: Staircase) -> Staircase:
    """Remove a box from the first strictly descending row of a partition."""
    if not lam.is_partition or lam.size == 0:
        raise ValueError("need a nonempty partition")
    e = lam.entries
    for i in range(lam.d):
        nxt = e[i + 1] if i + 1 < lam.d else 0
        if e[i] > nxt:
            return lam.bump(i, -1)
    raise AssertionError("unreachable")


def purity_spec(m: int, d: int) -> ExtremalSpec:
    """Spec of the purity amplification channel: keep one box per label."""
    m, _, d = check_shape(m, 1, d)
    box = box_label(d)
    assignments = {}
    for lam in partitions_of(m, d):
        assignments[lam] = ExtremalTriple(box, gamma_min(lam).dual(), np.ones(1))
    return ExtremalSpec(m, 1, d, assignments)


# ---------------------------------------------------------------------------
# classification isometry and extremal Choi matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ClassificationIsometry:
    """The real orthogonal matrix bringing every symmetric Choi matrix to
    block form: ``matrix`` is float64, D x D and read-only.

    ``blocks[(lam, mu, gamma)]`` is the read-only view of the triple's
    contiguous rows, shaped (p_lam, p_mu, mult, q_gamma, D); the views run
    over the rows in order, and the mapping is read-only too.
    """

    m: int
    n: int
    d: int
    matrix: np.ndarray
    blocks: Mapping[tuple[Staircase, Staircase, Staircase], np.ndarray]


def classification_isometry(m: int, n: int, d: int) -> ClassificationIsometry:
    """Conjugated Schur transforms on both legs followed by a CG transform.

    Maps the Choi space (conj C^d)^(x m) (x) (C^d)^(x n) onto
    sum_(lam,mu,gamma) P_lam (x) P_mu (x) C^mult (x) Q_gamma coordinates.
    Block (lam, mu, gamma) is one contraction of the gamma rows of
    general_cg(dual lam, mu) with the conjugated lam rows of the m-site
    Schur transform, rotated by dual_structure(lam)^dag, and the mu rows of
    the n-site one.  All three factors are real, so conjugation leaves the
    lam rows as they are and the isometry is real orthogonal, float64;
    complex numbers enter only with psi and the state.  It is certified
    once, when built: RuntimeError unless its real Gram V V^T is within
    1e-9 of the identity.  Bad arguments raise as in
    ``staircases.check_shape``; the dense cap is checked on every call, the
    isometry itself is memoised per (m, n, d).
    """
    m, n, d = check_shape(m, n, d)
    check_dense(d ** (m + n))
    return _classification_isometry(m, n, d)


@functools.cache
def _classification_isometry(m: int, n: int, d: int) -> ClassificationIsometry:
    Sm = schur_transform(m, 0, d)
    Sn = schur_transform(n, 0, d)
    D = d ** (m + n)
    cg = {(lam, mu): general_cg(lam.dual(), mu).blocks for lam in Sm.sectors for mu in Sn.sectors}
    # rows nest as (p_lam, p_mu, mult, q_gamma), columns as (in, out)
    shapes = {
        (lam, mu, g): (Sm.sectors[lam].p_dim, Sn.sectors[mu].p_dim, *G.shape[:2])
        for (lam, mu), blocks in cg.items()
        for g, G in blocks.items()
    }
    slices = _row_slices(shapes)
    filled = next(reversed(slices.values())).stop
    if filled != D:
        raise RuntimeError(f"classification blocks fill {filled} of {D} rows")
    out = np.zeros((D, D))
    for lam, sl in Sm.sectors.items():
        # conjugate-lambda rows (the real rows themselves) rotated to
        # canonical dual-lambda coordinates
        Zl = dual_structure(lam)  # canonical(dual lam) -> conj-of-canonical(lam)
        L = Zl.T @ sl.rows
        for mu, sn_ in Sn.sectors.items():
            for g, G in cg[lam, mu].items():
                out[slices[lam, mu, g]] = np.einsum(
                    "jgab,pax,qby->pqjgxy",
                    G.reshape(*G.shape[:2], sl.q_dim, sn_.q_dim),
                    L,
                    sn_.rows,
                    optimize=True,
                ).reshape(-1, D)
    gram = out @ out.T
    gram.flat[:: D + 1] -= 1.0
    resid = np.linalg.norm(gram)
    if resid >= 1e-9:
        raise RuntimeError(f"classification isometry not unitary: {resid:.2e}")
    return ClassificationIsometry(m, n, d, out, _row_views(out, shapes))


def extremal_choi(spec: ExtremalSpec) -> ChoiMatrix:
    """Choi matrix of the extremal channel selected by the spec.

    In the classification basis each label's block is
    scale * 1 (x) psi psi^dag (x) 1, so the Choi matrix is V^dag V with V
    the block rows contracted with conj(psi), stacked over the labels.
    """
    iso = classification_isometry(spec.m, spec.n, spec.d)
    D = spec.d ** (spec.m + spec.n)
    rows = []
    for lam, t in spec.assignments.items():
        R = iso.blocks[(lam, t.mu, t.gamma)]
        R = R.reshape(-1, R.shape[2], R.shape[3] * D)  # (paths, mult, q_gamma * D)
        scale = (dim_gl_irrep(lam) / dim_gl_irrep(t.gamma)) / dim_perm_irrep(t.mu)
        rows.append(np.sqrt(scale) * (t.psi.conj() @ R).reshape(-1, D))
    V = np.concatenate(rows)
    return ChoiMatrix(V.conj().T @ V, spec.m, spec.n, spec.d)


class NotSymmetricError(ValueError):
    """Raised when a Choi matrix is not in the symmetric channel set."""


def block_decompose_choi(
    choi: ChoiMatrix, tol: float = 1e-8
) -> dict[tuple[Staircase, Staircase, Staircase], np.ndarray]:
    """Extract the multiplicity-space matrices of a symmetric Choi matrix.

    Conjugates by the real orthogonal classification isometry V, as V C V^T
    in two real products on the ``view(float)`` of complex operands, with
    no complex copy of V; reads off one matrix per (gamma, dual lambda, mu)
    by partial trace over the identity factors, and verifies that
    rebuilding from the prescribed block structure reproduces the input:
    each rebuilt block is subtracted in place, and NotSymmetricError is
    raised unless the norm of what is left is at most ``tol``.
    """
    iso = classification_isometry(choi.m, choi.n, choi.d)
    V = iso.matrix
    # V C, then V (V C)^T = (V C V^T)^T written over V C and read transposed
    work = (V @ np.ascontiguousarray(choi.matrix, dtype=complex).view(float)).view(complex)
    np.matmul(V, np.ascontiguousarray(work.T).view(float), out=work.view(float))
    Dmat = work.T
    out: dict[tuple[Staircase, Staircase, Staircase], np.ndarray] = {}
    slices = _row_slices({key: rows.shape[:-1] for key, rows in iso.blocks.items()})
    for (lam, mu, gamma), rows in iso.blocks.items():
        p_lam, p_mu, mult, q_gamma, _ = rows.shape
        sl = slices[(lam, mu, gamma)]
        size = sl.stop - sl.start
        shape = (p_lam * p_mu, mult, q_gamma)
        six = Dmat[sl, sl].reshape(*shape, *shape)
        q_lam = dim_gl_irrep(lam)
        M = np.einsum("paqpbq->ab", six) / (p_lam * q_lam)
        out[(gamma, lam.dual(), mu)] = M
        scale = (q_lam / q_gamma) / dim_perm_irrep(mu)
        Dmat[sl, sl] -= scale * np.einsum(
            "pq,ab,cd->pacqbd", np.eye(p_lam * p_mu), M, np.eye(q_gamma)
        ).reshape(size, size)
    resid = np.linalg.norm(Dmat)
    if resid > tol:
        raise NotSymmetricError(
            f"off-block or non-isotropic mass {resid:.2e} exceeds {tol:.2e}"
        )
    return out


# ---------------------------------------------------------------------------
# Schur sampling channels
# ---------------------------------------------------------------------------


def direct_sum_layout(transform: PathTransform) -> dict[Staircase, slice]:
    """The slice of each sector's irrep space in the direct sum of the
    irrep spaces of ``transform``, in sector order."""
    return _row_slices({label: (s.q_dim,) for label, s in transform.sectors.items()})


def uss_channel(m: int, n: int, d: int) -> KrausChannel:
    """Schur transform, measure the label, discard the path register.

    One operator per (sector, path): the path's rows of
    ``schur_transform(m, n, d)`` placed in the sector's block of the direct
    sum of the irrep spaces, flattened in ``direct_sum_layout`` order.
    """
    S = schur_transform(m, n, d)
    layout = direct_sum_layout(S)
    out_dim = sum(s.q_dim for s in S.sectors.values())
    ops = []
    for label, s in S.sectors.items():
        for rows in s.rows:
            K = np.zeros((out_dim, S.dim))
            K[layout[label]] = rows
            ops.append(K)
    return KrausChannel(ops, S.dim, out_dim)


def dual_uss_channel(m: int, n: int, d: int) -> KrausChannel:
    """Append the maximally mixed path register and undo the Schur transform.

    The operators of ``uss_channel(m, n, d)`` adjoined, each scaled by
    1/sqrt(dim P) of its sector: the trace-preserving reverse channel of
    the factorization.
    """
    ch = uss_channel(m, n, d)
    scales = [
        np.sqrt(1.0 / s.p_dim)
        for s in schur_transform(m, n, d).sectors.values()
        for _ in range(s.p_dim)
    ]
    return KrausChannel(
        [w * K.conj().T for w, K in zip(scales, ch.ops, strict=True)], ch.out_dim, ch.in_dim
    )


# ---------------------------------------------------------------------------
# irrep-level channels
# ---------------------------------------------------------------------------


def _cg_restriction_tensor(lam: Staircase, mu: Staircase, gamma: Staircase):
    """The CG transform restricted to the gamma blocks, as a 4-tensor.

    Returns K0 with K0[x, y, g, a] the matrix element of the restriction of
    the inverse CG transform on Q_duallam (x) Q_mu at (x, y; g, mult a).
    The CG rows are real, so K0 is their transpose: a read-only float64
    view of the cached ``general_cg`` rows, not a copy.
    """
    rows = general_cg(lam.dual(), mu).blocks.get(gamma)  # (c, qg, qlam*qmu)
    if rows is None:
        raise ValueError(f"gamma {gamma} does not occur in {lam.dual()} (x) {mu}")
    c, qg, _ = rows.shape
    q_lam, q_mu = dim_gl_irrep(lam), dim_gl_irrep(mu)
    K0 = rows.transpose(2, 1, 0).reshape(q_lam, q_mu, qg, c)
    return K0, c, qg, q_lam, q_mu


@functools.cache
def _embed_trace_tensor(lam: Staircase, mu: Staircase, gamma: Staircase) -> np.ndarray:
    """The psi-free embed-trace isometry T of lam -> mu through gamma.

    Entry ((y, h), z, a) is sqrt(q_lam / q_gamma) times the restricted
    inverse CG tensor with its dual-lam slot rotated to a conjugate-lam slot
    (dual_structure(lam)) and its conjugate-gamma slot to a canonical
    dual-gamma ket (dual_structure(gamma)^dag): contracting the last leg with
    psi gives the embedding Q_lam -> Q_mu (x) Q_dualgamma.  The CG rows and
    both dual structures are real, so T is real: float64, shape
    (q_mu * q_gamma, q_lam, mult), read-only; memoised per label triple and
    certified once, when built: RuntimeError unless T_a^T T_b = delta_ab 1.
    """
    K0, c, qg, q_lam, q_mu = _cg_restriction_tensor(lam, mu, gamma)
    Zl, Zg = dual_structure(lam), dual_structure(gamma)
    T = np.einsum("zx,xyga,hg->yhza", Zl, K0, Zg.T, optimize=True)
    T = np.ascontiguousarray(np.sqrt(q_lam / qg) * T.reshape(q_mu * qg, q_lam, c))
    M = T.reshape(-1, q_lam * c)  # columns (z, a)
    resid = np.linalg.norm(M.T @ M - np.eye(q_lam * c))
    if resid >= 1e-8:
        raise RuntimeError(f"embedding not isometric: {resid:.2e}")
    T.flags.writeable = False
    return T


def irrep_channel(
    lam: Staircase,
    mu: Staircase,
    gamma: Staircase,
    psi: np.ndarray | None = None,
    form: str = "embed-trace",
) -> KrausChannel | ChoiChannel:
    """The extremal unitary-equivariant channel from Q_lam to Q_mu.

    Three equivalent computations: "choi" builds the Choi matrix from the
    CG projector onto the gamma block; "embed-trace" embeds Q_lam into
    Q_mu (x) Q_dualgamma and traces out the second factor; "sandwich"
    conjugates by the embedding of Q_mu into Q_lam (x) Q_gamma with the
    conjugated multiplicity vector.  All agree to numerical precision.
    "embed-trace" contracts psi into ``_embed_trace_tensor``, certified
    once per triple; the other two forms are built afresh on every call.
    """
    c = lr_coeff(lam.dual(), mu, gamma)
    if c < 1:
        raise ValueError(f"gamma {gamma} not admissible for {lam} -> {mu}")
    psi = np.asarray(np.eye(c)[0] if psi is None else psi, dtype=complex).reshape(-1)
    if psi.shape != (c,):
        raise ValueError(f"psi must have length {c}")
    if not np.isfinite(psi).all():
        raise ValueError("psi has non-finite entries")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("psi must be normalized")
    if form == "embed-trace":
        q_lam, q_mu = dim_gl_irrep(lam), dim_gl_irrep(mu)
        V = np.tensordot(_embed_trace_tensor(lam, mu, gamma), psi, 1).reshape(q_mu, -1, q_lam)
        return KrausChannel(list(V.transpose(1, 0, 2)), q_lam, q_mu)

    K0, c, qg, q_lam, q_mu = _cg_restriction_tensor(lam, mu, gamma)
    scale_lg = dim_gl_irrep(lam) / dim_gl_irrep(gamma)

    if form == "choi":
        Zl = dual_structure(lam)
        R = K0.reshape(q_lam * q_mu, qg * c)  # inverse CG restricted, as a matrix
        psi_proj = np.kron(np.eye(qg), np.outer(psi, psi.conj()))
        Ccg = scale_lg * (R @ psi_proj @ R.T)
        conv = np.kron(Zl.T, np.eye(q_mu))
        C = conv.T @ Ccg @ conv
        return ChoiChannel(C, q_lam, q_mu)

    if form == "sandwich":
        Zlbar = dual_structure(lam.dual())
        K3 = np.einsum("zx,xyga->zyga", Zlbar.T, K0)  # K0 is real: its own conjugate
        iota3 = np.sqrt(q_mu / qg) * np.einsum("zyga,a->zgy", K3, psi.conj()).reshape(
            q_lam * qg, q_mu
        )
        resid = np.linalg.norm(iota3.conj().T @ iota3 - np.eye(q_mu))
        if resid >= 1e-8:
            raise RuntimeError(f"sandwich embedding not isometric: {resid:.2e}")
        # Phi(A) = (q_lam / q_mu) iota3^dag (A (x) 1_gamma) iota3, one operator per h
        scale = np.sqrt(q_lam / q_mu)
        V3 = iota3.reshape(q_lam, qg, q_mu)
        ops = [scale * V3[:, h, :].conj().T for h in range(qg)]
        return KrausChannel(ops, q_lam, q_mu)

    raise ValueError(f"unknown form {form!r}")


# ---------------------------------------------------------------------------
# the factored channel
# ---------------------------------------------------------------------------


def factored_channel(spec: ExtremalSpec) -> ChoiMatrix:
    """Compose sampling, irrep channels and reverse sampling; return the Choi.

    This is the executable form of the factorization theorem.  Every stage
    is a Kraus map: Schur sampling on the m inputs (A_i, path i's rows of
    sector lam of ``schur_transform(m, 0, d)``), the embed-trace irrep
    channel lam -> mu (K_h, slices of ``_embed_trace_tensor`` times psi)
    and mixed reverse sampling on the n outputs
    (C_j = R_(mu,j)^dag / sqrt(p_mu)).  Stages of different sectors compose
    to zero, so only the products C_j K_h A_i of matching sectors are
    formed.  The Choi matrix is V V^dag with one vectorized product per
    column of V, one GEMM.  The result agrees with extremal_choi(spec) to
    numerical precision.
    """
    Sm = schur_transform(spec.m, 0, spec.d)
    Sn = schur_transform(spec.n, 0, spec.d)
    ops = []
    for lam, s in Sm.sectors.items():
        t = spec.triple(lam)
        mu_sector = Sn.sectors[t.mu]
        C = mu_sector.rows.conj() / np.sqrt(mu_sector.p_dim)
        iota = np.tensordot(_embed_trace_tensor(lam, t.mu, t.gamma), t.psi, 1)
        K = iota.reshape(C.shape[1], -1, s.q_dim).transpose(1, 0, 2)  # K[h] = K_h
        KA = np.matmul(K[:, None], s.rows)  # (h, i, q_mu, in)
        # row (j, h, i) is (C_j K_h A_i)^T flattened, indexed (in, out)
        ops.append(np.einsum("jby,hibx->jhixy", C, KA).reshape(-1, Sm.dim * Sn.dim))
    W = np.concatenate(ops)  # V^T
    return ChoiMatrix(W.T @ W.conj(), spec.m, spec.n, spec.d)
