"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive and separate from the package
implementations: standard tableaux are enumerated by recursion on the last
box, semistandard tableaux and LR fillings by filtering raw assignments.
"""

from __future__ import annotations

import functools
import itertools
from math import factorial

import numpy as np


def syt_count(shape: tuple[int, ...]) -> int:
    """Number of standard Young tableaux, by recursion on removable corners."""
    rows = tuple(r for r in shape if r > 0)
    if sum(rows) == 0:
        return 1
    total = 0
    for i in range(len(rows)):
        if i == len(rows) - 1 or rows[i] > rows[i + 1]:
            smaller = list(rows)
            smaller[i] -= 1
            total += syt_count(tuple(smaller))
    return total


def ssyt_count(shape: tuple[int, ...], d: int) -> int:
    """Number of semistandard Young tableaux with entries in 1..d, brute force."""
    rows = tuple(r for r in shape if r > 0)
    cells = [(i, j) for i, r in enumerate(rows) for j in range(r)]
    if not cells:
        return 1
    count = 0
    for values in itertools.product(range(1, d + 1), repeat=len(cells)):
        t = {c: v for c, v in zip(cells, values)}
        ok = True
        for (i, j), v in t.items():
            if (i, j + 1) in t and t[(i, j + 1)] < v:
                ok = False
                break
            if (i + 1, j) in t and t[(i + 1, j)] <= v:
                ok = False
                break
        if ok:
            count += 1
    return count


def lr_count(lam: tuple[int, ...], mu: tuple[int, ...], gamma: tuple[int, ...]) -> int:
    """LR coefficient for partitions, by filtering raw skew fillings."""
    d = len(gamma)
    lam = tuple(lam) + (0,) * (d - len(lam))
    if any(gamma[i] < lam[i] for i in range(d)):
        return 0
    cells = [(i, j) for i in range(d) for j in range(lam[i], gamma[i])]
    nvals = len([e for e in mu if e > 0])
    if not cells:
        return 1 if nvals == 0 else 0
    count = 0
    for values in itertools.product(range(1, nvals + 1), repeat=len(cells)):
        t = {c: v for c, v in zip(cells, values)}
        content = [0] * (nvals + 1)
        for v in values:
            content[v] += 1
        if tuple(content[1:]) != tuple(mu[:nvals]):
            continue
        ok = True
        for (i, j), v in t.items():
            if (i, j + 1) in t and t[(i, j + 1)] < v:
                ok = False
                break
            if (i + 1, j) in t and t[(i + 1, j)] <= v:
                ok = False
                break
        if not ok:
            continue
        # reverse reading word: rows top to bottom, right to left
        word = []
        for i in range(d):
            for j in range(gamma[i] - 1, lam[i] - 1, -1):
                if (i, j) in t:
                    word.append(t[(i, j)])
        seen = [0] * (nvals + 1)
        for v in word:
            seen[v] += 1
            if v > 1 and seen[v] > seen[v - 1]:
                ok = False
                break
        if ok:
            count += 1
    return count


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A full-rank density matrix A A^dag / tr from a complex Gaussian A."""
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = A @ A.conj().T
    return rho / np.trace(rho)


def permutation_matrix(perm: tuple[int, ...], d: int) -> np.ndarray:
    """Operator permuting tensor factors: site k of the output carries the
    input content of site perm^{-1}(k)."""
    m = len(perm)
    dim = d**m
    idx = np.arange(dim)
    digits = np.stack([(idx // d ** (m - 1 - k)) % d for k in range(m)])
    inv = [0] * m
    for k, v in enumerate(perm):
        inv[v] = k
    new_digits = digits[inv, :]
    new_idx = sum(new_digits[k] * d ** (m - 1 - k) for k in range(m))
    out = np.zeros((dim, dim))
    out[new_idx, idx] = 1.0
    return out


def symmetrize_brute(rho: np.ndarray, m: int, d: int) -> np.ndarray:
    """Average of rho over all m! tensor-factor permutations."""
    acc = np.zeros_like(rho, dtype=complex)
    for perm in itertools.permutations(range(m)):
        P = permutation_matrix(perm, d)
        acc += P @ rho @ P.T
    return acc / factorial(m)


def symmetric_projector(n: int, d: int) -> np.ndarray:
    """Projector onto the symmetric subspace of n qudits."""
    acc = np.zeros((d**n, d**n))
    for perm in itertools.permutations(range(n)):
        acc += permutation_matrix(perm, d)
    return acc / factorial(n)


def werner_cloner(rho: np.ndarray, m: int, n: int, d: int) -> np.ndarray:
    """(d[m]/d[n]) P_sym (rho x 1^(n-m)) P_sym on the symmetric subspace."""
    from math import comb

    dm = comb(m + d - 1, m)
    dn = comb(n + d - 1, n)
    P = symmetric_projector(n, d)
    big = np.kron(rho, np.eye(d ** (n - m)))
    return (dm / dn) * (P @ big @ P)


class CountingRng:
    """Wrapper around a numpy Generator that counts uniform draws."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self.count = 0

    def random(self):
        self.count += 1
        return self._rng.random()


class RowRng:
    """Stand-in for a Generator whose random() returns the entries of one
    row of uniforms in order, counting them."""

    def __init__(self, row: np.ndarray):
        self._draws = iter(row.tolist())
        self.count = 0

    def random(self):
        self.count += 1
        return next(self._draws)


def squashed_walk_row(rows: list[int], draws) -> int:
    """Row the squashed hook walk removes a box from, by explicit loops.

    Equal rows and equal columns of the diagram are contracted into cells
    (k, l) standing for v(k) x w(l) rectangles.  The start cell is drawn
    with weight v(k)w(l); each move goes right with weight w(l') or down
    with weight v(k'), right options first, until a cell on the
    anti-diagonal; ``draws`` yields one uniform number per decision, each
    turned into an index by a linear inverse-CDF scan over the weights.
    Returns the 0-based index of the last original row of the final
    cell's row group.
    """

    def pick(weights, u):
        target = u * sum(weights)
        acc = 0
        for idx, w in enumerate(weights):
            acc += w
            if target < acc:
                return idx
        return len(weights) - 1

    nu, v, last_row = [], [], []
    for i, r in enumerate(rows):
        if nu and r == nu[-1]:
            v[-1] += 1
            last_row[-1] = i
        else:
            nu.append(r)
            v.append(1)
            last_row.append(i)
    widths = sorted(set(nu))
    w = [widths[0]] + [b - a for a, b in zip(widths, widths[1:])]
    K = len(nu)
    cells = [(k, l) for k in range(K) for l in range(K - k)]
    k, l = cells[pick([v[k] * w[l] for k, l in cells], next(draws))]
    while True:
        right = [(k, ll) for ll in range(l + 1, K - k)]
        below = [(kk, l) for kk in range(k + 1, K - l)]
        if not right and not below:
            return last_row[k]
        weights = [w[ll] for _, ll in right] + [v[kk] for kk, _ in below]
        k, l = (right + below)[pick(weights, next(draws))]


def absorb_kron(rho: np.ndarray, m: int, d: int, first_label, cg_of):
    """Absorption of m input sites by the dense operator C (x) 1 per step.

    ``cg_of(label)`` gives the one-site CG isometry of a label: ``.matrix``
    and ``.blocks``, which maps each target label to the view of its rows,
    shaped (1, size, columns); the views follow each other down the rows
    in dict order, so the oracle reads only their sizes.  At step t every
    block state sigma_nu is conjugated by kron(C, eye(d^(m-t))) and cut
    into its diagonal blocks, summed per label.  Returns the final block states, the steps as
    (op, registers, live dimension) tuples and the ledger counts, each
    derived from the blocks reached: the label register after t-1 sites
    holds the largest irrep dimension among them.
    """
    sigma = {first_label: rho.astype(complex)}
    steps = [("absorb", ("Q", "in:1"), d)]
    counts = {"num_simple_cg": 0, "peak_live_dim": d, "r": 1}
    for t in range(2, m + 1):
        rest = d ** (m - t)
        live = max(blk.shape[0] for blk in sigma.values()) // d ** (m - t + 1) * d
        steps.append(("absorb", ("Q", f"in:{t}", "label"), live))
        counts["peak_live_dim"] = max(counts["peak_live_dim"], live)
        counts["num_simple_cg"] += 1
        nxt = {}
        for nu, blk in sigma.items():
            cg = cg_of(nu)
            big = np.kron(cg.matrix, np.eye(rest))
            moved = big @ blk @ big.conj().T
            start = 0
            for label, view in cg.blocks.items():
                rows = sum(1 for e in label.entries if e != 0)
                counts["r"] = max(counts["r"], rows)
                stop = start + view.shape[1] * rest
                nxt[label] = nxt.get(label, 0) + moved[start:stop, start:stop]
                start = stop
        sigma = nxt
    return sigma, steps, counts


def embed_trace_base(R: np.ndarray, blk: np.ndarray, q_base: int, d: int) -> np.ndarray:
    """A one-box middle block by the dense route: R^dag blk R, traced over the base.

    ``R`` holds the rows of lam in the one-site CG transform of the base
    (q_lam x q_base * d, base leg first): Q_lam is embedded into
    Q_base (x) C^d, and Q_base is traced, leaving a d x d block.
    """
    moved = R.conj().T @ blk @ R
    return np.einsum("iaib->ab", moved.reshape(q_base, d, q_base, d))


def haar_u(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary in SU(d): phase-fixed QR of a complex Gaussian matrix,
    divided by a d-th root of its determinant (two normal draws of d x d)."""
    if d == 1:
        return np.ones((1, 1), dtype=complex)
    Z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    Q, R = np.linalg.qr(Z)
    Q = Q * (np.diag(R) / np.abs(np.diag(R)))
    return Q / np.linalg.det(Q) ** (1.0 / d)


def symmetry_residuals_kron(C: np.ndarray, m: int, n: int, d: int, trials: int, rng):
    """Covariance residuals of a Choi matrix by dense Kronecker operators.

    For each of ``trials`` Haar draws W = conj U^(x m) (x) U^(x n) is built
    by successive kron calls and the residual is |W C - C W|; for each
    adjacent transposition of the input sites, then of the output sites,
    P = kron(permutation_matrix, eye) and the residual is |P C - C P|.
    """
    unitary = []
    for _ in range(trials):
        U = haar_u(d, rng)
        W = np.eye(1, dtype=complex)
        for _ in range(m):
            W = np.kron(W, U.conj())
        for _ in range(n):
            W = np.kron(W, U)
        unitary.append(float(np.linalg.norm(W @ C - C @ W)))
    perm = []
    for a in range(m - 1):
        swap = list(range(m))
        swap[a], swap[a + 1] = swap[a + 1], swap[a]
        P = np.kron(permutation_matrix(tuple(swap), d), np.eye(d**n))
        perm.append(float(np.linalg.norm(P @ C - C @ P)))
    for a in range(n - 1):
        swap = list(range(n))
        swap[a], swap[a + 1] = swap[a + 1], swap[a]
        P = np.kron(np.eye(d**m), permutation_matrix(tuple(swap), d))
        perm.append(float(np.linalg.norm(P @ C - C @ P)))
    return unitary, perm


def emit_dense(sectors, out_dim: int) -> np.ndarray:
    """Emission as the dense mixture sum_a w_a R_a^dag tau R_a, sector by sector.

    ``sectors`` lists (tau, rows, weights): tau the q x q block state of a
    label, rows the (k, q, out_dim) array of the k emitted paths' rows of
    the Schur transform and weights their k weights.  Each sector is one
    product R^dag (W (x) tau) R with R the k*q stacked rows and W the
    diagonal weight matrix, every factor out_dim wide.
    """
    out = np.zeros((out_dim, out_dim), dtype=complex)
    for tau, rows, weights in sectors:
        R = np.asarray(rows).reshape(-1, out_dim)
        middle = np.kron(np.diag(weights), tau)
        out += R.conj().T @ middle @ R
    return out


def partitions(n: int, rows: int, largest: int | None = None):
    """Partitions of n with at most ``rows`` parts, as descending tuples."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    if rows == 0:
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, rows - 1, first):
            yield (first,) + rest


@functools.cache
def _transposition_spectrum(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """eigh of the sum of the n(n-1)/2 transpositions acting on n qudits."""
    X = np.zeros((d**n, d**n))
    for i, j in itertools.combinations(range(n), 2):
        perm = list(range(n))
        perm[i], perm[j] = j, i
        X += permutation_matrix(tuple(perm), d)
    return np.linalg.eigh(X)


def sampling_variance(exact: np.ndarray, n: int, d: int) -> float:
    """E||X - exact||_F^2 for one sample-mode trajectory X on n output qudits.

    The streamed output is E = sum_mu E_mu over the S_n-isotypic subspaces
    mu of the n output sites, and E_mu is the uniform mixture of the p_mu
    emissions R_a^T tau_mu R_a along the GT paths a into mu.  Distinct
    paths have orthogonal rows, so each emission has squared norm
    ||tau_mu||^2 = p_mu ||E_mu||^2.  One trajectory emits every label along
    one independent uniform path, so its variance is

        sum_mu (p_mu - 1) ||E_mu||_F^2,

    and a T-trajectory average has 1/T of it.  E_mu = P_mu E P_mu with P_mu
    the spectral projector of the transposition sum on its eigenvalue, the
    content sum of mu; p_mu is the number of standard tableaux.  Raises
    ValueError when E has weight on an eigenspace that two partitions share.
    """
    evals, evecs = _transposition_spectrum(n, d)
    by_content: dict[int, list[tuple[int, ...]]] = {}
    for lam in partitions(n, d):
        c = sum(j - i for i, r in enumerate(lam) for j in range(r))
        by_content.setdefault(c, []).append(lam)
    total = 0.0
    for c, lams in by_content.items():
        V = evecs[:, np.abs(evals - c) < 1e-6]
        weight = float(np.linalg.norm(V.T @ exact @ V)) ** 2
        if len(lams) > 1 and weight > 1e-24:
            raise ValueError(f"partitions {lams} share content sum {c} and carry weight")
        total += (syt_count(lams[0]) - 1) * weight
    return total


def site_generator(d: int, i: int, j: int, dual: bool) -> np.ndarray:
    """E_ij on one defining factor (the matrix unit e_ij) or one conjugate
    factor (-e_ji)."""
    out = np.zeros((d, d))
    if dual:
        out[j, i] = -1.0
    else:
        out[i, j] = 1.0
    return out


def ambient_generator(d: int, i: int, j: int, factors: tuple[bool, ...]) -> np.ndarray:
    """E_ij on the full tensor space with the given dual flags, by Leibniz:
    the sum over sites of 1 (x) s_ij (x) 1 by dense kron calls."""
    dim = d ** len(factors)
    out = np.zeros((dim, dim))
    for pos, dual in enumerate(factors):
        left = np.eye(d**pos)
        right = np.eye(d ** (len(factors) - pos - 1))
        out += np.kron(np.kron(left, site_generator(d, i, j, dual)), right)
    return out


def commutant_basis(m: int, n: int, d: int) -> np.ndarray:
    """Orthonormal basis of the Choi matrices on (C^d)^(x m) (x) (C^d)^(x n)
    that commute with conj U^(x m) (x) U^(x n) and with S_m x S_n.

    The null space of sum_G ad_G^dag ad_G on the D^2-dimensional Choi space,
    with G running over every E_ij (-E_ji on each input leg, E_ij on each
    output leg, ``ambient_generator``) and the adjacent transpositions of
    the inputs and of the outputs.  Row-major vec: ad_G = G (x) 1 - 1 (x) G^T.
    Returns shape (dim, D, D), orthonormal in the Hilbert-Schmidt product.
    """
    factors = (True,) * m + (False,) * n
    D = d ** (m + n)
    gens = [ambient_generator(d, i, j, factors) for i in range(d) for j in range(d)]
    for start, count in ((0, m), (m, n)):
        for k in range(start, start + count - 1):
            perm = list(range(m + n))
            perm[k], perm[k + 1] = k + 1, k
            gens.append(permutation_matrix(tuple(perm), d))
    gram = np.zeros((D * D, D * D))
    for G in gens:
        ad = np.kron(G, np.eye(D)) - np.kron(np.eye(D), G.T)
        gram += ad.T @ ad
    evals, evecs = np.linalg.eigh(gram)
    null = evecs[:, evals < 1e-9 * max(1.0, evals[-1])]
    return null.T.reshape(-1, D, D)


def generator_covariance_residual(C: np.ndarray, m: int, n: int, d: int) -> float:
    """max |[C, G]| over G = E_{a,a+1} and E_{a+1,a}, a < d - 1, for a Choi
    matrix C on (C^d)^(x m) (x) (C^d)^(x n).

    G acts by the Leibniz rule, as -X^T on each input leg and as X on each
    output leg, and each term is applied by contracting one tensor leg of
    C: no operator on the whole space is formed.  The E_{a,a+1} and
    E_{a+1,a} generate sl(d) as a Lie algebra, so the residual vanishes
    exactly when C commutes with conj U^(x m) (x) U^(x n) for every U in
    SU(d); it reads nothing about permutations.
    """
    legs = m + n
    T = np.asarray(C).reshape((d,) * (2 * legs))
    worst = 0.0
    for a in range(d - 1):
        for b, c in ((a, a + 1), (a + 1, a)):
            X = np.zeros((d, d))
            X[b, c] = 1.0
            comm = np.zeros(T.shape, dtype=T.dtype)
            for leg in range(legs):
                g = -X.T if leg < m else X
                # G C on row leg `leg`, C G on column leg `legs + leg`
                comm += np.moveaxis(np.tensordot(g, T, axes=(1, leg)), 0, leg)
                comm -= np.moveaxis(np.tensordot(T, g, axes=(legs + leg, 0)), -1, legs + leg)
            worst = max(worst, float(np.abs(comm).max()))
    return worst


def choi_channel_defects(C: np.ndarray, din: int, dout: int) -> tuple[float, float, float]:
    """How far a Choi matrix on in (x) out is from a channel's.

    Returns |Tr_out C - 1_in| (trace preservation), |C - C^dag| and the most
    negative eigenvalue of the Hermitian part, clipped at 0 (positivity).
    """
    red = np.trace(C.reshape(din, dout, din, dout), axis1=1, axis2=3)
    herm = (C + C.conj().T) / 2
    return (
        float(np.linalg.norm(red - np.eye(din))),
        float(np.linalg.norm(C - C.conj().T)),
        max(0.0, -float(np.linalg.eigvalsh(herm).min())),
    )


def embed_trace_ops(Zl: np.ndarray, K0: np.ndarray, Zg: np.ndarray, psi, scale: float):
    """Kraus operators of the embed-trace irrep channel, by two einsums.

    K0[x, y, g, a] is the inverse CG transform restricted to the gamma
    blocks, Zl and Zg the dual-structure intertwiners of lambda and gamma,
    scale = q_lam / q_gamma.  The dual-lambda slot of K0 is rotated to a
    conjugate-lambda slot and its conjugate-gamma slot to a dual-gamma ket,
    psi is contracted into the multiplicity slot, and operator h is the
    slice of the embedding at dual-gamma index h.
    """
    Kp = np.einsum("zx,xyga,hg->zyha", Zl, K0, Zg.conj().T)
    iota = np.sqrt(scale) * np.einsum("zyha,a->yhz", Kp, np.asarray(psi, dtype=complex))
    return [iota[:, h, :] for h in range(iota.shape[1])]


def tensor_power_kron(U: np.ndarray, k: int) -> np.ndarray:
    """U^(x k) by a chain of k np.kron calls."""
    out = np.eye(1, dtype=complex)
    for _ in range(k):
        out = np.kron(out, U)
    return out


def group_element(V: np.ndarray, label, U: np.ndarray) -> np.ndarray:
    """Image of U under a realized irrep: V^dag (U^(x k) (x) conj U^(x l)) V
    for V the irrep's embedding in the sites of ``label``, k = label.pos_size
    defining legs then l = label.neg_size conjugate legs (conj U)."""
    big = np.eye(1, dtype=complex)
    for dual in (False,) * label.pos_size + (True,) * label.neg_size:
        big = np.kron(big, U.conj() if dual else U)
    return V.conj().T @ big @ V


def expm_antihermitian(A: np.ndarray) -> np.ndarray:
    """exp(A) for anti-Hermitian A, from the eigendecomposition of -iA."""
    w, W = np.linalg.eigh(-1j * A)
    return (W * np.exp(1j * w)) @ W.conj().T


def bad_commutators(G: np.ndarray, tol: float) -> list[tuple[int, int, int, int]]:
    """Every (i, j, k, l) whose generator commutator [G_ij, G_kl] is not
    within tol (Frobenius norm) of delta_jk G_il - delta_il G_kj, one
    product pair at a time."""
    d = G.shape[0]
    bad = []
    for i, j, k, l in itertools.product(range(d), repeat=4):
        comm = G[i, j] @ G[k, l] - G[k, l] @ G[i, j]
        expect = (k == j) * G[i, l] - (i == l) * G[k, j]
        if not np.linalg.norm(comm - expect) < tol:
            bad.append((i, j, k, l))
    return bad


def full_generators(real) -> np.ndarray:
    """The (d, d, q, q) stack of every E_ij of a realization: E_kk from its
    weights, E_{k,k+1} its raising operators, E_ij = [E_{i,i+1}, E_{i+1,j}]
    for j > i + 1, and E_ji = E_ij^T."""
    q, d = real.weights.shape
    gens = np.zeros((d, d, q, q))
    for i in range(d):
        gens[i, i] = np.diag(real.weights[:, i])
    for gap in range(1, d):
        for i in range(d - gap):
            j = i + gap
            if gap > 1:
                gens[i, j] = gens[i, i + 1] @ gens[i + 1, j] - gens[i + 1, j] @ gens[i, i + 1]
            else:
                gens[i, j] = real.raising[i]
            gens[j, i] = gens[i, j].T
    return gens
