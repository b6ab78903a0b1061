"""Concrete realizations of SU(d) irreps in their Gelfand-Tsetlin bases.

The irrep labelled by a staircase gamma is realized on its Gelfand-Tsetlin
(GT) patterns, where the generators E_ij act by closed-form coefficients
(Gelfand-Tsetlin 1950; Molev, *Gelfand-Tsetlin bases for classical Lie
algebras*, 2006).  The split-Casimir helpers serve ``transforms.simple_cg``:
on (irrep) (x) C^d, Omega = sum_ij E_ij (x) E_ji separates the single-box
blocks, because its eigenvalue on a block is the content of the added box
(or minus content minus d for a removed one), pairwise distinct integers.

The gl(d) generators E_ij act on C^d as matrix units, on the conjugate
factor as -E_ji, and on tensor products by the Leibniz rule.  All matrices
in this module are real; complex numbers appear only downstream.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from equichan.gtpaths import GtPath
from equichan.staircases import (
    Staircase,
    add_boxes,
    dim_gl_irrep,
    empty_staircase,
    remove_boxes,
)

CONSTRUCTION_TOL = 1e-10
RANK_TOL = 1e-8


def ambient_weights(d: int, factors: tuple[bool, ...]) -> np.ndarray:
    """Integer weight vector of every product-basis index, shape (d^#factors, d)."""
    nfac = len(factors)
    dim = d**nfac
    out = np.zeros((dim, d), dtype=int)
    idx = np.arange(dim)
    for pos, dual in enumerate(factors):
        digit = (idx // d ** (nfac - pos - 1)) % d
        sign = -1 if dual else 1
        for value in range(d):
            out[digit == value, value] += sign
    return out


def _check_generators(G: np.ndarray) -> None:
    """Raise ValueError unless the stack G (d, d, q, q) has diagonal E_ii and
    satisfies the gl(d) relations, both to CONSTRUCTION_TOL."""
    d = G.shape[0]
    for i in range(d):
        offdiag = G[i, i] - np.diag(np.diag(G[i, i]))
        if not np.linalg.norm(offdiag) < CONSTRUCTION_TOL:
            raise ValueError("Cartan not diagonal")
    # [E_ij, E_kl] = delta_jk E_il - delta_il E_kj, one broadcast
    # matmul per (i, j) over the whole (k, l) stack
    for i in range(d):
        for j in range(d):
            defect = G[i, j] @ G - G @ G[i, j]
            defect[j] -= G[i]
            defect[:, i] += G[:, j]
            norms = np.linalg.norm(defect.reshape(d * d, -1), axis=1)
            if not (norms < CONSTRUCTION_TOL).all():
                raise ValueError("bad commutator")


@dataclass(frozen=True)
class IrrepRealization:
    """An SU(d) irrep in its Gelfand-Tsetlin basis, with its tensor embedding.

    ``generators`` holds the d*d matrices of E_ij in the GT basis, shape
    (d, d, q, q); ``weights`` the integer weight of each basis vector.  The
    basis diagonalizes all E_ii, is real, and is ordered by weight,
    lexicographically descending, highest weight first.  ``factors`` lists
    the sites of the embedding (False = C^d, True = conj C^d).
    """

    label: Staircase
    factors: tuple[bool, ...]
    generators: np.ndarray
    weights: np.ndarray

    @property
    def d(self) -> int:
        return self.label.d

    @property
    def dim(self) -> int:
        return self.generators.shape[2]

    @functools.cached_property
    def embedding(self) -> np.ndarray:
        """Isometry from the irrep into the tensor space of ``factors``: the
        GT-path isometry of ``canonical_path(label)`` (read-only)."""
        # built on first access, never by canonical_realization: simple_cg of
        # the label before gamma needs canonical_realization(gamma)
        from equichan.transforms import _path_isometry

        g = self.label
        V = _path_isometry(GtPath(tuple(canonical_path(g)), g.pos_size, g.neg_size))
        V.flags.writeable = False
        return V

    def validate(self) -> None:
        V = self.embedding
        if not np.linalg.norm(V.conj().T @ V - np.eye(self.dim)) < CONSTRUCTION_TOL:
            raise ValueError("not an isometry")
        _check_generators(self.generators)


def _restricted_casimir(gens: np.ndarray, d: int, dual: bool) -> np.ndarray:
    """Split Casimir on (current irrep) (x) C^d in restricted coordinates.

    sum_ij G_ij (x) s_ji is a transpose of the legs of the generator stack:
    entry ((a, x), (b, y)) is G_yx[a, b] on a defining site and -G_xy[a, b]
    on a conjugate one, each a single term.
    """
    q = gens.shape[2]
    if dual:
        return -gens.transpose(2, 0, 3, 1).reshape(q * d, q * d)
    return gens.transpose(2, 1, 3, 0).reshape(q * d, q * d)


def _step_targets(nu: Staircase, dual: bool) -> list[tuple[Staircase, int]]:
    """Single-box moves from nu with their split-Casimir eigenvalues.

    Adding a box in row r (0-based) has eigenvalue nu_r - r (the content of
    the new box); removing one has eigenvalue -(nu_r - 1 - r) - d.
    """
    out = []
    if not dual:
        for s in add_boxes(nu):
            r = next(i for i in range(nu.d) if s.entries[i] != nu.entries[i])
            out.append((s, nu.entries[r] - r))
    else:
        for s in remove_boxes(nu):
            r = next(i for i in range(nu.d) if s.entries[i] != nu.entries[i])
            out.append((s, -(nu.entries[r] - 1 - r) - nu.d))
    eigs = [e for _, e in out]
    if len(set(eigs)) != len(eigs):
        raise RuntimeError(f"split-Casimir eigenvalues of {nu} are not distinct: {eigs}")
    if any(abs(a - b) < 1 for a in eigs for b in eigs if a != b):
        raise RuntimeError(f"split-Casimir eigenvalues of {nu} are not separated: {eigs}")
    return out


def lead_phase(M: np.ndarray) -> complex:
    """|p| / p for p the first entry of M (row-major) of modulus > 1e-8, or
    1 if there is none: the factor that makes that entry real positive.
    """
    flat = M.reshape(-1)
    pivot = flat[np.argmax(np.abs(flat) > 1e-8)]
    if abs(pivot) <= 1e-8:
        return 1.0
    return abs(pivot) / pivot


def _residual(B: np.ndarray, u: np.ndarray) -> np.ndarray:
    """u less its projection on the orthonormal columns of B, in two passes.

    One pass u - B (B^dag u) leaves about eps / |residual| of u along B; the
    second brings that down to rounding.
    """
    u = u - B @ (B.conj().T @ u)
    return u - B @ (B.conj().T @ u)


def _step_generators(gens: np.ndarray, d: int, dual: bool, C: np.ndarray) -> np.ndarray:
    """Generators restricted to the selected block of (irrep) (x) C^d.

    C^T (G_ij (x) 1 + 1 (x) s_ij) C in two parts: one GEMM applies all d^2
    generators to the irrep leg of C, and the site leg gives the products
    C_i^T C_j of the row slices C_i = C[(., i), :], negated and with i, j
    swapped on a conjugate site.
    """
    q = gens.shape[2]
    qnew = C.shape[1]
    irrep = (gens.reshape(d * d * q, q) @ C.reshape(q, d * qnew)).reshape(d, d, q * d, qnew)
    rows = C.reshape(q, d, qnew).transpose(1, 2, 0).reshape(d * qnew, q)
    site = (rows @ C.reshape(q, d * qnew)).reshape(d, qnew, d, qnew).transpose(0, 2, 1, 3)
    if dual:
        site = -site.transpose(1, 0, 2, 3)
    return C.T @ irrep + site


def canonical_path(gamma: Staircase) -> list[Staircase]:
    """Deterministic GT path from the empty staircase to gamma.

    Boxes of the positive part are added row by row, top to bottom; then
    boxes are removed choosing at each step the smallest row index that
    keeps the sequence weakly decreasing.
    """
    d = gamma.d
    path = [empty_staircase(d)]
    for row in range(d):
        for _ in range(max(gamma.entries[row], 0)):
            path.append(path[-1].bump(row, +1))
    cur = path[-1]
    while cur != gamma:
        for row in range(d):
            if cur.entries[row] <= gamma.entries[row]:
                continue
            if row == d - 1 or cur.entries[row] - 1 >= cur.entries[row + 1]:
                cur = cur.bump(row, -1)
                path.append(cur)
                break
        else:  # pragma: no cover - unreachable by construction
            raise RuntimeError(f"stuck while descending to {gamma}")
    return path


def gt_patterns(gamma: Staircase) -> list[tuple[tuple[int, ...], ...]]:
    """The GT patterns of gamma, rows from level d (gamma) down to level 1,
    sorted by (weight, pattern), both descending.

    Row k - 1 interlaces row k: lambda_{k,i} >= lambda_{k-1,i} >=
    lambda_{k,i+1}.  Entry k of a pattern's weight is the sum of row k
    minus the sum of row k - 1.
    """
    patterns = [(gamma.entries,)]
    for _ in range(gamma.d - 1):
        patterns = [
            pat + (low,)
            for pat in patterns
            for low in itertools.product(*map(range, pat[-1][1:], [x + 1 for x in pat[-1]]))
        ]
    return sorted(patterns, key=lambda pat: (_pattern_weight(pat), pat), reverse=True)


def _pattern_weight(pattern: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    sums = [0] + [sum(row) for row in reversed(pattern)]
    return tuple(b - a for a, b in zip(sums, sums[1:]))


def _raising_coefficient(pattern: tuple[tuple[int, ...], ...], k: int, i: int) -> float:
    """<pattern + delta_{k,i}| E_{k,k+1} |pattern> for 0-based level k.

    With l_{k,i} = lambda_{k,i} - i, the square root of
    -prod_j (l_{k,i} - l_{k+1,j}) prod_j (l_{k,i} - l_{k-1,j} + 1)
    / prod_{j != i} (l_{k,i} - l_{k,j}) (l_{k,i} - l_{k,j} + 1).
    """
    # level 0 first, and an empty row after level d - 1 that ls[-1] reads at k = 0
    ls = [[x - j for j, x in enumerate(row)] for row in reversed(pattern)] + [[]]
    li = ls[k][i]
    num = -math.prod(li - x for x in ls[k + 1]) * math.prod(li - x + 1 for x in ls[k - 1])
    den = math.prod((li - x) * (li - x + 1) for j, x in enumerate(ls[k]) if j != i)
    return math.sqrt(num / den)


@functools.cache
def canonical_realization(gamma: Staircase, /) -> IrrepRealization:
    """The irrep labelled by gamma on its GT patterns, in ``gt_patterns`` order.

    E_kk is diagonal with the pattern weights; E_{k,k+1} raises one entry
    of row k by ``_raising_coefficient``; for j > i + 1, E_ij is
    [E_{i,i+1}, E_{i+1,j}]; and E_ji = E_ij^T.  The generators are checked
    against the gl(d) relations.  No eigensolver runs and no embedding is
    built.  Memoised per label.
    """
    d = gamma.d
    patterns = gt_patterns(gamma)
    q = len(patterns)
    if q != dim_gl_irrep(gamma):
        raise RuntimeError(f"{q} GT patterns of {gamma}, expected {dim_gl_irrep(gamma)}")
    index = {pat: a for a, pat in enumerate(patterns)}
    weights = np.array([_pattern_weight(pat) for pat in patterns], dtype=int)
    gens = np.zeros((d, d, q, q))
    for i in range(d):
        gens[i, i] = np.diag(weights[:, i])
    for a, pat in enumerate(patterns):
        for k in range(d - 1):
            for i in range(k + 1):
                raised = list(map(list, pat))
                raised[d - 1 - k][i] += 1
                b = index.get(tuple(map(tuple, raised)))
                if b is not None:
                    gens[k, k + 1, b, a] = _raising_coefficient(pat, k, i)
    for gap in range(1, d):
        for i in range(d - gap):
            j = i + gap
            if gap > 1:
                gens[i, j] = gens[i, i + 1] @ gens[i + 1, j] - gens[i + 1, j] @ gens[i, i + 1]
            gens[j, i] = gens[i, j].T
    _check_generators(gens)
    for arr in (gens, weights):
        arr.flags.writeable = False
    factors = (False,) * gamma.pos_size + (True,) * gamma.neg_size
    return IrrepRealization(gamma, factors, gens, weights)


def _simple_generators(d: int) -> list[tuple[int, int]]:
    """Index pairs generating gl(d): raising/lowering neighbours plus Cartan."""
    pairs = []
    for i in range(d - 1):
        pairs.append((i, i + 1))
        pairs.append((i + 1, i))
    for i in range(d):
        pairs.append((i, i))
    return pairs


def highest_weight_vector(gens: np.ndarray, d: int) -> np.ndarray:
    """The (unique up to phase) joint kernel of the raising operators.

    Raises if the kernel is not one-dimensional, which signals that the
    generator stack does not describe a single irrep copy.
    """
    q = gens.shape[2]
    raisers = [gens[i, i + 1] for i in range(d - 1)]
    if not raisers:
        M = np.zeros((1, q))
    else:
        M = np.concatenate(raisers, axis=0)
    u, s, vh = np.linalg.svd(M)
    tol = RANK_TOL * max(1.0, s[0] if len(s) else 1.0)
    nnull = int(np.sum(s < tol)) + (q - len(s))
    if nnull != 1:
        raise ValueError(f"highest-weight space has dimension {nnull}, expected 1")
    v = vh[-1].conj()
    return v * lead_phase(v)


def krylov_recipe(
    gens: np.ndarray, seed: np.ndarray, qdim: int, d: int
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Lowering words spanning the irrep generated by seed, and their basis.

    recipe[t] = (source index, lowering row i) means
    raw[t+1] = E_{i+1,i} raw[source] normalized, and a raw vector is kept
    only if it leaves a residual off the ones before it.  Returns
    (recipe, basis), basis being ``apply_recipe(gens, seed, recipe)``.  The
    raw-vector norms and Gram matrix depend only on the abstract irrep, so
    replaying the recipe in any other copy yields the mirrored orthonormal
    basis.
    """
    raw = [seed / np.linalg.norm(seed)]
    ortho = np.zeros((len(seed), qdim), dtype=np.result_type(seed, gens))
    ortho[:, 0] = raw[0]
    recipe: list[tuple[int, int]] = []
    src = 0
    while len(raw) < qdim:
        if src >= len(raw):
            raise RuntimeError("Krylov sweep exhausted before reaching irrep dim")
        for i in range(d - 1):
            cand = gens[i + 1, i] @ raw[src]
            nrm = np.linalg.norm(cand)
            if nrm < RANK_TOL:
                continue
            cand = cand / nrm
            resid = _residual(ortho[:, : len(raw)], cand)
            if np.linalg.norm(resid) > RANK_TOL:
                ortho[:, len(raw)] = resid / np.linalg.norm(resid)
                raw.append(cand)
                recipe.append((src, i))
                if len(raw) == qdim:
                    break
        src += 1
    return recipe, ortho


def apply_recipe(
    gens: np.ndarray, seed: np.ndarray, recipe: list[tuple[int, int]]
) -> np.ndarray:
    """Replay a lowering recipe from a new seed; returns the orthonormal basis.

    Column t is the two-pass Gram-Schmidt residual (_residual) of raw
    vector t off the columns before it, normalized, so its component along
    raw vector t is positive.  The first column is the normalized seed.
    """
    raw = [seed / np.linalg.norm(seed)]
    basis = np.zeros((len(seed), len(recipe) + 1), dtype=np.result_type(seed, gens))
    basis[:, 0] = raw[0]
    for t, (src, i) in enumerate(recipe, start=1):
        cand = gens[i + 1, i] @ raw[src]
        raw.append(cand / np.linalg.norm(cand))
        resid = _residual(basis[:, :t], raw[t])
        basis[:, t] = resid / np.linalg.norm(resid)
    return basis


def intertwiner(gens_a: np.ndarray, gens_b: np.ndarray, d: int) -> np.ndarray:
    """The unitary intertwiner T with T E_ij^(a) = E_ij^(b) T, up to phase.

    Both generator stacks must realize a single copy of the same irrep.
    The highest-weight vectors are matched and extended along a shared
    lowering recipe, giving mirrored orthonormal bases B_a, B_b in the two
    copies; T = B_b B_a^dag.  The residual of the intertwining relation is
    checked, and a non-unique highest weight raises.
    """
    qa = gens_a.shape[2]
    qb = gens_b.shape[2]
    if qa != qb:
        raise ValueError("dimension mismatch: not the same irrep")
    va = highest_weight_vector(gens_a, d)
    vb = highest_weight_vector(gens_b, d)
    recipe, Ba = krylov_recipe(gens_a, va, qa, d)
    Bb = apply_recipe(gens_b, vb, recipe)
    if np.linalg.norm(Bb.conj().T @ Bb - np.eye(qb)) > 1e-8:
        raise ValueError("second copy failed to mirror: not the same irrep?")
    T = Bb @ Ba.conj().T
    resid = max(
        np.linalg.norm(T @ gens_a[i, j] - gens_b[i, j] @ T)
        for (i, j) in _simple_generators(d)
    )
    if resid > 1e-8:
        raise ValueError(f"intertwining residual {resid:.2e}; labels differ?")
    T = T * lead_phase(T)
    if np.iscomplexobj(T) and np.linalg.norm(T.imag) < CONSTRUCTION_TOL:
        T = T.real
    return T


def dual_generators(gens: np.ndarray) -> np.ndarray:
    """Generators of the dual representation: E_ij -> -(E_ij)^T.

    Matches the conjugate-site action -e_ji used on conj C^d factors.
    """
    return -gens.swapaxes(2, 3)


@functools.cache
def dual_structure(nu: Staircase, /) -> np.ndarray:
    """Real orthogonal Z with Z E_ij^(dual(nu)) = -(E_ji^(nu))^T Z.

    Z identifies the canonical realization of the dual label with the dual
    of the canonical realization of nu; it converts conjugate-transforming
    coordinates into canonical ones and is unique up to sign.
    """
    a = canonical_realization(nu.dual())
    b_gens = dual_generators(canonical_realization(nu).generators)
    Z = intertwiner(a.generators, b_gens, nu.d)
    Z.flags.writeable = False
    return Z
