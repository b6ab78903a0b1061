"""Schur and Clebsch-Gordan transforms as dense block isometries.

The simple CG transform decomposes (irrep) (x) C^d by spectral projection
of the split Casimir; iterating it over all GT paths yields the (mixed)
Schur transform, whose permutation-register basis is indexed by paths.  The
general CG transform decomposes a product of two arbitrary irreps, locating
each isotypic component through its highest-weight space; the multiplicity
basis is the deterministic orthonormalization of that space.

All block maps land in the canonical realization coordinates of their
label, with the sign of each block fixed by its first sizable entry, so
transforms built along different routes agree exactly and not just up to
convention.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from equichan.gtpaths import GtPath
from equichan.limits import check_dense
from equichan.realize import (
    CONSTRUCTION_TOL,
    IrrepRealization,
    RANK_TOL,
    _block_columns,
    _extend_step,
    _residual,
    _step_generators,
    _step_targets,
    ambient_weights,
    apply_recipe,
    canonical_realization,
    intertwiner,
    krylov_recipe,
    lead_phase,
)
from equichan.staircases import (
    Staircase,
    dim_gl_irrep,
    empty_staircase,
    lr_coeff,
)


def vec(matrix: np.ndarray) -> np.ndarray:
    """Row-major vectorization: vec(M) = sum_ij M_ij |i>(x)|j>."""
    return np.asarray(matrix).reshape(-1)


def unvec(vector: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Inverse of vec for the given (rows, cols)."""
    vector = np.asarray(vector)
    if vector.size != dims[0] * dims[1]:
        raise ValueError(f"cannot reshape length {vector.size} into {dims}")
    return vector.reshape(dims)


def permutation_operator(sigma: tuple[int, ...], m: int, d: int) -> np.ndarray:
    """Permutation of m tensor factors.

    ``sigma`` is one-line notation on range(m): output site k carries the
    input content of site sigma^{-1}(k).
    """
    if sorted(sigma) != list(range(m)):
        raise ValueError(f"not a permutation of range({m}): {sigma}")
    dim = d**m
    idx = np.arange(dim)
    digits = np.stack([(idx // d ** (m - 1 - k)) % d for k in range(m)])
    inv = [0] * m
    for k, v in enumerate(sigma):
        inv[v] = k
    new_idx = sum(digits[inv[k]] * d ** (m - 1 - k) for k in range(m))
    P = np.zeros((dim, dim))
    P[new_idx, idx] = 1.0
    return P


@dataclass(frozen=True)
class Block:
    """One target block of a block isometry."""

    label: Staircase
    mult: int
    offset: int
    size: int


@dataclass
class BlockIsometry:
    """Dense isometry with an indexed block layout on its rows."""

    matrix: np.ndarray
    blocks: list[Block]

    @property
    def source_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def target_dim(self) -> int:
        return self.matrix.shape[0]

    def labels(self) -> list[Staircase]:
        seen = []
        for b in self.blocks:
            if b.label not in seen:
                seen.append(b.label)
        return seen

    def block(self, label: Staircase, mult: int = 0) -> Block:
        for b in self.blocks:
            if b.label == label and b.mult == mult:
                return b
        raise KeyError(f"no block ({label}, {mult})")

    def block_rows(self, label: Staircase, mult: int = 0) -> np.ndarray:
        b = self.block(label, mult)
        return self.matrix[b.offset : b.offset + b.size, :]

    def multiplicity(self, label: Staircase) -> int:
        return sum(1 for b in self.blocks if b.label == label)

    def validate(self) -> None:
        got = self.matrix.conj().T @ self.matrix
        if not np.linalg.norm(got - np.eye(self.source_dim)) < CONSTRUCTION_TOL:
            raise ValueError("not an isometry")
        covered = sorted((b.offset, b.size) for b in self.blocks)
        pos = 0
        for off, size in covered:
            if off != pos:
                raise ValueError("blocks do not tile the rows")
            pos += size
        if pos != self.target_dim:
            raise ValueError("blocks do not cover the rows")


@functools.cache
def simple_cg(label: Staircase, dual: bool, /) -> BlockIsometry:
    """Decompose Q_label (x) C^d (or (x) conj C^d) into single-box blocks.

    ``label`` is a staircase; the source irrep is its canonical realization.
    Blocks are separated by the split Casimir, whose eigenvalues for
    single-box moves are distinct integers, and each block is rotated onto
    the canonical realization of its label by the unique intertwiner.
    Block order follows add_boxes/remove_boxes order.  Memoised per
    (label, dual); both arguments are positional so every call shares one
    cache entry.
    """
    nu = canonical_realization(label)
    d = nu.d
    q = nu.dim
    evals, evecs = _extend_step(nu.generators, d, dual)
    rows = []
    blocks = []
    offset = 0
    for s, eig in _step_targets(label, dual):
        C = _block_columns(evals, evecs, eig)
        qs = dim_gl_irrep(s)
        if C.shape[1] != qs:
            raise RuntimeError(f"Casimir block for {s} has wrong dimension")
        target = canonical_realization(s)
        H = _step_generators(nu.generators, d, dual, C)
        T = intertwiner(H, target.generators, d)
        block_map = T @ C.conj().T
        rows.append(block_map * lead_phase(block_map))
        blocks.append(Block(s, 0, offset, qs))
        offset += qs
    iso = BlockIsometry(np.concatenate(rows, axis=0), blocks)
    if iso.target_dim != q * d:
        raise RuntimeError("CG blocks do not exhaust Q (x) C^d")
    iso.validate()
    iso.matrix.flags.writeable = False
    return iso


@dataclass(frozen=True)
class PathSector:
    """One isotypic sector of an iterated CG transform.

    Rows are path-major: path p of the sector's path list occupies rows
    [offset + p*q_dim, offset + (p+1)*q_dim).
    """

    label: Staircase
    offset: int
    q_dim: int
    paths: tuple[GtPath, ...]

    @property
    def p_dim(self) -> int:
        return len(self.paths)

    @property
    def size(self) -> int:
        return self.p_dim * self.q_dim

    @functools.cached_property
    def row_index(self) -> Mapping[tuple[int, ...], int]:
        """Index in ``paths`` of the path with each row sequence (read-only)."""
        return MappingProxyType({p.row_sequence(): i for i, p in enumerate(self.paths)})


@dataclass(frozen=True)
class WeightBlock:
    """The rows and columns of a path transform that carry one torus weight.

    ``matrix`` is the square block ``transform.matrix[rows][:, cols]``;
    all three arrays are read-only.
    """

    weight: tuple[int, ...]
    rows: np.ndarray
    cols: np.ndarray
    matrix: np.ndarray


@dataclass
class PathTransform:
    """Unitary decomposing Q_mu (x) sites into path (x) irrep sectors.

    Every row is a GT basis vector and so a weight vector of the torus: it
    is supported on the columns of its own weight, and the matrix is block
    diagonal by weight up to a permutation of rows and columns
    (``weight_blocks``).
    """

    base: Staircase
    flags: tuple[bool, ...]
    matrix: np.ndarray
    sectors: list[PathSector]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def sector(self, label: Staircase) -> PathSector:
        for s in self.sectors:
            if s.label == label:
                return s
        raise KeyError(f"no sector {label}")

    def sector_rows(self, label: Staircase) -> np.ndarray:
        s = self.sector(label)
        return self.matrix[s.offset : s.offset + s.size, :]

    def path_rows(self, label: Staircase, path_index: int) -> np.ndarray:
        s = self.sector(label)
        start = s.offset + path_index * s.q_dim
        return self.matrix[start : start + s.q_dim, :]

    @functools.cached_property
    def weight_blocks(self) -> tuple[WeightBlock, ...]:
        """The square diagonal blocks of the matrix per torus weight (read-only).

        A row of sector gamma carries the weight of its basis vector in
        ``canonical_realization(gamma)``; a column carries the weight of its
        base basis vector plus ``ambient_weights`` of its sites.  Classes
        are in ascending lexicographic order of weight.  Raises RuntimeError
        if the entries outside the blocks have norm above CONSTRUCTION_TOL;
        the transform being unitary, every block is then square.
        """
        d = self.base.d
        row_w = np.concatenate(
            [
                np.tile(canonical_realization(s.label).weights, (s.p_dim, 1))
                for s in self.sectors
            ]
        )
        base_w = canonical_realization(self.base).weights
        site_w = ambient_weights(d, self.flags)
        col_w = (base_w[:, None, :] + site_w[None, :, :]).reshape(-1, d)
        weights, cls = np.unique(
            np.concatenate([row_w, col_w]), axis=0, return_inverse=True
        )
        row_class, col_class = cls[: self.dim], cls[self.dim :]
        leak = np.linalg.norm(self.matrix[row_class[:, None] != col_class[None, :]])
        if leak > CONSTRUCTION_TOL:
            raise RuntimeError(f"transform has mass {leak:.2e} outside its weight blocks")
        blocks = []
        for c, wt in enumerate(weights):
            rows = np.flatnonzero(row_class == c)
            cols = np.flatnonzero(col_class == c)
            block = self.matrix[np.ix_(rows, cols)]
            for arr in (rows, cols, block):
                arr.flags.writeable = False
            blocks.append(WeightBlock(tuple(int(x) for x in wt), rows, cols, block))
        return tuple(blocks)


def iterated_cg(mu: Staircase, flags: Sequence[bool]) -> PathTransform:
    """Iterate simple (dual) CG transforms over every GT path from mu.

    ``flags`` lists the site kinds in order (False = defining factor,
    True = conjugate factor).  The result is a unitary on
    Q_mu (x) C^d^(x k) (x) conj C^d^(x l) whose rows are grouped by final
    label, path-major within each sector.  The dense cap is checked on
    every call, the transform itself is memoised per (mu, tuple(flags)).
    """
    check_dense(dim_gl_irrep(mu) * mu.d ** len(flags))
    return _iterated_cg(mu, tuple(flags))


@functools.cache
def _iterated_cg(mu: Staircase, flags: tuple[bool, ...]) -> PathTransform:
    d = mu.d
    q0 = dim_gl_irrep(mu)
    # running blocks: (path steps, current label, row offset, q)
    U = np.eye(q0)
    running: list[tuple[tuple[Staircase, ...], Staircase, int, int]] = [
        ((mu,), mu, 0, q0)
    ]
    for t, dual in enumerate(flags):
        # the simple CG of each block acts on the (q*d) leg of its rows
        # U_b (x) 1: column (b, y) of the CG matrix meets row b of U_b on
        # site value y
        D = U.shape[1]
        newU = np.zeros((U.shape[0] * d, D * d))
        new_running = []
        offset = 0
        for steps, label, off, q in running:
            cg = simple_cg(label, dual)
            cg_rows = cg.matrix.reshape(q * d, q, d).transpose(0, 2, 1).reshape(q * d * d, q)
            chunk = (cg_rows @ U[off : off + q, :]).reshape(q * d, d, D)
            newU[offset : offset + q * d, :] = chunk.transpose(0, 2, 1).reshape(q * d, D * d)
            for b in cg.blocks:
                new_running.append(
                    (steps + (b.label,), b.label, offset + b.offset, b.size)
                )
            offset += q * d
        U = newU
        running = new_running
    k = sum(1 for f in flags if not f)
    l = len(flags) - k
    by_label: dict[Staircase, list[tuple[tuple[Staircase, ...], int, int]]] = {}
    for steps, label, off, q in running:
        by_label.setdefault(label, []).append((steps, off, q))
    order = sorted(by_label, key=lambda s: s.entries, reverse=True)
    final = np.zeros_like(U)
    sectors = []
    offset = 0
    for label in order:
        entries = by_label[label]
        qdim = entries[0][2]
        paths = []
        sector_offset = offset
        for steps, off, q in entries:  # DFS order = lexicographic path order
            final[offset : offset + q, :] = U[off : off + q, :]
            paths.append(GtPath(steps, k, l))
            offset += q
        sectors.append(PathSector(label, sector_offset, qdim, tuple(paths)))
    final.flags.writeable = False
    return PathTransform(mu, flags, final, sectors)


def schur_transform(m: int, n: int, d: int) -> PathTransform:
    """Mixed Schur transform on m defining and n conjugate factors of C^d.

    Unitary with block layout (paths to gamma) (x) Q_gamma over all
    staircases gamma reachable with m additions then n removals; built by
    iterating the simple CG transform m times and its dual n times.
    """
    if m < 0 or n < 0 or d < 1:
        raise ValueError("need m, n >= 0 and d >= 1")
    return iterated_cg(empty_staircase(d), (False,) * m + (True,) * n)


# ---------------------------------------------------------------------------
# general Clebsch-Gordan transform
# ---------------------------------------------------------------------------


def _product_generators(a: IrrepRealization, b: IrrepRealization) -> np.ndarray:
    """E_ij on Q_a (x) Q_b by Leibniz, each term broadcast onto its own leg."""
    d = a.d
    qa, qb = a.dim, b.dim
    out = np.zeros((d, d, qa, qb, qa, qb))
    for v in range(qb):
        out[:, :, :, v, :, v] += a.generators
    for u in range(qa):
        out[:, :, u, :, u, :] += b.generators
    return out.reshape(d, d, qa * qb, qa * qb)


def _highest_weight_space(
    gens: np.ndarray, weight_index: np.ndarray, wt: tuple[int, ...], d: int
) -> np.ndarray:
    """Orthonormal basis (columns) of the highest-weight space of weight wt.

    Deterministic: Gram-Schmidt of the null-space projections of the weight
    block's standard basis vectors, in index order, each projected against
    all accepted columns at once.
    """
    S = np.nonzero([tuple(w) == wt for w in weight_index])[0]
    if len(S) == 0:
        return np.zeros((gens.shape[2], 0))
    raisers = [gens[i, i + 1][:, S] for i in range(d - 1)]
    M = np.concatenate(raisers, axis=0) if raisers else np.zeros((0, len(S)))
    if M.shape[0] == 0:
        null = np.eye(len(S))
    else:
        u, s, vh = np.linalg.svd(M)
        rank = int(np.sum(s > RANK_TOL * max(1.0, s[0] if len(s) else 1.0)))
        null = vh[rank:].conj().T  # (|S|, c)
    c = null.shape[1]
    if c == 0:
        return np.zeros((gens.shape[2], 0))
    P = null @ null.conj().T
    block = np.zeros((len(S), c), dtype=P.dtype)
    found = 0
    for kpos in range(len(S)):
        u_vec = _residual(block[:, :found], P[:, kpos])
        nrm = np.linalg.norm(u_vec)
        if nrm > RANK_TOL:
            block[:, found] = u_vec / nrm
            found += 1
            if found == c:
                break
    if found != c:
        raise RuntimeError(f"found {found} of {c} highest-weight vectors")
    out = np.zeros((gens.shape[2], c))
    out[S, :] = block
    return out


@functools.cache
def general_cg(a_label: Staircase, b_label: Staircase, /) -> BlockIsometry:
    """Decompose Q_a (x) Q_b into irreps with multiplicity.

    ``a_label`` and ``b_label`` are staircases over the same d; the factors
    are their canonical realizations, and the result is memoised per label
    pair.  Each isotypic component is located through its highest-weight
    space; copy j of label gamma is spanned by applying one shared lowering recipe
    to the j-th canonical highest-weight vector, so the multiplicity slots
    of all copies correspond exactly.  Block dimensions are checked against
    the Littlewood-Richardson coefficients.
    """
    if a_label.d != b_label.d:
        raise ValueError(f"labels live over different d: {a_label}, {b_label}")
    a = canonical_realization(a_label)
    b = canonical_realization(b_label)
    d = a.d
    Q = a.dim * b.dim
    gens = _product_generators(a, b)
    weight_index = [
        tuple(a.weights[u] + b.weights[v]) for u in range(a.dim) for v in range(b.dim)
    ]
    dominant = sorted(
        {w for w in weight_index if all(x >= y for x, y in zip(w, w[1:]))},
        reverse=True,
    )
    rows = []
    blocks = []
    offset = 0
    for wt in dominant:
        hw = _highest_weight_space(gens, weight_index, wt, d)
        c = hw.shape[1]
        label = Staircase(wt)
        expected = lr_coeff(a_label, b_label, label)
        if c != expected:
            raise RuntimeError(
                f"multiplicity mismatch for {label}: highest-weight space has "
                f"dim {c}, LR coefficient is {expected}"
            )
        if c == 0:
            continue
        qdim = dim_gl_irrep(label)
        target = canonical_realization(label)
        recipe, B0 = krylov_recipe(gens, hw[:, 0], qdim, d)
        H = B0.conj().T @ gens @ B0
        T = intertwiner(H, target.generators, d)
        T = T * lead_phase(T @ B0.conj().T)
        for j in range(c):
            Bj = B0 if j == 0 else apply_recipe(gens, hw[:, j], recipe)
            if np.linalg.norm(Bj.conj().T @ Bj - np.eye(qdim)) >= 1e-9:
                raise RuntimeError("copy basis failed to mirror")
            rows.append(T @ Bj.conj().T)
            blocks.append(Block(label, j, offset, qdim))
            offset += qdim
    iso = BlockIsometry(np.concatenate(rows, axis=0), blocks)
    if iso.target_dim != Q:
        raise RuntimeError("isotypic blocks do not exhaust the product space")
    iso.validate()
    iso.matrix.flags.writeable = False
    return iso
