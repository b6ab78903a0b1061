"""Schur and Clebsch-Gordan transforms as dense block isometries.

The simple CG transform decomposes (irrep) (x) C^d into single-box blocks
in closed form (``realize.box_block``).  ``_path_isometry`` chains the
adjoints of its blocks along one GT path, and ``canonical_embedding`` is
that chain along a label's canonical path; the iterated CG transform, and
with it the (mixed) Schur transform, stacks the transposed isometries of
every path of ``enumerate_paths``, so its permutation-register basis is
indexed by paths.
The general CG transform decomposes a product of two arbitrary irreps by
growing the second factor one box at a time along its canonical path: every
candidate block is a product of simple CG blocks, and a Gram-Schmidt over
the candidates gives the multiplicity basis.  No builder here runs an
eigensolver.

All block maps land in the canonical realization coordinates of their
label, with the sign of each block fixed by its first sizable entry, so
transforms built along different routes agree exactly and not just up to
convention.

Each transform keys its rows by label in one read-only mapping: a
``BlockIsometry`` maps a label to the read-only view of its contiguous
rows, shaped (copies, q, source), and a ``PathTransform`` maps a label to
its ``PathSector``, whose ``rows`` is the view shaped (paths, q, dim).
``_row_slices`` holds the one layout rule, consecutive row slices in
mapping order, and ``_row_views`` freezes an array and cuts it into views
by those slices.  The records themselves are frozen dataclasses, so a
cached transform cannot be edited in place.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from equichan.gtpaths import GtPath, enumerate_paths
from equichan.limits import check_dense
from equichan.realize import (
    CONSTRUCTION_TOL,
    ambient_weights,
    box_block,
    canonical_path,
    canonical_realization,
    check_intertwining,
    dual_generators,
    lead_phase,
)
from equichan.staircases import (
    Staircase,
    add_boxes,
    box_label,
    check_shape,
    dim_gl_irrep,
    empty_staircase,
    lr_coeff,
    remove_boxes,
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


@dataclass(frozen=True, eq=False)
class BlockIsometry:
    """Dense isometry whose rows are keyed by label.

    ``blocks[label]`` is the read-only view of the label's contiguous rows,
    shaped (copies, q_label, source_dim), and the views follow each other
    down the rows in key order.  A label without a key has multiplicity 0.
    """

    matrix: np.ndarray
    blocks: Mapping[Staircase, np.ndarray]

    @property
    def source_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def target_dim(self) -> int:
        return self.matrix.shape[0]

    def validate(self) -> None:
        got = self.matrix.conj().T @ self.matrix
        if not np.linalg.norm(got - np.eye(self.source_dim)) < CONSTRUCTION_TOL:
            raise ValueError("not an isometry")


def _row_slices(shapes: dict) -> dict[object, slice]:
    """The consecutive row slices that ``shapes`` cuts a matrix into: key k
    takes the next prod(shapes[k]) rows, in the order of ``shapes``."""
    slices = {}
    start = 0
    for key, shape in shapes.items():
        stop = start + math.prod(shape)
        slices[key] = slice(start, stop)
        start = stop
    return slices


def _row_views(matrix: np.ndarray, shapes: dict) -> Mapping:
    """Make ``matrix`` read-only and cut its rows into consecutive views.

    The view of key k holds the rows of ``_row_slices(shapes)[k]``, shaped
    (*shapes[k], *matrix.shape[1:]), so a 1-D array is cut as well; every
    view is read-only, as its base is, and so is the mapping.
    """
    matrix.flags.writeable = False
    rest = matrix.shape[1:]
    views = {k: matrix[sl].reshape(*shapes[k], *rest) for k, sl in _row_slices(shapes).items()}
    return MappingProxyType(views)


@functools.cache
def simple_cg(label: Staircase, dual: bool, /) -> BlockIsometry:
    """Decompose Q_label (x) C^d (or (x) conj C^d) into single-box blocks.

    ``label`` is a staircase; the source irrep is its canonical realization.
    A block is ``box_block(label, s)`` for an added box, and for a removed
    one sqrt(q_s / q_label) ``box_block(s, label)`` with its irrep legs
    swapped (the box contracted with its conjugate site); ``lead_phase``
    fixes its sign, and its intertwining relation is checked.  Each label
    has one copy, ``blocks[s]`` shaped (1, q_s, q_label * d), in
    add_boxes/remove_boxes order.  The matrix is real float64 and
    read-only, and the build raises RuntimeError otherwise, so callers may
    apply it in real arithmetic (streamed absorption does).  Memoised per
    (label, dual); both arguments are positional so every call shares one
    cache entry.
    """
    if dual not in (False, True):
        raise TypeError(f"dual must be False or True, not {dual!r}")
    nu = canonical_realization(label)
    d = nu.d
    q = nu.dim
    site = canonical_realization(box_label(d)).simple_generators  # matrix units on C^d
    legs = [nu.simple_generators, dual_generators(site) if dual else site]
    rows = {}
    for s in remove_boxes(label) if dual else add_boxes(label):
        qs = dim_gl_irrep(s)
        if dual:
            W = box_block(s, label).reshape(q, qs, d)
            R = np.sqrt(qs / q) * W.transpose(1, 0, 2).reshape(qs, q * d)
        else:
            R = box_block(label, s)
        R = R * lead_phase(R)
        check_intertwining(R, legs, canonical_realization(s).simple_generators)
        rows[s] = R
    matrix = np.concatenate(list(rows.values()), axis=0)
    if len(matrix) != q * d:
        raise RuntimeError("CG blocks do not exhaust Q (x) C^d")
    if matrix.dtype != np.float64:
        raise RuntimeError(f"simple CG of {label} is {matrix.dtype}, not real")
    iso = BlockIsometry(matrix, _row_views(matrix, {s: (1, len(R)) for s, R in rows.items()}))
    iso.validate()
    return iso


@dataclass(frozen=True, eq=False)
class PathSector:
    """One isotypic sector of an iterated CG transform.

    ``rows`` is the read-only view of the sector's rows of the transform,
    shaped (p_dim, q_dim, dim): ``rows[a]`` are the rows of ``paths[a]``.
    """

    label: Staircase
    paths: tuple[GtPath, ...]
    rows: np.ndarray

    @property
    def p_dim(self) -> int:
        return len(self.paths)

    @property
    def q_dim(self) -> int:
        return self.rows.shape[1]

    @functools.cached_property
    def path_of_key(self) -> np.ndarray:
        """Index in ``paths`` of the path with each key, -1 where no path has it (read-only).

        A path's key reads its row sequence r_0, r_1, ... as the digits of
        sum_j r_j b^j, with b one more than the largest row any path of the
        sector changes.  On a sector whose paths add boxes to the empty
        staircase, as in ``schur_transform(n, 0, d)``, b is the number of
        rows of the label, and the key is the one ``gtpaths._walk_many``
        gives the path.
        """
        rows = np.array([p.row_sequence() for p in self.paths], dtype=np.intp)
        base = int(rows.max(initial=0)) + 1
        keys = rows @ base ** np.arange(rows.shape[1])
        index = np.full(base ** rows.shape[1], -1, dtype=np.intp)
        index[keys] = np.arange(self.p_dim)
        index.flags.writeable = False
        return index


@dataclass(frozen=True, eq=False)
class WeightBlock:
    """The rows and columns of a path transform that carry one torus weight.

    ``matrix`` is the square block ``transform.matrix[rows][:, cols]``;
    all three arrays are read-only.
    """

    weight: tuple[int, ...]
    rows: np.ndarray
    cols: np.ndarray
    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class PathTransform:
    """Unitary decomposing Q_mu (x) sites into path (x) irrep sectors.

    Every row is a GT basis vector and so a weight vector of the torus: it
    is supported on the columns of its own weight, and the matrix is block
    diagonal by weight up to a permutation of rows and columns
    (``weight_blocks``).  ``sectors`` maps each final label to its
    ``PathSector``, in row order: the sectors' views follow each other down
    the rows as ``_row_slices`` lays them out.
    """

    base: Staircase
    flags: tuple[bool, ...]
    matrix: np.ndarray
    sectors: Mapping[Staircase, PathSector]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

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
                for s in self.sectors.values()
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

    @functools.cached_property
    def slots(self) -> Mapping[Staircase, np.ndarray]:
        """A column of each row's own weight class, one-to-one, per sector.

        Row ``wb.rows[i]`` of each weight block wb maps to ``wb.cols[i]``;
        every block is square, so the map is a bijection of the row indices
        onto the column indices.  ``slots[label]`` is the read-only view of
        that map on the sector's rows, shaped (p_dim, q_dim) as its
        ``rows`` are without their column axis.
        """
        slot = np.empty(self.dim, dtype=np.intp)
        for wb in self.weight_blocks:
            slot[wb.rows] = wb.cols
        return _row_views(slot, {label: s.rows.shape[:2] for label, s in self.sectors.items()})


def _emit_steps(path: GtPath) -> list[tuple[Staircase, Staircase, bool]]:
    """Reverse path steps (prev label, next label, dual flag), last step first."""
    steps = []
    for t in range(len(path.steps) - 1, 0, -1):
        prev, nxt = path.steps[t - 1], path.steps[t]
        dual = nxt.size < prev.size
        steps.append((prev, nxt, dual))
    return steps


def _path_isometry(path: GtPath) -> np.ndarray:
    """iota_p: Q_end -> Q_start (x) sites, the chain of the path's inverse CG blocks.

    Each reversed step prev -> nxt applies the adjoint of the rows of nxt in
    ``simple_cg(prev, dual)`` to the irrep leg; the new site is the leg
    just after the irrep, so the sites come out in path order.  The result
    is real, and its transpose is the path's rows in the iterated CG
    transform.
    """
    q_end = dim_gl_irrep(path.end)
    iso = np.eye(q_end)
    for prev, nxt, dual in _emit_steps(path):
        (R,) = simple_cg(prev, dual).blocks[nxt]
        iso = (R.conj().T @ iso.reshape(R.shape[0], -1)).reshape(-1, q_end)
    return iso


def canonical_embedding(label: Staircase) -> np.ndarray:
    """Isometry from the canonical realization of ``label`` into its tensor
    sites, label.pos_size defining then label.neg_size conjugate factors:
    the GT-path isometry of ``canonical_path(label)``.  Real; not memoised."""
    return _path_isometry(GtPath(tuple(canonical_path(label)), label.pos_size, label.neg_size))


def iterated_cg(mu: Staircase, flags: Sequence[bool]) -> PathTransform:
    """Iterate simple (dual) CG transforms over every GT path from mu.

    ``flags`` lists the site kinds in order (False = defining factor,
    True = conjugate factor): k defining sites, then l conjugate sites,
    and any other order raises ValueError.  The result is a unitary on
    Q_mu (x) C^d^(x k) (x) conj C^d^(x l) whose rows are grouped by final
    label, path-major within each sector: the rows of path p are
    ``_path_isometry(p).T``, stacked in ``enumerate_paths(mu, k, l)``
    order.  The dense cap is checked on every call, the transform itself
    is memoised per (mu, tuple(flags)).
    """
    flags = tuple(flags)
    k = flags.count(False)
    if flags != (False,) * k + (True,) * (len(flags) - k):
        raise ValueError(f"flags must list defining sites before conjugate sites, got {flags}")
    check_dense(dim_gl_irrep(mu) * mu.d ** len(flags))
    return _iterated_cg(mu, flags)


@functools.cache
def _iterated_cg(mu: Staircase, flags: tuple[bool, ...]) -> PathTransform:
    k = flags.count(False)
    dim = dim_gl_irrep(mu) * mu.d ** len(flags)
    paths = enumerate_paths(mu, k, len(flags) - k)
    shapes = {label: (len(ps), dim_gl_irrep(label)) for label, ps in paths.items()}
    # filled sector by sector: callers read rows, so the matrix is
    # row-major, where a stack of the transposed isometries would not be
    matrix = np.zeros((dim, dim))
    for label, sl in _row_slices(shapes).items():
        np.concatenate([_path_isometry(p).T for p in paths[label]], out=matrix[sl])
    views = _row_views(matrix, shapes)
    sectors = {label: PathSector(label, tuple(ps), views[label]) for label, ps in paths.items()}
    return PathTransform(mu, flags, matrix, MappingProxyType(sectors))


def schur_transform(m: int, n: int, d: int) -> PathTransform:
    """Mixed Schur transform on m defining and n conjugate factors of C^d.

    Unitary with block layout (paths to gamma) (x) Q_gamma over all
    staircases gamma reachable with m additions then n removals; built by
    iterating the simple CG transform m times and its dual n times.  Bad
    arguments raise as in ``staircases.check_shape``.
    """
    m, n, d = check_shape(m, n, d)
    return iterated_cg(empty_staircase(d), (False,) * m + (True,) * n)


# ---------------------------------------------------------------------------
# general Clebsch-Gordan transform
# ---------------------------------------------------------------------------


@functools.cache
def general_cg(a_label: Staircase, b_label: Staircase, /) -> BlockIsometry:
    """Decompose Q_a (x) Q_b into irreps with multiplicity.

    ``a_label`` and ``b_label`` are staircases over the same d; the factors
    are their canonical realizations, and the result is memoised per label
    pair.  Q_b is grown one box at a time along ``canonical_path(b)``, as
    in the iterated single-box CG steps of Bacon-Chuang-Harrow (PRL 97,
    170502, 2006).  At a step prev -> b' every held copy gamma' of
    Q_a (x) Q_prev, pulled back to Q_a (x) Q_b' through the block of b' in
    ``simple_cg(prev, dual)``, is split by ``simple_cg(gamma', dual)``: each
    candidate so found intertwines Q_a (x) Q_b' into the canonical
    realization of its label.  A two-pass Gram-Schmidt over the candidates,
    held blocks in block order and then simple CG blocks in block order,
    stopped at the Littlewood-Richardson coefficient, gives the copies of
    each label, and ``lead_phase`` fixes the sign of each.  Labels come in
    descending order, copies in the order found; fewer copies than the LR
    coefficient raise RuntimeError.  ``blocks[label]`` holds the copies,
    shaped (copies, q_label, q_a * q_b).  No eigensolver runs.
    """
    if a_label.d != b_label.d:
        raise ValueError(f"labels live over different d: {a_label}, {b_label}")
    d = a_label.d
    qa = dim_gl_irrep(a_label)
    held = {a_label: [np.eye(qa)]}  # the copies of each label in Q_a (x) Q_empty
    path = canonical_path(b_label)
    for prev, nxt in zip(path, path[1:]):
        dual = nxt.size < prev.size
        qp, qn = dim_gl_irrep(prev), dim_gl_irrep(nxt)
        # R^T embeds Q_nxt in Q_prev (x) site
        lift = simple_cg(prev, dual).blocks[nxt][0].T.reshape(qp, d, qn)
        found: dict[Staircase, list[np.ndarray]] = {}
        for label, copies in held.items():
            cg = simple_cg(label, dual)
            for rows in copies:
                # (rows (x) 1_site)(1_a (x) R^T): Q_a (x) Q_nxt -> Q_label (x) site
                Y = np.tensordot(rows.reshape(-1, qa, qp), lift, axes=(2, 0))
                Y = Y.transpose(0, 2, 1, 3).reshape(-1, qa * qn)
                for nu, (R,) in cg.blocks.items():
                    basis = found.setdefault(nu, [])
                    if len(basis) == lr_coeff(a_label, nxt, nu):
                        continue
                    X = R @ Y
                    for _ in range(2):
                        for B in basis:
                            X = X - (np.vdot(B, X) / len(R)) * B
                    norm = np.linalg.norm(X)
                    if norm > 1e-8 * np.sqrt(len(R)):
                        X = X * (np.sqrt(len(R)) / norm)
                        basis.append(X * lead_phase(X))
        for label, basis in found.items():
            c = lr_coeff(a_label, nxt, label)
            if len(basis) < c:
                raise RuntimeError(f"found {len(basis)} of {c} copies of {label}")
        order = sorted(found, key=lambda s: s.entries, reverse=True)
        held = {label: found[label] for label in order if found[label]}
    matrix = np.concatenate([X for copies in held.values() for X in copies])
    if len(matrix) != qa * dim_gl_irrep(b_label):
        raise RuntimeError("isotypic blocks do not exhaust the product space")
    shapes = {label: (len(copies), len(copies[0])) for label, copies in held.items()}
    iso = BlockIsometry(matrix, _row_views(matrix, shapes))
    iso.validate()
    return iso
