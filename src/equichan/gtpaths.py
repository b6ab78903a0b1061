"""Gel'fand-Tsetlin path spaces and random sampling of GT basis vectors.

A GT basis vector of a permutation-algebra irrep is labelled by a path of
staircases that first adds k boxes one at a time and then removes l boxes
one at a time.  Uniform sampling of such paths reduces to repeatedly
sampling a single box removal with probability proportional to the
dimension of the smaller irrep, which the hook walk does without computing
any dimensions.

The samplers run the squashed hook walk: the diagram with maximal
rectangles of equal rows/columns contracted to single weighted cells,
which needs only O(r) random draws for r distinct row lengths.  The
memoised ``_walk_table``s are that walk: the samplers walk them, and
``next_step_distribution(lam, "alg3")`` reads its exact distribution off
the same tables, so the exact identity certifies the tables that are
walked.  The box walk on the Young diagram itself (pick a uniformly
random box, then repeatedly jump to a uniformly random box strictly to
the right in the same row or strictly below in the same column, until a
corner is reached) is kept only as its exact recursion ``_dp_boxes``
over the move rule ``_box_moves``: ``next_step_distribution(lam,
"alg1")``, which certifies the paper's Algorithm 1.  Its while-loop
condition is read as moves within the same row or the same column only;
the squashed walk and the worked removal example pin this down.

All probabilities are exact rationals; floating point enters only at the
final inverse-CDF draw.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from equichan.staircases import (
    Staircase,
    add_boxes,
    check_count,
    dim_perm_irrep,
    empty_staircase,
    remove_boxes,
)


@dataclass(frozen=True)
class GtPath:
    """A sequence of staircases with k single-box additions then l removals.

    ``k`` and ``l`` are read as in ``staircases.check_count``.
    """

    steps: tuple[Staircase, ...]
    k: int
    l: int

    def __post_init__(self):
        object.__setattr__(self, "k", check_count("k", self.k))
        object.__setattr__(self, "l", check_count("l", self.l))
        if len(self.steps) != self.k + self.l + 1:
            raise ValueError("path must have k + l + 1 staircases")
        # every step is a validated Staircase, so a single-box addition
        # (removal) is exactly a step that raises (lowers) one entry by one
        for t in range(self.k + self.l):
            cur, nxt = self.steps[t], self.steps[t + 1]
            delta = 1 if t < self.k else -1
            diff = [b - a for a, b in zip(cur.entries, nxt.entries) if a != b]
            if cur.d != nxt.d or diff != [delta]:
                kind = "addition" if t < self.k else "removal"
                raise ValueError(f"step {t} is not a single-box {kind}: {cur} -> {nxt}")

    @property
    def d(self) -> int:
        return self.steps[0].d

    @property
    def start(self) -> Staircase:
        return self.steps[0]

    @property
    def end(self) -> Staircase:
        return self.steps[-1]

    def row_sequence(self) -> tuple[int, ...]:
        """Row index changed at each step (0-based)."""
        rows = []
        for cur, nxt in zip(self.steps, self.steps[1:]):
            diff = [i for i in range(cur.d) if cur.entries[i] != nxt.entries[i]]
            rows.append(diff[0])
        return tuple(rows)


@dataclass(frozen=True)
class RemovalDistribution:
    """Exact probability distribution over single-box removals."""

    probs: dict[Staircase, Fraction]

    def __post_init__(self):
        if any(p <= 0 for p in self.probs.values()):
            raise ValueError("probabilities must be positive")
        if sum(self.probs.values()) != 1:
            raise ValueError("probabilities must sum to one exactly")

    def support(self) -> list[Staircase]:
        return sorted(self.probs, key=lambda s: s.entries, reverse=True)

    def __getitem__(self, mu: Staircase) -> Fraction:
        return self.probs[mu]


def enumerate_paths(mu: Staircase, k: int, l: int) -> dict[Staircase, list[GtPath]]:
    """All paths of k additions then l removals starting at mu, grouped by endpoint.

    Endpoints are ordered lexicographically descending; within an endpoint
    the paths are in lexicographic order of their row sequences.  ``k``
    and ``l`` are read as in ``staircases.check_count``.
    """
    k, l = check_count("k", k), check_count("l", l)
    partial = [(mu,)]
    for t in range(k + l):
        nxt = []
        for steps in partial:
            moves = add_boxes(steps[-1]) if t < k else remove_boxes(steps[-1])
            for s in moves:
                nxt.append(steps + (s,))
        partial = nxt
    out: dict[Staircase, list[GtPath]] = {}
    for steps in partial:
        out.setdefault(steps[-1], []).append(GtPath(steps, k, l))
    return {key: out[key] for key in sorted(out, key=lambda s: s.entries, reverse=True)}


def exact_removal_distribution(lam: Staircase) -> RemovalDistribution:
    """Marginal of a uniformly random GT path at the last addition step.

    P(mu) = dim_perm_irrep(mu) / dim_perm_irrep(lam) over mu obtained from
    the partition lam by removing one box.
    """
    if not lam.is_partition:
        raise ValueError("exact_removal_distribution needs a partition")
    if lam.size == 0:
        raise ValueError("cannot remove a box from the empty partition")
    dim_lam = dim_perm_irrep(lam)
    probs = {
        mu: Fraction(dim_perm_irrep(mu), dim_lam)
        for mu in remove_boxes(lam)
        if mu.is_partition
    }
    return RemovalDistribution(probs)


# ---------------------------------------------------------------------------
# hook walks
# ---------------------------------------------------------------------------


def _box_moves(rows: list[int], i: int, j: int) -> list[tuple[int, int]]:
    """Boxes the box walk can jump to from box (i, j): right along its row, then down its column."""
    right = [(i, jj) for jj in range(j + 1, rows[i])]
    below = [(ii, j) for ii in range(i + 1, len(rows)) if rows[ii] > j]
    return right + below


def _squash(rows: list[int]) -> tuple[list[int], list[int], list[int], list[int]]:
    """Contract equal rows and columns of a Young diagram.

    Returns (nu, v, w, corner_rows): distinct row lengths nu (descending)
    with vertical multiplicities v, column-group widths w (left to right),
    and for each row group the 0-based index of its last original row.
    """
    nu: list[int] = []
    v: list[int] = []
    corner_rows: list[int] = []
    for i, r in enumerate(rows):
        if nu and r == nu[-1]:
            v[-1] += 1
            corner_rows[-1] = i
        else:
            nu.append(r)
            v.append(1)
            corner_rows.append(i)
    widths_asc = sorted(set(nu))
    w = [widths_asc[0]] + [b - a for a, b in zip(widths_asc, widths_asc[1:])]
    return nu, v, w, corner_rows


def _shrink(rows: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Row lengths left when the corner box of row i is removed."""
    return rows[:i] + (rows[i] - 1,) + rows[i + 1 :] if rows[i] > 1 else rows[:i]


class _WalkTable(NamedTuple):
    """The squashed walk on one diagram, in the form ``_walk`` reads.

    The table is itself the start move: ``cells`` are the squashed cells
    (k, l) in row-major order, ``start`` the cumulative start weights
    v(k)w(l) over them and ``total`` their sum, the number of boxes.  Each
    cell is either a move ``(targets, cum, total)``: the cells it can move
    to (right, then down), their cumulative weights and the sum of those;
    or, on the anti-diagonal, a stop ``(corner, after)``: the 0-based
    original row the walk removes a box from and the row lengths that
    removal leaves.
    """

    cells: tuple[tuple, ...]
    start: tuple[int, ...]
    total: int


@functools.cache
def _walk_table(rows: tuple[int, ...]) -> _WalkTable:
    """Squashed-walk table of the nonempty Young diagram with these row lengths.

    Cell (k, l) of the squashed diagram stands for a v(k) x w(l) rectangle
    of original boxes.  The start cell is drawn with probability
    proportional to v(k)w(l); subsequent moves go right with weight w(l')
    or down with weight v(k'), and the walk stops on the anti-diagonal.
    Cells are built from the anti-diagonal up, so each move holds its
    target cells themselves and a decision is one bisection and one index.
    Each stop carries the row tuple its corner removal leaves, so a walk
    looks up the next table by that key and only the tables of the
    diagrams it visits are built.  Memoised per row tuple, so each table
    is one immutable object.
    """
    nu, v, w, corner_rows = _squash(list(rows))
    K = len(nu)
    cell: dict[tuple[int, int], tuple] = {}
    for k in range(K - 1, -1, -1):
        for l in range(K - k - 1, -1, -1):
            right = [(k, ll) for ll in range(l + 1, K - k)]
            below = [(kk, l) for kk in range(k + 1, K - l)]
            if not right and not below:
                cell[k, l] = (corner_rows[k], _shrink(rows, corner_rows[k]))
                continue
            weights = [w[ll] for _, ll in right] + [v[kk] for kk, _ in below]
            targets = tuple(cell[c] for c in right + below)
            cell[k, l] = (targets, tuple(accumulate(weights)), sum(weights))
    order = [(k, l) for k in range(K) for l in range(K - k)]
    return _WalkTable(
        cells=tuple(cell[c] for c in order),
        start=tuple(accumulate(v[k] * w[l] for k, l in order)),
        total=sum(rows),
    )


def _walk(
    rows: tuple[int, ...], draws, limit: int | None = None
) -> tuple[tuple[int, ...], int]:
    """Squashed hook walks from the diagram with row lengths ``rows`` down.

    ``rows`` holds the positive row lengths of a partition.  Makes
    ``limit`` removals, or all of them down to the empty shape when
    ``limit`` is None, taking one uniform number per decision from the
    iterator ``draws``.  Each decision is the strict inverse-CDF comparison
    of a linear scan: one draw u, one ``bisect_right`` of u * total on the
    cumulative weights of the current move of the memoised
    ``_walk_table``, and one index into its targets.  Totals are integers
    below 2**53, so u < 1 gives u * total < total and the bisection never
    runs past the last target.  Returns the removed rows in path order
    (the last removal first) and the number of draws used.
    """
    removed: list[int] = []
    used = 0
    while rows and len(removed) != limit:
        node = _walk_table(rows)
        while len(node) == 3:
            targets, cum, total = node
            node = targets[bisect_right(cum, next(draws) * total)]
            used += 1
        row, rows = node
        removed.append(row)
    removed.reverse()
    return tuple(removed), used


class _FlatWalk(NamedTuple):
    """Every ``_walk_table`` reachable from some labels' diagrams, as node arrays.

    ``start`` holds each label's start node, the start move of its own
    table, or -1 for an empty label.  A move node has its cumulative
    weights in a column of ``cum``, shaped (width, nodes) and padded with
    +inf, their sum in ``total`` and its ``row`` -1.  A stop node has the
    0-based row its corner removal takes in ``row``.  The successor tables
    are flat and column-major like ``cum``: the decision ``pick`` at move
    ``node`` reads entry ``pick * nodes + node``, where ``next_row`` holds
    the ``row`` of the node it moves to and ``next_node`` the node a
    walker goes on from: the move itself again, the start move of the
    table that a stop's removal leaves, or -1 once the diagram is empty.
    Every array is read-only.
    """

    start: np.ndarray
    cum: np.ndarray
    total: np.ndarray
    row: np.ndarray
    next_row: np.ndarray
    next_node: np.ndarray


@functools.cache
def _flat_walk(labels: tuple[tuple[int, ...], ...]) -> _FlatWalk:
    """The memoised ``_walk_table``s of the labels and every diagram below them, flattened.

    ``labels`` holds row tuples.  Each table is a start move followed by
    its cells in order; the targets of a move are the cell objects of the
    same table, which ``node`` maps to their numbers.  Tables are numbered
    as the diagrams are first met, breadth first from the labels in order,
    so a diagram below several labels is flattened once.  Each column of
    ``cum`` and of the successor tables is one node, so that a step of
    ``_walk_many`` reads one contiguous row of them per decision index.
    Unlike a walk, this builds the table of every diagram inside the
    labels, at most prod(r + 1) per label; sample mode flattens only the
    labels of a Schur transform it has built.  Memoised per tuple of
    labels, with every array read-only.
    """
    start: dict[tuple[int, ...], int] = {}
    order: list[tuple[int, ...]] = []
    size = 0

    def meet(diagram: tuple[int, ...]) -> None:
        nonlocal size
        if diagram and diagram not in start:
            start[diagram] = size
            size += 1 + len(_walk_table(diagram).cells)
            order.append(diagram)

    for rows in labels:
        meet(rows)
    moves = []  # (node, target nodes, cumulative weights, total)
    stops = []  # (node, row, start node of the diagram left or -1)
    for diagram in order:
        table = _walk_table(diagram)
        base = start[diagram]
        node = {id(cell): base + 1 + i for i, cell in enumerate(table.cells)}
        moves.append((base, [node[id(c)] for c in table.cells], table.start, table.total))
        for cell in table.cells:
            if len(cell) == 3:
                moves.append((node[id(cell)], [node[id(c)] for c in cell[0]], *cell[1:]))
                continue
            corner, left = cell
            meet(left)
            stops.append((node[id(cell)], corner, start.get(left, -1)))
    width = max((len(c) for _, _, c, _ in moves), default=0)
    cum = np.full((width, size), np.inf)
    total = np.zeros(size)
    targets = np.zeros((width, size), dtype=np.intp)
    row = np.full(size, -1, dtype=np.intp)
    # a walker goes on from a move itself and from a stop to what is left
    after = np.arange(size, dtype=np.intp)
    for at, to, c, t in moves:
        cum[: len(c), at] = c
        total[at] = t
        targets[: len(to), at] = to
    for at, r, nxt in stops:
        row[at] = r
        after[at] = nxt
    first = np.array([start.get(rows, -1) for rows in labels], dtype=np.intp)
    flat = _FlatWalk(first, cum, total, row, row[targets.ravel()], after[targets.ravel()])
    for array in flat:
        array.flags.writeable = False
    return flat


def _walk_many(
    labels: tuple[tuple[int, ...], ...], uniforms: list[np.ndarray]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Whole-path squashed hook walks of the walkers of several labels in one loop.

    ``labels`` holds row tuples and ``uniforms`` one block per label, one
    walker per row of the block.  A walker of ``rows`` takes its uniforms
    in order from its row, which needs at most ``sum(rows) * len(rows)``
    columns: a removal makes one start decision and at most one move per
    distinct row length after it.  All walkers, of every label, walk the
    tables of ``_flat_walk(labels)``, so the loop runs as many steps as the
    longest walk.  Every walker still walking makes one decision per step,
    all at the same column of their rows: each gathers its node's column
    of cumulative weights and counts those at or below u * total, one
    count over the leading axis for all walkers, and then takes the row
    and the next node of that decision from the flat successor tables at
    ``pick * nodes + node``.  The count is ``bisect_right`` on the same
    float product, so each walker removes the rows and uses the number of
    uniforms of ``_walk(rows, iter(row))``.  Returns, per label, each
    walker's path as an integer key, sum_j r_j len(rows)^j over the rows
    r_j the path adds in order, and the number of uniforms each walker
    used; a walker of an empty label gets key 0 and uses none.  Raises
    ValueError if a block is narrower than that bound, so that no walker
    can read past its row.
    """
    for rows, block in zip(labels, uniforms):
        if block.shape[1] < sum(rows) * len(rows):
            raise ValueError(
                f"walks of {rows} need {sum(rows) * len(rows)} uniforms per walker,"
                f" got {block.shape[1]}"
            )
    flat = _flat_walk(labels)
    nodes = len(flat.row)
    counts = [len(block) for block in uniforms]
    widths = np.repeat([block.shape[1] for block in uniforms], counts)
    draws = np.concatenate([block.ravel() for block in uniforms])
    keys = np.zeros(len(widths), dtype=np.int64)
    used = np.zeros(len(widths), dtype=np.intp)
    node = np.repeat(flat.start, counts)
    live = np.flatnonzero(node >= 0)
    node = node[live]
    base = np.repeat([len(rows) for rows in labels], counts)[live]
    # walker t's row starts at the sum of the widths before it
    first = (np.cumsum(widths) - widths)[live]
    key = np.zeros(live.size, dtype=np.int64)
    col = 0
    while live.size:
        u = draws[first + col]
        col += 1
        # the count runs over the short leading axis of the gathered columns
        pick = (np.take(flat.cum, node, axis=1) <= u * flat.total[node]).sum(0)
        at = pick * nodes + node
        removed = np.take(flat.next_row, at)
        stop = removed >= 0
        # the walk removes the path's last row first, so the first row
        # removed ends up the most significant digit of the key
        key = np.where(stop, key * base + removed, key)
        node = np.take(flat.next_node, at)
        done = node < 0
        if done.any():
            keys[live[done]] = key[done]
            used[live[done]] = col
            walking = ~done
            live, node, key = live[walking], node[walking], key[walking]
            base, first = base[walking], first[walking]
    edges = list(zip(accumulate(counts, initial=0), accumulate(counts)))
    return [keys[a:b] for a, b in edges], [used[a:b] for a, b in edges]


def sample_remove_box(lam: Staircase, rng: np.random.Generator) -> Staircase:
    """Sample mu from lam by removing one box via the squashed hook walk.

    The result is distributed as exact_removal_distribution(lam).  One
    ``_walk`` with ``limit=1``, drawing one ``rng.random()`` per decision.
    """
    if not lam.is_partition or lam.size == 0:
        raise ValueError("need a nonempty partition")
    rows = tuple(e for e in lam.entries if e > 0)
    (row,), _ = _walk(rows, iter(rng.random, None), limit=1)
    return lam.bump(row, -1)


def next_step_distribution(lam: Staircase, mode: str = "alg1") -> RemovalDistribution:
    """Exact removal distribution induced by the hook walk, by rational DP.

    Solves the end-corner probabilities of the walk recursion exactly, from
    the box walk's move rule (alg1) or from the ``_walk_table`` the squashed
    samplers walk (alg3); for both modes this reproduces
    exact_removal_distribution, which is the content of the walk's
    correctness.  Removals are listed by ascending row.
    """
    if not lam.is_partition or lam.size == 0:
        raise ValueError("need a nonempty partition")
    rows = [e for e in lam.entries if e > 0]
    if mode == "alg1":
        probs_by_row = _dp_boxes(rows)
    elif mode == "alg3":
        probs_by_row = _walk_ends(_walk_table(tuple(rows)), {})
    else:
        raise ValueError(f"unknown mode {mode!r}")
    probs = {lam.bump(i, -1): p for i, p in sorted(probs_by_row.items())}
    return RemovalDistribution(probs)


def _mix(parts) -> dict[int, Fraction]:
    """Sum of end-corner distributions ``(p, dist)``, each scaled by its probability p."""
    out: dict[int, Fraction] = {}
    for p, dist in parts:
        for c, q in dist.items():
            out[c] = out.get(c, Fraction(0)) + p * q
    return out


def _dp_boxes(rows: list[int]) -> dict[int, Fraction]:
    """End-corner distribution of the box walk, exactly."""
    # ends[i, j][c] = probability of ending at corner row c starting from box (i, j)
    ends: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(len(rows) - 1, -1, -1):
        for j in range(rows[i] - 1, -1, -1):
            options = _box_moves(rows, i, j)
            if options:
                ends[i, j] = _mix((Fraction(1, len(options)), ends[b]) for b in options)
            else:
                ends[i, j] = {i: Fraction(1)}
    return _mix((Fraction(1, sum(rows)), dist) for dist in ends.values())


def _walk_ends(node: tuple, memo: dict[int, dict[int, Fraction]]) -> dict[int, Fraction]:
    """End-corner distribution of the squashed walk from one node of a ``_walk_table``, exactly.

    A stop ends on its own corner row.  A move, or a whole table as its
    start move, ends where its targets end, each target weighted by the
    difference of the move's cumulative weights over their total.  Cells
    are shared by the moves that reach them, so ``memo`` keeps each move's
    distribution by ``id``; the table holds every cell for the whole call.
    """
    if len(node) == 2:
        return {node[0]: Fraction(1)}
    if id(node) not in memo:
        targets, cum, total = node
        weights = (Fraction(hi - lo, total) for lo, hi in zip((0,) + cum, cum))
        memo[id(node)] = _mix((p, _walk_ends(t, memo)) for p, t in zip(weights, targets))
    return memo[id(node)]


def sample_gt_rows(lam: Staircase, rng: np.random.Generator) -> tuple[int, ...]:
    """Row sequence of a uniformly random GT path from the empty staircase to lam.

    Repeatedly removes a hook-walk-sampled box from the partition lam down
    to the empty shape and returns the rows in the order the path adds
    them (``GtPath.row_sequence``).  The whole path is one ``_walk`` over
    the walk-ready tables of ``_walk_table`` (memoised per row tuple; each
    decision is one bisection and one index, and each stop names the row
    tuple its removal leaves), drawing one ``rng.random()`` per decision,
    so the draws and their number are those of one walk per removal.
    """
    if not lam.is_partition:
        raise ValueError("need a partition")
    rows = tuple(e for e in lam.entries if e > 0)
    return _walk(rows, iter(rng.random, None))[0]


def sample_gt_path(lam: Staircase, rng: np.random.Generator) -> GtPath:
    """Uniformly random GT path from the empty staircase up to the partition lam.

    Repeatedly removes a hook-walk-sampled box down to the empty shape and
    reverses; uniform over all dim_perm_irrep(lam) paths.  The walk runs on
    row-length tuples through ``sample_gt_rows``, and one GtPath is built
    at the end.
    """
    steps = [empty_staircase(lam.d)]
    for i in sample_gt_rows(lam, rng):
        steps.append(steps[-1].bump(i, 1))
    return GtPath(tuple(steps), k=lam.size, l=0)

