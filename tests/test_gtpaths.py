import inspect
import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from oracles import CountingRng, squashed_walk_row
from hypothesis import given, settings
from hypothesis import strategies as st

from equichan.gtpaths import (
    GtPath,
    RemovalDistribution,
    enumerate_paths,
    exact_removal_distribution,
    next_step_distribution,
    sample_gt_path,
    sample_gt_rows,
    sample_remove_box,
)
from equichan.staircases import (
    Staircase,
    dim_perm_irrep,
    empty_staircase,
    enumerate_staircases,
    lr_coeff,
    partitions_of,
    staircase,
)


class FakeRng:
    """Deterministic uniform stream for scripting hook walks."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestGtPath:
    def test_validation(self):
        with pytest.raises(ValueError):
            GtPath((staircase(0, 0), staircase(2, 0)), k=1, l=0)
        p = GtPath((staircase(0, 0), staircase(1, 0), staircase(1, 1)), k=2, l=0)
        assert p.end == staircase(1, 1)
        assert p.row_sequence() == (0, 1)

    @pytest.mark.parametrize(
        "steps,k,l,t",
        [
            ((staircase(0, 0), staircase(2, 0)), 1, 0, 0),
            ((staircase(0, 0), staircase(1, 1)), 1, 0, 0),
            ((staircase(1, 0), staircase(0, 0)), 1, 0, 0),
            ((staircase(0, 0), staircase(1, 0, 0)), 1, 0, 0),
            ((staircase(3, 1), staircase(1, 1)), 0, 1, 0),
            ((staircase(1, 1), staircase(0, 0)), 0, 1, 0),
            ((staircase(1, 0), staircase(2, 0)), 0, 1, 0),
            ((staircase(1, 0, 0), staircase(0, 0)), 0, 1, 0),
            ((staircase(0, 0), staircase(1, 0), staircase(1, -2)), 1, 1, 1),
        ],
    )
    def test_rejects_steps_that_are_not_one_box(self, steps, k, l, t):
        # a +-2 step, two changed entries, the wrong direction or another d
        kind = "addition" if t < k else "removal"
        msg = f"step {t} is not a single-box {kind}: {steps[t]} -> {steps[t + 1]}"
        with pytest.raises(ValueError, match=re.escape(msg)):
            GtPath(steps, k=k, l=l)

    @pytest.mark.parametrize(
        "steps,k,l,key",
        [
            ((staircase(1, 0),), -1, 1, "k"),
            ((staircase(1, 0),), 1, -1, "l"),
            ((staircase(0, 0), staircase(1, 0)), True, 0, "k"),
            ((staircase(1, 0), staircase(0, 0)), 0, True, "l"),
            ((staircase(0, 0), staircase(1, 0)), 1.0, 0, "k"),
        ],
    )
    def test_rejects_bad_step_counts(self, steps, k, l, key):
        # a negative count that still sums to len(steps) - 1, a bool, a float
        with pytest.raises(ValueError, match=f"{key}="):
            GtPath(steps, k=k, l=l)

    def test_stores_counts_as_ints(self):
        p = GtPath((staircase(0, 0), staircase(1, 0)), np.int64(1), np.int64(0))
        assert type(p.k) is int and type(p.l) is int
        assert p == GtPath((staircase(0, 0), staircase(1, 0)), 1, 0)

    def test_mixed_path(self):
        p = GtPath(
            (staircase(0, 0), staircase(1, 0), staircase(1, -1)), k=1, l=1
        )
        assert p.start.is_empty and p.end == staircase(1, -1)


class TestEnumeratePaths:
    def test_counts_match_perm_dims(self):
        got = enumerate_paths(empty_staircase(2), 3, 0)
        assert len(got[staircase(3, 0)]) == 1
        assert len(got[staircase(2, 1)]) == 2

    def test_single_row_removal_unique(self):
        # just one way to remove boxes from a single-row shape down to another
        got = enumerate_paths(staircase(4, 0), 0, 3)
        assert len(got[staircase(1, 0)]) == 1

    def test_identity_path(self):
        got = enumerate_paths(staircase(4, 2, 1), 0, 0)
        assert got == {
            staircase(4, 2, 1): [GtPath((staircase(4, 2, 1),), 0, 0)]
        }

    def test_mixed_staircase_basis_vector(self):
        # a four-addition two-removal basis label over d=4 rows
        steps = (
            staircase(0, 0, 0, 0),
            staircase(1, 0, 0, 0),
            staircase(1, 1, 0, 0),
            staircase(2, 1, 0, 0),
            staircase(2, 1, 1, 0),
            staircase(2, 1, 1, -1),
            staircase(2, 1, 0, -1),
        )
        p = GtPath(steps, k=4, l=2)
        got = enumerate_paths(empty_staircase(4), 4, 2)
        assert p in got[staircase(2, 1, 0, -1)]

    @pytest.mark.parametrize(
        "k,l,key", [(True, 0, "k"), (0, True, "l"), (-1, 0, "k"), (0, -1, "l")]
    )
    def test_rejects_bad_step_counts(self, k, l, key):
        with pytest.raises(ValueError, match=f"{key}="):
            enumerate_paths(staircase(0, 0), k, l)

    def test_empty_based_counts_equal_syt(self):
        for d in (2, 3):
            for m in range(1, 6):
                got = enumerate_paths(empty_staircase(d), m, 0)
                for lam in partitions_of(m, d):
                    assert len(got.get(lam, [])) == dim_perm_irrep(lam)

    def test_path_count_identity(self):
        # dim P_{mu->lam}^{k,l,d} = sum_gamma (#empty-based paths to gamma) c_{mu,gamma}^lam
        for d in (2, 3):
            bases = [empty_staircase(d)] + partitions_of(2, d) + enumerate_staircases(1, 1, d)
            for mu in bases:
                for k, l in [(1, 0), (2, 0), (1, 1), (2, 1), (2, 2), (0, 2)]:
                    if k + l > 4:
                        continue
                    reached = enumerate_paths(mu, k, l)
                    empties = enumerate_paths(empty_staircase(d), k, l)
                    for lam, paths in reached.items():
                        total = sum(
                            len(gpaths) * lr_coeff(mu, gamma, lam)
                            for gamma, gpaths in empties.items()
                        )
                        assert total == len(paths), (mu, k, l, lam)


class TestExactRemovalDistribution:
    def test_examples(self):
        dist = exact_removal_distribution(staircase(3, 1))
        assert dist[staircase(2, 1)] == Fraction(2, 3)
        assert dist[staircase(3, 0)] == Fraction(1, 3)
        dist = exact_removal_distribution(staircase(4, 0))
        assert dist[staircase(3, 0)] == 1
        dist = exact_removal_distribution(staircase(2, 1))
        assert dist[staircase(2, 0)] == Fraction(1, 2)
        assert dist[staircase(1, 1)] == Fraction(1, 2)

    def test_errors(self):
        with pytest.raises(ValueError):
            exact_removal_distribution(empty_staircase(3))
        with pytest.raises(ValueError):
            exact_removal_distribution(staircase(1, -1))

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            RemovalDistribution({staircase(1, 0): Fraction(1, 2)})


class TestWalkDistributions:
    def test_two_box_recursion_by_hand(self):
        # lam = (2,1): boxes (0,0),(0,1),(1,0); from (0,1) and (1,0) the walk
        # is stuck at a corner; from (0,0) it jumps to either with prob 1/2.
        dist = next_step_distribution(staircase(2, 1), mode="alg1")
        assert dist[staircase(2, 0)] == Fraction(1, 2)
        assert dist[staircase(1, 1)] == Fraction(1, 2)

    def test_single_row(self):
        for mode in ("alg1", "alg3"):
            dist = next_step_distribution(staircase(6, 0, 0), mode=mode)
            assert dist[staircase(5, 0, 0)] == 1

    def test_walks_match_exact_everywhere(self):
        # exact rational equality for all partitions of m <= 8
        for m in range(1, 9):
            for lam in partitions_of(m, m):
                exact = exact_removal_distribution(lam)
                for mode in ("alg1", "alg3"):
                    got = next_step_distribution(lam, mode=mode)
                    assert got.probs == exact.probs, (lam, mode)

    @pytest.mark.parametrize("mode", ["alg1", "alg3"])
    def test_worked_diagram_matches_exact(self, mode):
        # the 13-box diagram of the worked walk, past the m <= 8 sweep
        lam = staircase(5, 3, 3, 2)
        got = next_step_distribution(lam, mode=mode)
        assert got.probs == exact_removal_distribution(lam).probs


class TestSampleRemoveBox:
    def test_worked_walk_alg3(self):
        # lam = (5,3,3,2), whose box walk (1,2) -> (3,2) -> (3,3) is, on the
        # squashed diagram, cells (1,1) -> (2,1) -> (2,2) in 1-based
        # coordinates; start weights v*w = (2,1,2, 4,2, 2) sum 13,
        # then move weights (w2,w3,v2,v3) = (1,2,2,1), then (w2,v3) = (1,1).
        rng = FakeRng([0.5 / 13, 0.7, 0.25])
        got = sample_remove_box(staircase(5, 3, 3, 2), rng)
        assert got == staircase(5, 3, 2, 2)

    def test_single_row_any_randomness(self, rng):
        for _ in range(5):
            assert sample_remove_box(staircase(4, 0), rng) == staircase(3, 0)

    def test_empirical_tv_small(self, rng):
        lam = staircase(3, 1)
        exact = exact_removal_distribution(lam)
        n = 100_000
        counts = {mu: 0 for mu in exact.support()}
        for _ in range(n):
            counts[sample_remove_box(lam, rng)] += 1
        tv = 0.5 * sum(
            abs(counts[mu] / n - float(exact[mu])) for mu in exact.support()
        )
        assert tv < 0.01

    def test_alg3_matches_reference_walk_draw_for_draw(self):
        # the table-driven walk removes the same row as the loop walk of
        # tests/oracles.py and consumes the same number of uniform draws,
        # on every partition of size 1..10 with at most 5 rows
        walks = 0
        for m in range(1, 11):
            for lam in partitions_of(m, min(m, 5)):
                rows = [e for e in lam.entries if e > 0]
                for seed in range(40):
                    rng = CountingRng(np.random.default_rng(seed))
                    got = sample_remove_box(lam, rng)  # type: ignore[arg-type]
                    ref_rng = CountingRng(np.random.default_rng(seed))
                    row = squashed_walk_row(rows, iter(ref_rng.random, None))
                    assert got == lam.bump(row, -1), (lam, seed)
                    assert rng.count == ref_rng.count, (lam, seed)
                    walks += 1
        assert walks == 4480

    def test_alg3_ties_break_like_reference_walk(self):
        # dyadic draws land exactly on cumulative weights (e.g. 0.25 * 4 == 1
        # for lam = (3,1)); the pick must then take the next index, as the
        # reference's strict comparison does
        for m in range(1, 9):
            for lam in partitions_of(m, min(m, 5)):
                rows = [e for e in lam.entries if e > 0]
                for shift in range(4):
                    values = [((shift + t) % 4) / 4 for t in range(4 * m + 4)]
                    rng = FakeRng(values)
                    got = sample_remove_box(lam, rng)
                    ref = FakeRng(values)
                    row = squashed_walk_row(rows, iter(ref.random, None))
                    assert got == lam.bump(row, -1), (lam, shift)
                    assert len(rng.values) == len(ref.values), (lam, shift)

    def test_top_edge_draws_match_reference_walk(self):
        # u = nextafter(1, 0) puts u * total just below the last cumulative
        # weight, so the pick must take the last option without a clamp;
        # after u = 0 starts on cell (0, 0), it is also the last option of a
        # move.  One removal and whole paths, on every partition of size
        # 1..8 with at most 5 rows, remove the reference walk's rows with
        # the same number of draws.
        top = float(np.nextafter(1.0, 0.0))
        patterns = [(top,), (0.0, top), (top, 0.0), (0.0, 0.0, top)]
        for m in range(1, 9):
            for lam in partitions_of(m, min(m, 5)):
                rows = [e for e in lam.entries if e > 0]
                for pattern in patterns:
                    values = list(pattern) * (8 * m)
                    rng, ref = FakeRng(values), FakeRng(values)
                    got = sample_remove_box(lam, rng)
                    row = squashed_walk_row(rows, iter(ref.random, None))
                    assert got == lam.bump(row, -1), (lam, pattern)
                    assert len(rng.values) == len(ref.values), (lam, pattern)
                    rng, ref = FakeRng(values), FakeRng(values)
                    got = sample_gt_rows(lam, rng)
                    assert got == _reference_removals(rows, iter(ref.random, None))
                    assert len(rng.values) == len(ref.values), (lam, pattern)

    def test_whole_path_walk_matches_reference_removals(self):
        # sample_gt_rows walks a whole path in one loop over the memoised
        # tables; it must remove the rows that repeated reference walks
        # remove, draw for draw, on every partition of size 1..10 with at
        # most 5 rows, and each table must name the rows its removals leave
        from equichan.gtpaths import _walk_table

        walks = 0
        for m in range(1, 11):
            for lam in partitions_of(m, min(m, 5)):
                rows = tuple(e for e in lam.entries if e > 0)
                for seed in range(40):
                    rng = CountingRng(np.random.default_rng(seed))
                    got = sample_gt_rows(lam, rng)  # type: ignore[arg-type]
                    assert (rng.count, got) == _reference_rows(rows, seed), (lam, seed)
                    walks += 1
                table = _walk_table(rows)
                for i, after in (cell for cell in table.cells if len(cell) == 2):
                    assert after == _left(rows, i), (rows, i)
        assert walks == 4480

    def test_walks_build_only_the_tables_they_visit(self):
        # a table names the row tuples its removals leave and builds no
        # other table, so one removal builds one table and a whole path at
        # most one per box, even where the diagrams inside the shape number
        # C(28, 8) (the 8 x 20 rectangle)
        from equichan.gtpaths import _walk_table

        lam = Staircase((20,) * 8)
        _walk_table.cache_clear()
        sample_remove_box(lam, np.random.default_rng(2))
        assert _walk_table.cache_info().currsize == 1
        _walk_table.cache_clear()
        sample_gt_rows(lam, np.random.default_rng(2))
        assert _walk_table.cache_info().currsize <= lam.size

    def test_deep_diagrams_walk(self):
        # the walk iterates over removals, so no depth limit applies
        for rows in [(1200,), (600, 3, 1)]:
            rng = CountingRng(np.random.default_rng(5))
            got = sample_gt_rows(Staircase(rows), rng)  # type: ignore[arg-type]
            assert (rng.count, got) == _reference_rows(rows, 5), rows

    def test_walk_tables_are_memoised_tuples(self):
        # a table is the start move (cells, cumulative weights, total); each
        # cell is a move (target cells, cumulative weights, total) or a stop
        # (corner row, row lengths left), all immutable tuples
        from equichan.gtpaths import _walk_table

        table = _walk_table((5, 3, 3, 2))
        assert _walk_table((5, 3, 3, 2)) is table
        assert table.start == (2, 3, 5, 9, 11, 13)  # cumulative v*w of the worked walk
        assert table.total == 13
        assert table.cells[0][1] == (1, 3, 5, 6)  # cumulative (w2, w3, v2, v3)
        moves, stops = [table], set()
        while moves:
            targets, cum, total = moves.pop()
            assert isinstance(targets, tuple) and isinstance(cum, tuple)
            assert len(cum) == len(targets) and cum[-1] == total
            for cell in targets:
                assert isinstance(cell, tuple)
                if len(cell) == 3:
                    moves.append(cell)
                else:
                    assert isinstance(cell[1], tuple)
                    stops.add(cell)
        assert stops == {(0, (4, 3, 3, 2)), (2, (5, 3, 2, 2)), (3, (5, 3, 3, 1))}


def _left(rows, i):
    """Row lengths left when a box is removed from row i."""
    left = rows[:i] + (rows[i] - 1,) + rows[i + 1 :]
    return tuple(r for r in left if r > 0)


def _reference_rows(rows, seed):
    """Draw count and row sequence of repeated squashed_walk_row removals."""
    ref = CountingRng(np.random.default_rng(seed))
    removed = _reference_removals(rows, iter(ref.random, None))
    return ref.count, removed


def _reference_removals(rows, draws):
    """Row sequence of repeated squashed_walk_row removals on ``draws``."""
    rows = list(rows)
    removed = []
    while rows:
        i = squashed_walk_row(rows, draws)
        removed.append(i)
        rows[i] -= 1
        rows = [r for r in rows if r > 0]
    return tuple(reversed(removed))


class TestSampleGtPath:
    def test_unique_path(self, rng):
        p = sample_gt_path(staircase(2, 0), rng)
        assert p.steps == (staircase(0, 0), staircase(1, 0), staircase(2, 0))

    def test_uniform_over_two_paths(self, rng):
        lam = staircase(2, 1)
        counts = {}
        n = 100_000
        for _ in range(n):
            p = sample_gt_path(lam, rng)
            counts[p.row_sequence()] = counts.get(p.row_sequence(), 0) + 1
        assert set(counts) == {(0, 1, 0), (0, 0, 1)}
        for c in counts.values():
            assert abs(c / n - 0.5) < 0.01

    def test_marginals_chi_square(self, rng):
        # each intermediate step matches the recursive removal marginal
        from scipy.stats import chi2

        lam = staircase(3, 1)
        n = 100_000
        step_counts = [dict(), dict(), dict()]
        for _ in range(n):
            p = sample_gt_path(lam, rng)
            for t in range(1, 4):
                s = p.steps[t]
                step_counts[t - 1][s] = step_counts[t - 1].get(s, 0) + 1
        # exact marginals by downward recursion from lam
        marginals = [{lam: Fraction(1)}]
        for _ in range(3):
            cur = marginals[0]
            nxt: dict[Staircase, Fraction] = {}
            for shape, pr in cur.items():
                if shape.size == 0:
                    continue
                dist = exact_removal_distribution(shape)
                for mu, q in dist.probs.items():
                    nxt[mu] = nxt.get(mu, Fraction(0)) + pr * q
            marginals.insert(0, nxt)
        # marginals[0] is for size 1, [1] size 2, [2] size 3
        for t, counts in enumerate(step_counts):
            expected = marginals[t]
            stat = 0.0
            for shape, pr in expected.items():
                e = float(pr) * n
                o = counts.get(shape, 0)
                stat += (o - e) ** 2 / e
            dof = len(expected) - 1
            if dof == 0:
                continue
            pvalue = chi2.sf(stat, dof)
            assert pvalue > 1e-3

    def test_rows_are_the_path_draw_for_draw(self):
        # sample_gt_rows walks on row tuples with the draws sample_gt_path uses
        for lam in partitions_of(6, 3) + [staircase(4, 2, 1)]:
            for seed in range(5):
                a = CountingRng(np.random.default_rng(seed))
                b = CountingRng(np.random.default_rng(seed))
                path = sample_gt_path(lam, a)  # type: ignore[arg-type]
                rows = sample_gt_rows(lam, b)  # type: ignore[arg-type]
                assert path.end == lam and rows == path.row_sequence()
                assert a.count == b.count

    def test_bad_arguments(self, rng):
        with pytest.raises(ValueError, match="partition"):
            sample_gt_rows(staircase(1, -1), rng)

    def test_samplers_take_no_walk_mode(self):
        # the samplers run the one squashed walk; only next_step_distribution
        # reads a mode, to certify both walks exactly
        for sampler in (sample_remove_box, sample_gt_rows, sample_gt_path):
            assert tuple(inspect.signature(sampler).parameters) == ("lam", "rng")

    def test_draw_budget(self):
        # O(m * rows) uniform draws per sampled path
        lam = staircase(4, 2, 1)
        counting = CountingRng(np.random.default_rng(3))
        sample_gt_path(lam, counting)  # type: ignore[arg-type]
        assert counting.count <= 4 * lam.size * lam.d


class TestWalkMany:
    def test_every_walker_walks_like_walk_on_its_row(self):
        # each walker's path key and number of uniforms are those of the
        # scalar _walk fed with that walker's row, on every partition of
        # size 1..8 with at most 4 rows.  Rows of zeros, of nextafter(1, 0)
        # and of dyadic quarters put u * total on the edges of the
        # comparison, and _walk running out of a row would raise, so the
        # width |lam| len(lam) suffices
        from equichan.gtpaths import _walk, _walk_many

        top = float(np.nextafter(1.0, 0.0))
        rng = np.random.default_rng(7)
        walkers = 0
        for m in range(1, 9):
            for lam in partitions_of(m, min(m, 4)):
                rows = tuple(e for e in lam.entries if e > 0)
                uniforms = rng.random((100, m * len(rows)))
                uniforms[0], uniforms[1], uniforms[2, 1::2] = 0.0, top, top
                uniforms[3:7] = (np.arange(uniforms.shape[1]) + np.arange(4)[:, None]) % 4 / 4
                [keys], [used] = _walk_many((rows,), [uniforms])
                for t, row in enumerate(uniforms):
                    path, n = _walk(rows, iter(row.tolist()))
                    key = sum(r * len(rows) ** j for j, r in enumerate(path))
                    assert (keys[t], used[t]) == (key, n), (rows, t)
                    walkers += 1
        assert walkers == 5200

    @pytest.mark.parametrize(
        "labels",
        [
            ((3, 1), (2, 2)),
            ((4, 3), (3, 3, 1)),
            ((2, 2), (), (3, 1), (1,)),
            ((5, 2), (4, 3), (3, 3, 1), (2, 2, 2, 1)),
        ],
        ids=["3,1+2,2", "4,3+3,3,1", "with-empty", "four-labels"],
    )
    def test_mixed_labels_walk_like_walk_on_their_rows(self, labels):
        # the walkers of several labels share one loop, and the diagrams
        # below two labels one set of nodes; each walker's key, in the base
        # of its own label, and number of uniforms are those of _walk on its
        # row.  Rows of zeros, of nextafter(1, 0) and of dyadic quarters put
        # u * total on the edges of the comparison
        from equichan.gtpaths import _walk, _walk_many

        top = float(np.nextafter(1.0, 0.0))
        rng = np.random.default_rng(11)
        blocks = []
        for k, rows in enumerate(labels):
            uniforms = rng.random((40 + 7 * k, sum(rows) * len(rows)))
            if uniforms.shape[1]:
                uniforms[0], uniforms[1], uniforms[2, 1::2] = 0.0, top, top
                uniforms[3:7] = (np.arange(uniforms.shape[1]) + np.arange(4)[:, None]) % 4 / 4
            blocks.append(uniforms)
        keys, used = _walk_many(labels, blocks)
        assert [len(k) for k in keys] == [len(u) for u in used] == [len(b) for b in blocks]
        for rows, uniforms, label_keys, label_used in zip(labels, blocks, keys, used):
            for t, row in enumerate(uniforms):
                path, n = _walk(rows, iter(row.tolist()))
                key = sum(r * len(rows) ** j for j, r in enumerate(path))
                assert (label_keys[t], label_used[t]) == (key, n), (rows, t)

    def test_shared_diagrams_are_flattened_once(self):
        # (3,1) and (2,2) share (2,1), (1,1), (2) and (1): the flat walk
        # holds one table per distinct diagram, each a start node and its
        # cells, and one start node per label
        from equichan.gtpaths import _flat_walk, _walk_table

        def below(rows):
            out = {rows}
            for i in range(len(rows)):
                if i + 1 == len(rows) or rows[i] > rows[i + 1]:
                    left = rows[:i] + (rows[i] - 1,) + rows[i + 1 :]
                    left = tuple(r for r in left if r)
                    if left:
                        out |= below(left)
            return out

        labels = ((3, 1), (2, 2), (), (3, 1))
        flat = _flat_walk(labels)
        diagrams = below((3, 1)) | below((2, 2))
        assert len(flat.row) == sum(1 + len(_walk_table(r).cells) for r in diagrams)
        assert flat.start.tolist() == [0, 1 + len(_walk_table((3, 1)).cells), -1, 0]

    def test_empty_diagram_takes_no_uniforms(self):
        from equichan.gtpaths import _walk_many

        [keys], [used] = _walk_many(((),), [np.empty((3, 0))])
        assert keys.tolist() == [0, 0, 0] and used.tolist() == [0, 0, 0]

    def test_rejects_a_block_narrower_than_the_bound(self):
        # every walker reads at the same column of one flat array of draws,
        # so a narrow block would let a walk read into the next walker's row
        from equichan.gtpaths import _walk_many

        message = r"walks of \(2, 1\) need 6 uniforms per walker, got 5"
        with pytest.raises(ValueError, match=message):
            _walk_many(((1,), (2, 1)), [np.zeros((2, 1)), np.zeros((2, 5))])

    def test_flat_tables_are_memoised(self):
        from equichan.gtpaths import _flat_walk

        assert _flat_walk(((5, 3, 3, 2),)) is _flat_walk(((5, 3, 3, 2),))


@st.composite
def small_partitions(draw):
    m = draw(st.integers(min_value=1, max_value=7))
    opts = partitions_of(m, min(m, 4))
    return draw(st.sampled_from(opts))


@given(small_partitions())
@settings(max_examples=40, deadline=None)
def test_alg1_alg3_isomorphic(lam):
    assert (
        next_step_distribution(lam, "alg1").probs
        == next_step_distribution(lam, "alg3").probs
    )
