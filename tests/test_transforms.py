import operator
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equichan.apps import symmetrize
from equichan.limits import ResourceError
from equichan.realize import canonical_realization, dual_structure
from equichan.staircases import (
    add_boxes,
    dim_gl_irrep,
    dim_perm_irrep,
    empty_staircase,
    enumerate_staircases,
    lr_coeff,
    partitions_of,
    remove_boxes,
    staircase,
)
from equichan.transforms import (
    _row_slices,
    canonical_embedding,
    general_cg,
    iterated_cg,
    permutation_operator,
    schur_transform,
    simple_cg,
    unvec,
    vec,
)
from equichan.verify import haar_unitary

from oracles import (
    full_generators,
    group_element,
    permutation_matrix,
    site_generator,
    symmetrize_brute,
)


class TestVec:
    def test_identity(self):
        assert np.allclose(vec(np.eye(2)), [1, 0, 0, 1])

    def test_round_trip(self, rng):
        M = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        assert np.allclose(unvec(vec(M), (2, 3)), M)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            unvec(np.zeros(5), (2, 3))

    def test_trace_vectorization_fact(self, rng):
        # tr over the column space of |V><V| (A^T on that factor) = M A M* B
        for _ in range(50):
            a, b = rng.integers(2, 4), rng.integers(2, 4)
            M = rng.normal(size=(b, a)) + 1j * rng.normal(size=(b, a))
            A = rng.normal(size=(a, a)) + 1j * rng.normal(size=(a, a))
            B = rng.normal(size=(b, b)) + 1j * rng.normal(size=(b, b))
            V = vec(M)
            outer = np.outer(V, V.conj())
            op = np.kron(B, A.T)
            prod = (outer @ op).reshape(b, a, b, a)
            lhs = np.einsum("iaja->ij", prod)
            rhs = M @ A @ M.conj().T @ B
            assert np.linalg.norm(lhs - rhs) < 1e-12


class TestPermutationOperator:
    def test_identity(self):
        assert np.allclose(permutation_operator((0, 1, 2), 3, 2), np.eye(8))

    def test_swap(self):
        P = permutation_operator((1, 0), 2, 2)
        expected = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float
        )
        assert np.allclose(P, expected)

    def test_matches_oracle(self, rng):
        for _ in range(5):
            m, d = 3, 2
            perm = tuple(rng.permutation(m))
            assert np.allclose(
                permutation_operator(perm, m, d), permutation_matrix(perm, d)
            )

    def test_invalid(self):
        with pytest.raises(ValueError):
            permutation_operator((0, 0), 2, 2)


class TestSimpleCg:
    def test_box_blocks(self):
        cg = simple_cg(staircase(1, 0), False)
        assert [(str(label), rows.shape) for label, rows in cg.blocks.items()] == [
            ("(2,0)", (1, 3, 4)),
            ("(1,1)", (1, 1, 4)),
        ]
        # the (1,1) row is the singlet
        row = cg.blocks[staircase(1, 1)][0, 0]
        expected = np.array([0, 1, -1, 0]) / np.sqrt(2)
        assert min(np.linalg.norm(row - expected), np.linalg.norm(row + expected)) < 1e-10

    def test_dual_box_blocks(self):
        cg = simple_cg(staircase(1, 0), True)
        assert [(str(label), rows.shape) for label, rows in cg.blocks.items()] == [
            ("(0,0)", (1, 1, 4)),
            ("(1,-1)", (1, 3, 4)),
        ]
        row = cg.blocks[staircase(0, 0)][0, 0]
        expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert min(np.linalg.norm(row - expected), np.linalg.norm(row + expected)) < 1e-10

    def test_single_row_dims(self):
        for m in (1, 2, 3):
            cg = simple_cg(staircase(m, 0), False)
            sizes = {str(label): rows.shape[1] for label, rows in cg.blocks.items()}
            assert sizes == {f"({m+1},0)": m + 2, f"({m},1)": m}

    def test_real_entries(self):
        for label in [staircase(2, 1), staircase(1, -1), staircase(2, 1, 0)]:
            for dual in (False, True):
                cg = simple_cg(label, dual)
                assert np.isrealobj(cg.matrix) or np.linalg.norm(cg.matrix.imag) < 1e-10


# d = 2-4, up to 5 positive and 3 negative boxes (3 and 2 at d = 4), and four
# labels of 10 or 11 sites at d = 3, where a Krylov construction of the
# blocks intertwines only to about 1e-8
CLOSED_FORM_LABELS = sorted(
    {
        s
        for d in (2, 3, 4)
        for m in range(6 if d < 4 else 4)
        for k in range(4 if d < 4 else 3)
        for s in enumerate_staircases(m, k, d)
    },
    key=lambda s: (s.d, s.entries),
) + [staircase(5, 2, -3), staircase(6, 2, -3), staircase(6, 2, -2), staircase(7, 1, -2)]


def _first_sizable(M):
    flat = M.reshape(-1)
    return flat[np.argmax(np.abs(flat) > 1e-8)]


class TestClosedFormBlocks:
    """Schur's lemma pins each single-box block and each dual structure up
    to sign: the intertwining relation on every generator, orthonormality
    and a positive first sizable entry leave exactly one matrix."""

    def test_simple_cg_blocks_are_the_unique_intertwiners(self):
        assert len(CLOSED_FORM_LABELS) == 128
        worst = {"intertwining": 0.0, "orthonormality": 0.0}
        for label in CLOSED_FORM_LABELS:
            d = label.d
            G = full_generators(canonical_realization(label))
            q = G.shape[2]
            for dual in (False, True):
                cg = simple_cg(label, dual)
                target = {s: full_generators(canonical_realization(s)) for s in cg.blocks}
                for i in range(d):
                    for j in range(d):
                        source = np.kron(G[i, j], np.eye(d)) + np.kron(
                            np.eye(q), site_generator(d, i, j, dual)
                        )
                        for s, (R,) in cg.blocks.items():
                            gap = np.abs(R @ source - target[s][i, j] @ R).max()
                            worst["intertwining"] = max(worst["intertwining"], gap)
                for s, (R,) in cg.blocks.items():
                    gap = np.abs(R @ R.T - np.eye(len(R))).max()
                    worst["orthonormality"] = max(worst["orthonormality"], gap)
                    assert _first_sizable(R) > 0, (label, dual, s)
        assert max(worst.values()) < 1e-12, worst

    def test_dual_structure_is_the_unique_intertwiner(self):
        worst = {"intertwining": 0.0, "orthonormality": 0.0}
        for label in CLOSED_FORM_LABELS:
            Z = dual_structure(label)
            a = full_generators(canonical_realization(label.dual()))
            b = full_generators(canonical_realization(label))
            for i in range(label.d):
                for j in range(label.d):
                    gap = np.abs(Z @ a[i, j] + b[i, j].T @ Z).max()
                    worst["intertwining"] = max(worst["intertwining"], gap)
            gap = np.abs(Z @ Z.T - np.eye(len(Z))).max()
            worst["orthonormality"] = max(worst["orthonormality"], gap)
            assert _first_sizable(Z) > 0, label
        assert max(worst.values()) < 1e-12, worst

    def test_cold_builds_run_no_eigensolver(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("called during a cold closed-form build")

        labels = [
            staircase(1, 0),
            staircase(1, -1),
            staircase(2, 1, 0),
            staircase(1, 1, -1),
            staircase(2, 1, 0, -1),
            staircase(6, 2, -2),
            staircase(6, 2, -3),
        ]
        for label in labels:
            canonical_realization(label)
            for s in add_boxes(label) + remove_boxes(label):
                canonical_realization(s)
            canonical_realization(label.dual())
        # c = 2 at (3,2,1) in the first product, a mixed-sign one in the second
        products = [(staircase(2, 1, 0),) * 2, (staircase(1, 0, -1),) * 2]
        for name in ("eigh", "svd"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        for label in labels:
            for dual in (False, True):
                simple_cg.__wrapped__(label, dual).validate()
            dual_structure.__wrapped__(label)
        for a, b in products:
            general_cg.__wrapped__(a, b).validate()


class TestSchurTransform:
    def test_layout_m2(self):
        S = schur_transform(2, 0, 2)
        assert [(str(s.label), s.p_dim, s.q_dim) for s in S.sectors.values()] == [
            ("(2,0)", 1, 3),
            ("(1,1)", 1, 1),
        ]

    def test_layout_m3(self):
        S = schur_transform(3, 0, 2)
        assert [(str(s.label), s.p_dim, s.q_dim) for s in S.sectors.values()] == [
            ("(3,0)", 1, 4),
            ("(2,1)", 2, 2),
        ]

    def test_layout_mixed(self):
        S = schur_transform(1, 1, 2)
        assert [(str(s.label), s.p_dim, s.q_dim) for s in S.sectors.values()] == [
            ("(1,-1)", 1, 3),
            ("(0,0)", 1, 1),
        ]

    def test_unitary_and_real(self):
        for m, n, d in [(3, 0, 2), (2, 1, 2), (2, 0, 3), (1, 1, 3)]:
            S = schur_transform(m, n, d)
            dim = d ** (m + n)
            assert S.matrix.shape == (dim, dim)
            assert np.linalg.norm(S.matrix @ S.matrix.T - np.eye(dim)) < 1e-10
            assert np.isrealobj(S.matrix)

    def test_sector_dims_match_combinatorics(self):
        for m, n, d in [(4, 0, 2), (2, 2, 2), (3, 1, 2), (2, 1, 3)]:
            S = schur_transform(m, n, d)
            total = 0
            for s in S.sectors.values():
                assert s.q_dim == dim_gl_irrep(s.label)
                total += s.p_dim * s.q_dim
                for p in s.paths:
                    assert p.start.is_empty and p.end == s.label
            assert total == d ** (m + n)

    def test_schur_weyl_dimension_identity(self):
        for d in (2, 3):
            for m in range(1, 5):
                S = schur_transform(m, 0, d)
                for s in S.sectors.values():
                    assert s.p_dim == dim_perm_irrep(s.label)

    def test_intertwines_haar(self, rng):
        for m, n, d in [(3, 0, 2), (2, 1, 2), (1, 1, 3)]:
            S = schur_transform(m, n, d)
            dim = d ** (m + n)
            slices = _row_slices({label: s.rows.shape[:2] for label, s in S.sectors.items()})
            for _ in range(20):
                U = haar_unitary(d, rng)
                big = np.eye(1, dtype=complex)
                for k in range(m):
                    big = np.kron(big, U)
                for k in range(n):
                    big = np.kron(big, U.conj())
                block = np.zeros((dim, dim), dtype=complex)
                for label, s in S.sectors.items():
                    r = group_element(canonical_embedding(s.label), s.label, U)
                    blk = np.kron(np.eye(s.p_dim), r)
                    block[slices[label], slices[label]] = blk
                resid = np.linalg.norm(S.matrix @ big - block @ S.matrix)
                assert resid < 1e-8, (m, n, d, resid)

    def test_permutations_block_diagonal_identity_on_q(self):
        # adjacent transpositions act only on the path register
        for m, d in [(3, 2), (4, 2), (3, 3), (4, 3)]:
            S = schur_transform(m, 0, d)
            dim = d**m
            slices = _row_slices({label: s.rows.shape[:2] for label, s in S.sectors.items()})
            for a in range(m - 1):
                perm = list(range(m))
                perm[a], perm[a + 1] = perm[a + 1], perm[a]
                P = permutation_operator(tuple(perm), m, d)
                C = S.matrix @ P @ S.matrix.T
                for label, s in S.sectors.items():
                    blk = C[slices[label], slices[label]]
                    four = blk.reshape(s.p_dim, s.q_dim, s.p_dim, s.q_dim)
                    M = np.einsum("iaja->ij", four) / s.q_dim
                    assert np.linalg.norm(four - np.einsum("ij,ab->iajb", M, np.eye(s.q_dim))) < 1e-9
                # off-diagonal sector blocks vanish
                mask = np.ones((dim, dim), dtype=bool)
                for sl in slices.values():
                    mask[sl, sl] = False
                assert np.max(np.abs(C[mask])) < 1e-10

    def test_dense_cap(self, monkeypatch):
        monkeypatch.setenv("EQUICHAN_MAX_DENSE", "8")
        with pytest.raises(ResourceError):
            schur_transform(4, 0, 2)

    def test_dense_cap_holds_for_cached_transforms(self, monkeypatch):
        flags = (False,) * 4
        assert iterated_cg(empty_staircase(2), flags).dim == 16
        monkeypatch.setenv("EQUICHAN_MAX_DENSE", "8")
        with pytest.raises(ResourceError):
            iterated_cg(empty_staircase(2), flags)

    def test_path_rows_follow_their_path(self):
        # the rows of path p on n sites restrict, on the first j sites, to
        # the isotypic component of the path's j-th label; this pins the
        # order of sector.paths to the row blocks without using that order
        for n, d in [(4, 2), (5, 2), (3, 3)]:
            S = schur_transform(n, 0, d)
            for sector in S.sectors.values():
                for idx, path in enumerate(sector.paths):
                    rows = sector.rows[idx]
                    for j in range(1, n):
                        Sj = schur_transform(j, 0, d)
                        Rj = Sj.sectors[path.steps[j]].rows.reshape(-1, d**j)
                        P = Rj.conj().T @ Rj
                        heads = rows.reshape(-1, d**j, d ** (n - j))
                        moved = np.einsum("ab,rbc->rac", P, heads)
                        assert np.linalg.norm(moved - heads) < 1e-10, (n, d, path, j)

    @pytest.mark.parametrize("label,index", [((2, 0), 1), ((2, 0), 5)])
    def test_path_rows_refuse_an_index_outside_the_sector(self, label, index):
        # each sector of schur_transform(2, 0, 2) has one path, so its rows
        # view has p_dim 1 on its first axis and refuses a path index past it
        rows = schur_transform(2, 0, 2).sectors[staircase(*label)].rows
        assert rows.shape[0] == 1
        with pytest.raises(IndexError, match=f"index {index} .* size 1"):
            rows[index]

    def test_row_index_inverts_paths(self):
        # sample-mode emission maps a drawn path key to its row block
        # through sector.path_of_key, a read-only array shared by every caller
        for m, n, d in [(5, 0, 2), (3, 0, 3), (2, 1, 2)]:
            S = schur_transform(m, n, d)
            for sector in S.sectors.values():
                index = sector.path_of_key
                assert np.count_nonzero(index >= 0) == sector.p_dim
                base = 1 + max(max(p.row_sequence(), default=0) for p in sector.paths)
                for idx, path in enumerate(sector.paths):
                    key = sum(r * base**j for j, r in enumerate(path.row_sequence()))
                    assert index[key] == idx
                assert sector.path_of_key is index
                with pytest.raises(ValueError, match="read-only"):
                    index[0] = 0


WEIGHT_BLOCK_TRANSFORMS = [
    ("schur(6,0,3)", lambda: schur_transform(6, 0, 3)),
    ("schur(8,0,2)", lambda: schur_transform(8, 0, 2)),
    ("schur(4,0,4)", lambda: schur_transform(4, 0, 4)),
    ("schur(2,2,3)", lambda: schur_transform(2, 2, 3)),
    ("iterated((2,1,0),(F,T))", lambda: iterated_cg(staircase(2, 1, 0), (False, True))),
]


class TestWeightBlocks:
    @pytest.mark.parametrize(
        "build", [b for _, b in WEIGHT_BLOCK_TRANSFORMS], ids=[n for n, _ in WEIGHT_BLOCK_TRANSFORMS]
    )
    def test_square_orthogonal_partition(self, build):
        t = build()
        blocks = t.weight_blocks
        assert t.weight_blocks is blocks
        rows = np.concatenate([wb.rows for wb in blocks])
        cols = np.concatenate([wb.cols for wb in blocks])
        assert np.array_equal(np.sort(rows), np.arange(t.dim))
        assert np.array_equal(np.sort(cols), np.arange(t.dim))
        assert len({wb.weight for wb in blocks}) == len(blocks)
        rebuilt = np.zeros_like(t.matrix)
        for wb in blocks:
            assert wb.matrix.shape == (len(wb.rows), len(wb.cols))
            assert np.abs(wb.matrix.T @ wb.matrix - np.eye(len(wb.rows))).max() < 1e-12
            assert np.array_equal(wb.matrix, t.matrix[np.ix_(wb.rows, wb.cols)])
            rebuilt[np.ix_(wb.rows, wb.cols)] = wb.matrix
        # the blocks carry the whole matrix: nothing sizable lies outside
        assert np.abs(rebuilt - t.matrix).max() < 1e-12

    @pytest.mark.parametrize(
        "build", [b for _, b in WEIGHT_BLOCK_TRANSFORMS], ids=[n for n, _ in WEIGHT_BLOCK_TRANSFORMS]
    )
    def test_slots_biject_rows_onto_their_class_columns(self, build):
        # emission stores row r of T in output row slot[r]: a column of r's
        # own weight class, with no two rows sharing one; slots[label] is
        # the map on the sector's rows, shaped as they are per path
        t = build()
        slots = t.slots
        assert t.slots is slots
        assert list(slots) == list(t.sectors)
        for label, s in t.sectors.items():
            assert slots[label].shape == s.rows.shape[:2], label
        slot = np.concatenate([v.reshape(-1) for v in slots.values()])
        assert np.array_equal(np.sort(slot), np.arange(t.dim))
        for wb in t.weight_blocks:
            assert np.array_equal(np.sort(slot[wb.rows]), wb.cols)

    def test_rows_carry_their_block_weight(self):
        # the weight of a block is that of every computational basis state
        # in its columns: sum over sites of e_(digit)
        d, n = 3, 4
        for wb in schur_transform(n, 0, d).weight_blocks:
            for col in wb.cols:
                digits = [(col // d ** (n - 1 - k)) % d for k in range(n)]
                assert tuple(np.bincount(digits, minlength=d)) == wb.weight

    def test_arrays_reject_writes(self):
        for wb in schur_transform(4, 0, 3).weight_blocks:
            for arr in (wb.rows, wb.cols, wb.matrix):
                assert not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = arr[0]
            with pytest.raises(AttributeError):
                wb.rows = np.arange(len(wb.rows))  # type: ignore[misc]

    def test_leak_outside_blocks_raises(self):
        from equichan.transforms import PathTransform

        S = schur_transform(3, 0, 2)
        wb = S.weight_blocks[0]
        other = S.weight_blocks[1]
        M = S.matrix.copy()
        M[wb.rows[0], other.cols[0]] = 1e-6
        leaky = PathTransform(S.base, S.flags, M, S.sectors)
        with pytest.raises(RuntimeError, match="outside its weight blocks"):
            leaky.weight_blocks


class TestIteratedCg:
    def test_base_identity(self):
        t = iterated_cg(staircase(4, 2, 1), ())
        assert t.matrix.shape == (dim_gl_irrep(staircase(4, 2, 1)),) * 2
        assert np.allclose(t.matrix, np.eye(t.dim))

    def test_matrix_is_row_major(self):
        # emission and the weight blocks slice the matrix by rows; a stack of
        # transposed path isometries would otherwise come out column-major
        for t in (iterated_cg(staircase(2, 1, 0), (False, True)), schur_transform(6, 0, 3)):
            assert t.matrix.flags.c_contiguous

    def test_path_counts(self):
        t = iterated_cg(staircase(1, 0), (False, True))
        for s in t.sectors.values():
            assert s.p_dim == len(s.paths)
        total = sum(s.p_dim * s.q_dim for s in t.sectors.values())
        assert total == 2 * 4


class TestGeneralCg:
    def test_reproduces_simple(self):
        a = staircase(1, 0)
        g = general_cg(a, a)
        s = simple_cg(a, False)
        assert np.linalg.norm(g.matrix - s.matrix) < 1e-10

    def test_multiplicity_two(self):
        a = staircase(2, 1, 0)
        g = general_cg(a, a)
        assert len(g.blocks[staircase(3, 2, 1)]) == 2

    def test_negative_labels(self):
        g = general_cg(staircase(1, -1), staircase(1, 0))
        sizes = {str(label): rows.shape[1] for label, rows in g.blocks.items()}
        assert sizes == {"(2,-1)": 4, "(1,0)": 2}
        assert g.target_dim == 6

    def test_block_action(self, rng):
        # each block intertwines the product action with the canonical one,
        # and distinct copies of one label are orthogonal; c is the largest
        # multiplicity of the product
        for a_label, b_label, c in [
            (staircase(2, 0), staircase(1, 1), 1),
            (staircase(2, 1, 0), staircase(2, 1, 0), 2),
            (staircase(1, 0, -1), staircase(2, 1, 0), 2),
        ]:
            a, b = canonical_embedding(a_label), canonical_embedding(b_label)
            g = general_cg(a_label, b_label)
            assert max(len(copies) for copies in g.blocks.values()) == c
            for _ in range(3):
                U = haar_unitary(a_label.d, rng)
                prod = np.kron(group_element(a, a_label, U), group_element(b, b_label, U))
                for label, copies in g.blocks.items():
                    r = group_element(canonical_embedding(label), label, U)
                    for rows in copies:
                        assert np.linalg.norm(rows @ prod - r @ rows) < 1e-12, (a_label, b_label)
            for label, copies in g.blocks.items():
                for j, rows in enumerate(copies):
                    for other in copies[:j]:
                        cross = rows @ other.T
                        assert np.abs(cross).max() < 1e-12, (a_label, b_label, label)

    def test_multiplicities_match_lr_exhaustively(self):
        # the construction raises on any mismatch with the LR coefficient;
        # sweep all products with up to 5 boxes total, d <= 3
        for d in (2, 3):
            for a in range(0, 6):
                for b in range(0, 6 - a):
                    for lam in partitions_of(a, d):
                        for mu in partitions_of(b, d):
                            g = general_cg(lam, mu)
                            for label, copies in g.blocks.items():
                                assert len(copies) == lr_coeff(lam, mu, label)


class TestBuilderCache:
    def test_builders_are_memoised_by_functools(self):
        import equichan.channels as channels
        import equichan.transforms as transforms

        for builder in (
            canonical_realization,
            dual_structure,
            simple_cg,
            general_cg,
            transforms._iterated_cg,
            channels._classification_isometry,
        ):
            assert callable(builder.cache_info) and callable(builder.cache_clear)

    def test_simple_cg_has_one_call_form(self):
        label = staircase(2, 1)
        first = simple_cg(label, False)
        size = simple_cg.cache_info().currsize
        assert simple_cg(label, False) is first
        assert simple_cg(staircase(2, 1), False) is first
        assert simple_cg.cache_info().currsize == size
        # no keyword or defaulted form can open a second cache entry
        with pytest.raises(TypeError):
            simple_cg(label, dual=False)
        with pytest.raises(TypeError):
            simple_cg(label)
        # a dual that is neither False nor True opens none either; 1 and
        # np.True_ equal True and share its entry
        for bad in ("no", None, 2):
            with pytest.raises(TypeError, match="dual"):
                simple_cg(label, bad)
        assert simple_cg.cache_info().currsize == size
        assert simple_cg(label, 1) is simple_cg(label, True) is simple_cg(label, np.True_)

    def test_builders_take_labels_not_realizations(self):
        label = staircase(1, 0)
        real = canonical_realization(label)
        with pytest.raises(TypeError):
            simple_cg(real, False)
        with pytest.raises(TypeError):
            general_cg(real, real)
        with pytest.raises(TypeError):
            canonical_realization(label, 2)

    def test_iterated_cg_accepts_any_flag_sequence(self):
        mu = staircase(1, 0)
        assert iterated_cg(mu, [False, True]) is iterated_cg(mu, (False, True))

    @pytest.mark.parametrize("flags", [(True, False), (False, True, False)])
    def test_iterated_cg_takes_defining_sites_first(self, flags, monkeypatch):
        # the path enumerator adds k boxes, then removes l: a conjugate site
        # before a defining one is refused before the dense cap is read
        monkeypatch.setenv("EQUICHAN_MAX_DENSE", "1")
        with pytest.raises(ValueError, match="defining sites before conjugate sites"):
            iterated_cg(staircase(1, 0), flags)

    def test_classification_isometry_call_forms_share_an_entry(self):
        from equichan.channels import classification_isometry

        assert classification_isometry(2, 1, 2) is classification_isometry(m=2, n=1, d=2)

    def test_general_cg_rejects_mixed_d(self):
        with pytest.raises(ValueError, match="different d"):
            general_cg(staircase(1, 0), staircase(1, 0, 0))

    def test_cached_arrays_are_read_only(self):
        # and every array of transform coefficients is real float64; only
        # the integer slots and weights are exempt from that
        from equichan.channels import (
            _cg_restriction_tensor,
            _embed_trace_tensor,
            classification_isometry,
        )

        lam, adjoint = staircase(2, 1, 0), staircase(1, 0, -1)
        real = canonical_realization(lam)
        arrays = {
            "simple_cg": simple_cg(lam, True).matrix,
            "general_cg": general_cg(lam, staircase(1, 0, 0)).matrix,
            "iterated_cg": iterated_cg(lam, (False, True)).matrix,
            "schur_transform": schur_transform(2, 1, 2).matrix,
            "path rows": schur_transform(2, 0, 2).sectors[staircase(1, 1)].rows[0],
            "slots": schur_transform(2, 0, 2).slots[staircase(1, 1)],
            "raising": real.raising,
            "weights": real.weights,
            "dual_structure": dual_structure(lam),
            "classification_isometry": classification_isometry(1, 1, 2).matrix,
            "embed-trace tensor": _embed_trace_tensor(lam, lam, adjoint),
            "CG restriction tensor": _cg_restriction_tensor(lam, lam, adjoint)[0],
        }
        keyed = {
            "simple_cg": simple_cg(lam, True).blocks,
            "general_cg": general_cg(lam, staircase(1, 0, 0)).blocks,
            "classification_isometry": classification_isometry(2, 1, 2).blocks,
        }
        for name, blocks in keyed.items():
            arrays.update({f"{name} rows {key}": rows for key, rows in blocks.items()})
        transforms = {
            "schur_transform": schur_transform(2, 1, 2),
            "iterated_cg": iterated_cg(lam, (False, True)),
        }
        for name, t in transforms.items():
            for label, s in t.sectors.items():
                arrays[f"{name} sector {label}"] = s.rows
                arrays[f"{name} slots {label}"] = t.slots[label]
        for name, arr in arrays.items():
            assert not arr.flags.writeable, name
            idx = (0,) * arr.ndim
            with pytest.raises(ValueError, match="read-only"):
                arr[idx] = arr[idx]  # a no-op, were the write allowed
            if "slots" not in name and name != "weights":
                assert arr.dtype == np.float64, name

    def test_weight_blocks_hash_and_compare_by_identity(self):
        # a weight block holds arrays, so like the other cached records it
        # hashes and compares as the object it is, not field by field
        blocks = schur_transform(3, 0, 2).weight_blocks
        assert len(set(blocks)) == len(blocks)
        for wb in blocks:
            assert hash(wb) == hash(wb)
            assert wb == wb
            assert wb != replace(wb)
        assert blocks[0] != blocks[1]

    def test_cache_edit_fails_at_the_write(self):
        # the cached records are frozen and their mappings read-only, so
        # every edit raises where it is made and the cache stays intact
        from equichan.channels import classification_isometry

        with pytest.raises(ValueError, match="read-only"):
            simple_cg(staircase(1, 0), False).matrix[:] = 0
        S = schur_transform(2, 0, 2)
        cg = simple_cg(staircase(1, 0), False)
        iso = classification_isometry(1, 1, 2)
        label, key = staircase(1, 1), next(iter(iso.blocks))
        edits = [
            (AttributeError, lambda: S.sectors.pop(label)),
            (AttributeError, lambda: cg.blocks.clear()),
            (TypeError, lambda: operator.setitem(S.sectors, label, S.sectors[label])),
            (TypeError, lambda: operator.delitem(cg.blocks, staircase(2, 0))),
            (TypeError, lambda: operator.setitem(S.slots, label, S.slots[label])),
            (TypeError, lambda: operator.delitem(iso.blocks, key)),
            (FrozenInstanceError, lambda: setattr(S, "matrix", np.zeros((4, 4)))),
            (FrozenInstanceError, lambda: setattr(S, "slots", {})),
            (FrozenInstanceError, lambda: setattr(S.sectors[label], "rows", np.zeros((1, 1, 4)))),
            (FrozenInstanceError, lambda: setattr(cg, "blocks", {})),
            (FrozenInstanceError, lambda: setattr(iso, "matrix", np.eye(8))),
        ]
        for error, edit in edits:
            with pytest.raises(error):
                edit()
        rho = np.eye(4) / 4
        out = symmetrize(rho, 2, 2).output
        assert np.linalg.norm(out - symmetrize_brute(rho, 2, 2)) < 1e-10


def _invariant_triple_vec(lam, mu, nu):
    """vec of the CG restriction to Q_nu, with the conjugate slot rotated to
    canonical dual coordinates; an invariant vector in Q_lam (x) Q_mu (x) Q_nubar."""
    g = general_cg(lam, mu)
    rows = g.blocks[nu][0]  # (q_nu, q_lam*q_mu)
    T = rows.conj().T.reshape(dim_gl_irrep(lam), dim_gl_irrep(mu), dim_gl_irrep(nu))
    Z = dual_structure(nu)
    return np.einsum("abg,hg->abh", T, Z.conj().T)


class TestKeyedLayout:
    def test_absent_key_raises_key_error(self):
        from equichan.channels import classification_isometry, direct_sum_layout

        # (3,0) is no one-box step from (1,0), no label of (1,0) (x) (1,0),
        # no sector of two sites and no gamma at (m, n, d) = (2, 1, 2)
        absent = staircase(3, 0)
        S = schur_transform(2, 0, 2)
        keyed = {
            "simple_cg": simple_cg(staircase(1, 0), False).blocks,
            "general_cg": general_cg(staircase(1, 0), staircase(1, 0)).blocks,
            "schur sector": S.sectors,
            "schur slots": S.slots,
            "direct sum": direct_sum_layout(S),
        }
        for name, blocks in keyed.items():
            with pytest.raises(KeyError):
                blocks[absent]
        iso = classification_isometry(2, 1, 2)
        with pytest.raises(KeyError):
            iso.blocks[(staircase(2, 0), staircase(1, 0), absent)]

    def test_absent_label_has_multiplicity_zero(self):
        # the copies of a label are the first axis of its view; a label
        # with LR coefficient 0 has no key, so no copy
        a = staircase(2, 1, 0)
        g = general_cg(a, a)
        labels = partitions_of(6, 3)
        assert any(lr_coeff(a, a, label) == 0 for label in labels)
        for label in labels:
            assert len(g.blocks.get(label, ())) == lr_coeff(a, a, label), label
            assert (label in g.blocks) == (lr_coeff(a, a, label) > 0), label


    def test_views_are_the_row_slices(self):
        # every keyed form follows the one layout rule of _row_slices: each
        # view is the block of rows its slice names, and the slices tile
        # the rows in dict order
        from equichan.channels import classification_isometry, direct_sum_layout

        isometries = {
            "simple_cg": simple_cg(staircase(2, 1, 0), True),
            "general_cg": general_cg(staircase(2, 1, 0), staircase(2, 1, 0)),
            "classification_isometry": classification_isometry(2, 1, 2),
        }
        transforms = {
            "schur_transform": schur_transform(3, 0, 2),
            "iterated_cg": iterated_cg(staircase(2, 1, 0), (False, True)),
        }
        keyed = {name: (iso.matrix, iso.blocks) for name, iso in isometries.items()}
        for name, t in transforms.items():
            keyed[name] = (t.matrix, {label: s.rows for label, s in t.sectors.items()})
        for name, (matrix, views) in keyed.items():
            slices = _row_slices({k: v.shape[:-1] for k, v in views.items()})
            stops = [0] + [sl.stop for sl in slices.values()]
            assert [sl.start for sl in slices.values()] == stops[:-1], name
            assert stops[-1] == matrix.shape[0], name
            for key, view in views.items():
                rows = matrix[slices[key]]
                assert np.shares_memory(view, rows), (name, key)
                assert np.array_equal(view.reshape(rows.shape), rows), (name, key)
        # a sector's slots are the same slice of the flat bijection of rows
        # onto class columns
        for name, t in transforms.items():
            slot = np.empty(t.dim, dtype=np.intp)
            for wb in t.weight_blocks:
                slot[wb.rows] = wb.cols
            slices = _row_slices({label: s.rows.shape[:2] for label, s in t.sectors.items()})
            for label, s in t.sectors.items():
                assert s.rows.shape == (s.p_dim, dim_gl_irrep(label), t.dim), (name, label)
                assert np.array_equal(t.slots[label].reshape(-1), slot[slices[label]]), (name, label)
        S = schur_transform(3, 0, 2)
        layout = direct_sum_layout(S)
        assert list(layout) == list(S.sectors)
        start = 0
        for label, s in S.sectors.items():
            assert layout[label] == slice(start, start + s.q_dim), label
            start += s.q_dim


class TestMultiplicityConsistency:
    @pytest.mark.parametrize(
        "lam,mu,nu",
        [
            (staircase(1, 0), staircase(1, 0), staircase(2, 0)),
            (staircase(1, 0), staircase(1, 0), staircase(1, 1)),
            (staircase(2, 0), staircase(1, 0), staircase(2, 1)),
            (staircase(2, 1), staircase(1, 0), staircase(2, 2)),
            (staircase(1, 0, 0), staircase(1, 1, 0), staircase(2, 1, 0)),
            (staircase(2, 0, 0), staircase(1, 0, 0), staircase(2, 1, 0)),
        ],
        ids=str,
    )
    def test_vectorization_relation(self, lam, mu, nu):
        # vec((U_CG^{lam,mu})* on Q_nu) is collinear with the dualized
        # vec((U_CG^{mu,dual nu})* on Q_dual-lam), with norm ratio
        # sqrt(dim nu / dim lam); multiplicity-free triples only.
        v1 = _invariant_triple_vec(lam, mu, nu)  # slots (lam, mu, dual nu)
        v2 = _invariant_triple_vec(mu, nu.dual(), lam.dual())  # (mu, dual nu, lam)
        v2 = np.moveaxis(v2, 2, 0)  # -> (lam, mu, dual nu)
        n1, n2 = np.linalg.norm(v1), np.linalg.norm(v2)
        assert abs(n1 - np.sqrt(dim_gl_irrep(nu))) < 1e-8
        assert abs(n2 - np.sqrt(dim_gl_irrep(lam))) < 1e-8
        scalar = np.vdot(v2.reshape(-1), v1.reshape(-1)) / (n1 * n2)
        assert abs(abs(scalar) - 1.0) < 1e-8
