import dataclasses

import numpy as np
import pytest

from equichan.realize import (
    CONSTRUCTION_TOL,
    IrrepRealization,
    ambient_weights,
    canonical_path,
    canonical_realization,
    dual_generators,
    dual_structure,
    gt_patterns,
)
from equichan.staircases import (
    dim_gl_irrep,
    empty_staircase,
    enumerate_staircases,
    partitions_of,
    staircase,
)
from equichan.transforms import canonical_embedding
from equichan.verify import haar_unitary
from oracles import (
    ambient_generator,
    bad_commutators,
    expm_antihermitian,
    full_generators,
    group_element,
)


ALL_LABELS = [
    staircase(1, 0),
    staircase(2, 0),
    staircase(1, 1),
    staircase(2, 1),
    staircase(3, 1),
    staircase(1, -1),
    staircase(0, -2),
    staircase(2, -1),
    staircase(1, 0, 0),
    staircase(2, 1, 0),
    staircase(1, 1, -1),
    staircase(0, 0, -1),
]


class TestCanonicalPath:
    def test_partition_fill_order(self):
        path = canonical_path(staircase(2, 1))
        assert [p.entries for p in path] == [(0, 0), (1, 0), (2, 0), (2, 1)]

    def test_mixed_descent(self):
        path = canonical_path(staircase(1, -2, -2))
        assert path[0].is_empty and path[-1] == staircase(1, -2, -2)
        sizes = [p.pos_size for p in path]
        assert max(sizes) == 1
        for prev, nxt in zip(path, path[1:]):
            assert abs(nxt.size - prev.size) == 1


class TestCanonicalRealization:
    @pytest.mark.parametrize("label", ALL_LABELS, ids=str)
    def test_structure(self, label):
        r = canonical_realization(label)
        r.validate()
        assert r.dim == dim_gl_irrep(label)
        V = canonical_embedding(label)
        assert np.isrealobj(V)
        assert np.linalg.norm(V.conj().T @ V - np.eye(r.dim)) < CONSTRUCTION_TOL
        # embedding consistent with explicit ambient generators
        d = label.d
        factors = (False,) * label.pos_size + (True,) * label.neg_size
        G = full_generators(r)
        for i in range(d):
            for j in range(d):
                amb = ambient_generator(d, i, j, factors)
                got = V.T @ amb @ V
                assert np.linalg.norm(got - G[i, j]) < 1e-10

    def test_defining_rep_is_identity_embedding(self):
        assert np.allclose(canonical_embedding(staircase(1, 0, 0)), np.eye(3))

    def test_symmetric_square(self):
        # the 3-dim symmetric subspace of C^2 (x) C^2
        V = canonical_embedding(staircase(2, 0))
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        assert np.linalg.norm(swap @ V - V) < 1e-10
        span = V @ V.T
        expected = (np.eye(4) + swap) / 2
        assert np.linalg.norm(span - expected) < 1e-10

    def test_adjoint_is_traceless_subspace(self):
        # orthogonal complement of vec(identity)/sqrt(2) inside C^2 (x) conj C^2
        r = canonical_realization(staircase(1, -1))
        V = canonical_embedding(staircase(1, -1))
        singlet = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        assert np.linalg.norm(singlet @ V) < 1e-10
        assert r.dim == 3

    def test_highest_weight_first(self):
        for label in ALL_LABELS:
            r = canonical_realization(label)
            assert tuple(r.weights[0]) == label.entries

    def test_weights_sorted_descending(self):
        r = canonical_realization(staircase(2, 1, 0))
        weights = [tuple(w) for w in r.weights]
        assert weights == sorted(weights, reverse=True)

    def test_group_element_unitary(self, rng):
        label = staircase(2, 1)
        r = canonical_realization(label)
        U = haar_unitary(2, rng)
        R = group_element(canonical_embedding(label), label, U)
        assert np.linalg.norm(R @ R.conj().T - np.eye(r.dim)) < 1e-10

    def test_group_element_is_exp_of_generators(self, rng):
        # U = exp(X) for X anti-Hermitian and traceless maps to
        # exp(sum_ij X_ij G_ij) on every realized label
        labels = {
            s
            for d in (2, 3)
            for m in range(5)
            for k in range(5 - m)
            for s in enumerate_staircases(m, k, d)
        }
        worst = 0.0
        for label in sorted(labels, key=lambda s: (s.d, s.entries)):
            r = canonical_realization(label)
            V = canonical_embedding(label)
            d = label.d
            for _ in range(3):
                H = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                H = H + H.conj().T
                X = 1j * (H - np.trace(H) / d * np.eye(d))
                U = expm_antihermitian(X)
                A = np.einsum("ij,ijab->ab", X, full_generators(r))
                gap = np.linalg.norm(group_element(V, label, U) - expm_antihermitian(A))
                worst = max(worst, gap)
        assert len(labels) == 56
        assert worst < 1e-12, worst

    def test_embedding_intertwines_group(self, rng):
        # V r(U) = U^(x a) (x) conj U^(x b) V
        for label in [staircase(2, 1), staircase(1, -1), staircase(2, -1)]:
            V = canonical_embedding(label)
            for _ in range(3):
                U = haar_unitary(label.d, rng)
                big = np.eye(1, dtype=complex)
                for dual in (False,) * label.pos_size + (True,) * label.neg_size:
                    big = np.kron(big, U.conj() if dual else U)
                resid = np.linalg.norm(big @ V - V @ group_element(V, label, U))
                assert resid < 1e-8


    def test_basis_diagonalizes_chain_casimirs(self):
        # each basis vector is the GT pattern of gt_patterns at its index:
        # the Casimir C_k = sum_{i,j<k} E_ij E_ji of gl(k) acts on it by
        # sum_i lambda_{k,i} (lambda_{k,i} + k + 1 - 2i) of its row k
        # q <= 150: the 13 larger labels of this range (q up to 540) would
        # add about 2 s, half in cold builds and half in the dense stacks and
        # Casimirs, to the 0.4 s of the 130 kept
        labels = {
            s
            for d in (2, 3, 4)
            for m in range(5)
            for k in range(4)
            for s in enumerate_staircases(m, k, d)
            if dim_gl_irrep(s) <= 150
        }
        assert len(labels) == 130
        worst = 0.0
        for label in labels:
            r = canonical_realization(label)
            d = label.d
            patterns = gt_patterns(label)
            full = full_generators(r)
            for k in range(1, d + 1):
                G = full[:k, :k]
                casimir = (G @ G.transpose(1, 0, 2, 3)).sum(axis=(0, 1))
                expected = [
                    sum(x * (x + k + 1 - 2 * i) for i, x in enumerate(pat[d - k], start=1))
                    for pat in patterns
                ]
                worst = max(worst, np.abs(casimir - np.diag(expected)).max())
        assert worst < 1e-10, worst

    def test_gt_patterns_are_memoised(self):
        # box_block reads the patterns of two labels per block: a second call
        # returns the cached tuple, which no caller can mutate
        first = gt_patterns(staircase(2, 1, -1))
        assert isinstance(first, tuple)
        assert gt_patterns(staircase(2, 1, -1)) is first

    def test_cold_build_runs_no_eigensolver(self, monkeypatch):
        import equichan.transforms

        def forbidden(*args):
            raise AssertionError("called during a cold realization build")

        labels = ALL_LABELS + [staircase(5, 2, -3), staircase(2, 1, 0, -1)]
        warm = {label: canonical_realization(label) for label in labels}
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(equichan.transforms, "simple_cg", forbidden)
        for label in labels:
            cold = canonical_realization.__wrapped__(label)
            assert np.array_equal(cold.raising, warm[label].raising)
            assert np.array_equal(cold.weights, warm[label].weights)


class TestDualStructure:
    @pytest.mark.parametrize(
        "label",
        [staircase(1, 0), staircase(2, 0), staircase(2, 1), staircase(1, -1),
         staircase(2, 1, 0), staircase(1, 0, 0)],
        ids=str,
    )
    def test_defining_relation(self, label):
        Z = dual_structure(label)
        a = canonical_realization(label.dual())
        ag = full_generators(a)
        bg = dual_generators(full_generators(canonical_realization(label)))
        for i in range(label.d):
            for j in range(label.d):
                assert np.linalg.norm(Z @ ag[i, j] - bg[i, j] @ Z) < 1e-9
        assert np.linalg.norm(Z @ Z.T - np.eye(Z.shape[0])) < 1e-10

    def test_group_level(self, rng):
        label = staircase(2, 1, 0)
        Z = dual_structure(label)
        V = canonical_embedding(label)
        Vd = canonical_embedding(label.dual())
        for _ in range(3):
            U = haar_unitary(3, rng)
            resid = np.linalg.norm(
                Z @ group_element(Vd, label.dual(), U) - np.conj(group_element(V, label, U)) @ Z
            )
            assert resid < 1e-8


def test_ambient_weights_match_digits():
    w = ambient_weights(2, (False, True))
    # index 0 = |0> (x) conj|0>: weight e_0 - e_0 = 0
    assert tuple(w[0]) == (0, 0)
    # index 1 = |0> (x) conj|1>: weight e_0 - e_1
    assert tuple(w[1]) == (1, -1)


def test_four_row_realizations():
    from equichan.transforms import simple_cg

    for entries in [(1, 0, 0, 0), (1, 1, 0, 0), (2, 1, 0, 0), (1, 1, 1, 1)]:
        r = canonical_realization(staircase(*entries))
        r.validate()
        assert r.dim == dim_gl_irrep(staircase(*entries))
    cg = simple_cg(staircase(1, 1, 0, 0), False)
    assert [str(label) for label in cg.blocks] == ["(2,1,0,0)", "(1,1,1,0)"]
    cg.validate()


class TestValidate:
    @pytest.mark.parametrize("label", ALL_LABELS, ids=str)
    def test_passes_on_canonical_realizations(self, label):
        r = canonical_realization(label)
        r.validate()
        assert bad_commutators(full_generators(r), CONSTRUCTION_TOL) == []

    @pytest.mark.parametrize("label", ALL_LABELS, ids=str)
    def test_rejects_one_perturbed_generator_entry(self, label):
        # the entry of largest modulus of the last raising operator, on its root
        r = canonical_realization(label)
        R = r.raising.copy()
        R[-1].flat[np.argmax(np.abs(R[-1]))] += 1e-6
        bad = dataclasses.replace(r, raising=R)
        assert bad_commutators(full_generators(bad), CONSTRUCTION_TOL)
        with pytest.raises(ValueError, match="bad commutator"):
            bad.validate()

    @pytest.mark.parametrize("label", ALL_LABELS, ids=str)
    def test_rejects_an_entry_off_the_root(self, label):
        # entry (q - 1, 0) of e_0 takes the highest weight vector to the
        # lowest, off the root e_0 - e_1: at d = 2 it moves [e_0, f_0] by
        # only 1e-12, and the Cartan action is what fails
        r = canonical_realization(label)
        R = r.raising.copy()
        R[0, -1, 0] += 1e-6
        bad = dataclasses.replace(r, raising=R)
        assert bad_commutators(full_generators(bad), CONSTRUCTION_TOL)
        with pytest.raises(ValueError, match="bad commutator"):
            bad.validate()

    def test_holds_only_the_raising_operators(self):
        fields = [f.name for f in dataclasses.fields(IrrepRealization)]
        assert fields == ["label", "raising", "weights"]
        for label in ALL_LABELS:
            r = canonical_realization(label)
            assert r.raising.shape == (label.d - 1, r.dim, r.dim)
