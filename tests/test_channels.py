import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import equichan
import equichan.channels as channels
from equichan.channels import (
    ChoiChannel,
    ChoiMatrix,
    ExtremalSpec,
    ExtremalTriple,
    KrausChannel,
    NotSymmetricError,
    SymmetryReport,
    block_decompose_choi,
    check_symmetries,
    cloning_spec,
    classification_isometry,
    direct_sum_layout,
    dual_uss_channel,
    enumerate_extremal_triples,
    extremal_choi,
    factored_channel,
    gamma_min,
    irrep_channel,
    purity_spec,
    symmetrization_spec,
    uss_channel,
)
from equichan.limits import ResourceError
from equichan.realize import dual_structure
from equichan.staircases import (
    dim_gl_irrep,
    dim_perm_irrep,
    lr_coeff,
    partitions_of,
    staircase,
)
from equichan.suites import SWEEP_SHAPES, all_specs
from equichan.transforms import canonical_embedding, schur_transform
from equichan.verify import haar_unitary

from oracles import (
    commutant_basis,
    embed_trace_ops,
    generator_covariance_residual,
    group_element,
    random_state,
    symmetrize_brute,
    symmetry_residuals_kron,
    tensor_power_kron,
)

# the six (m, n, d) shapes of the benchmark's cold three-way check
CROSSCHECK_SHAPES = [(2, 2, 3), (3, 3, 2), (4, 2, 2), (2, 3, 3), (4, 3, 2), (5, 1, 2)]


def random_cptp_choi(m, n, d, rng, anc=None):
    """Choi of a random channel from a Gaussian Stinespring isometry."""
    din, dout = d**m, d**n
    anc = din if anc is None else anc
    A = rng.normal(size=(dout * anc, din)) + 1j * rng.normal(size=(dout * anc, din))
    V, _ = np.linalg.qr(A)
    C = np.zeros((din * dout, din * dout), dtype=complex)
    for i in range(din):
        for j in range(din):
            E = np.zeros((din, din), dtype=complex)
            E[i, j] = 1.0
            big = (V @ E @ V.conj().T).reshape(dout, anc, dout, anc)
            C[i * dout : (i + 1) * dout, j * dout : (j + 1) * dout] = np.einsum(
                "aibi->ab", big
            )
    return ChoiMatrix(C, m, n, d)


VEC_I = np.array([1.0, 0, 0, 1.0])
OMEGA = np.outer(VEC_I, VEC_I) / 2


class TestApplyChannel:
    def test_identity_choi(self, rng):
        C = ChoiMatrix(np.outer(VEC_I, VEC_I), 1, 1, 2)
        rho = random_state(2, rng)
        assert np.linalg.norm(C.apply(rho) - rho) < 1e-12

    def test_universal_not_by_hand(self):
        C = ChoiMatrix((2 / 3) * (np.eye(4) - OMEGA), 1, 1, 2)
        rho = np.diag([1.0, 0.0])
        out = C.apply(rho)
        assert np.linalg.norm(out - np.diag([1 / 3, 2 / 3])) < 1e-12

    def test_depolarizing(self, rng):
        C = ChoiMatrix(np.kron(np.eye(2), np.eye(2) / 2), 1, 1, 2)
        rho = random_state(2, rng)
        assert np.linalg.norm(C.apply(rho) - np.eye(2) / 2) < 1e-12

    def test_trace_preserved(self, rng):
        spec = symmetrization_spec(2, 2)
        C = extremal_choi(spec)
        rho = random_state(4, rng)
        assert abs(np.trace(C.apply(rho)) - 1) < 1e-10

    def test_shape_mismatch(self):
        C = ChoiMatrix(np.outer(VEC_I, VEC_I), 1, 1, 2)
        with pytest.raises(ValueError):
            C.apply(np.eye(3))

    def test_matrix_shape_checked(self):
        # a Choi matrix of a 2 -> 2 map is 4 x 4, for ChoiChannel as for ChoiMatrix
        with pytest.raises(ValueError, match="matrix shape"):
            ChoiChannel(np.eye(5), 2, 2)
        with pytest.raises(ValueError, match="matrix shape"):
            ChoiMatrix(np.eye(5), 1, 1, 2)


class TestCheckSymmetries:
    def test_symmetrization_channel_passes(self, rng):
        C = extremal_choi(symmetrization_spec(2, 2))
        rep = check_symmetries(C, trials=10, rng=rng)
        assert rep.max_unitary_residual < 1e-9
        assert rep.max_permutation_residual < 1e-9
        assert rep.passed(1e-8)

    def test_identity_channel(self, rng):
        C = ChoiMatrix(np.outer(VEC_I, VEC_I), 1, 1, 2)
        rep = check_symmetries(C, trials=10, rng=rng)
        assert rep.max_unitary_residual < 1e-12

    def test_negative_control_flagged(self, rng):
        # trace out site 2, emit a fixed state: breaks both symmetries
        sigma = np.diag([1.0, 0.0])

        def phi(rho):
            red = np.einsum("iaja->ij", rho.reshape(2, 2, 2, 2))
            return np.kron(red, sigma)

        C = np.zeros((16, 16), dtype=complex)
        for i in range(4):
            for j in range(4):
                E = np.zeros((4, 4), dtype=complex)
                E[i, j] = 1
                C[i * 4 : (i + 1) * 4, j * 4 : (j + 1) * 4] = phi(E)
        choi = ChoiMatrix(C, 2, 2, 2)
        choi.validate()
        rep = check_symmetries(choi, trials=5, rng=rng)
        assert rep.max_permutation_residual > 0.1
        assert not rep.passed(1e-8)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_rejected(self, trials):
        C = extremal_choi(symmetrization_spec(2, 2))
        with pytest.raises(ValueError, match=f"need trials >= 1, got trials={trials}"):
            check_symmetries(C, trials=trials)

    def test_tol_argument_removed(self):
        # the residuals are returned; the threshold is SymmetryReport.passed's
        C = extremal_choi(symmetrization_spec(2, 2))
        with pytest.raises(TypeError, match="tol"):
            check_symmetries(C, trials=2, tol=1e-30)

    @pytest.mark.parametrize("trials", [True, False, 2.0, "3", None])
    def test_non_integer_trials_rejected(self, trials):
        C = extremal_choi(symmetrization_spec(2, 2))
        with pytest.raises(ValueError, match="need an integer trials"):
            check_symmetries(C, trials=trials)

    def test_numpy_integer_trials_accepted(self):
        C = extremal_choi(symmetrization_spec(2, 2))
        rep = check_symmetries(C, trials=np.int64(2))
        assert len(rep.unitary_residuals) == 2

    @pytest.mark.parametrize("rng", [5, np.random.RandomState(0), "seed"])
    def test_non_generator_rng_rejected(self, rng):
        C = extremal_choi(symmetrization_spec(2, 2))
        with pytest.raises(TypeError, match="rng must be a numpy.random.Generator"):
            check_symmetries(C, trials=2, rng=rng)

    @staticmethod
    def _check_against_kron(choi, seed):
        rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        rep = check_symmetries(choi, trials=4, rng=rng)
        ref_u, ref_p = symmetry_residuals_kron(
            choi.matrix, choi.m, choi.n, choi.d, 4, ref_rng
        )
        np.testing.assert_allclose(rep.unitary_residuals, ref_u, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            rep.permutation_residuals, ref_p, rtol=1e-12, atol=1e-12
        )
        # the same Haar draws: the generator ends in the reference's state
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        return rep

    @pytest.mark.parametrize("m,n,d", [(2, 2, 2), (3, 1, 2), (1, 3, 2), (2, 2, 3)])
    def test_symmetric_matches_kron_reference(self, m, n, d):
        for idx, spec in enumerate(all_specs(m, n, d)):
            rep = self._check_against_kron(extremal_choi(spec), seed=idx)
            assert rep.passed(1e-10)

    @pytest.mark.parametrize("m,n,d", [(1, 1, 2), (2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 1, 3)])
    def test_non_symmetric_matches_kron_reference(self, m, n, d, rng):
        D = d ** (m + n)
        M = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
        rep = self._check_against_kron(ChoiMatrix(M, m, n, d), seed=m + n + d)
        assert min(rep.unitary_residuals) > 1.0
        assert min(rep.permutation_residuals, default=2.0) > 1.0

    @pytest.mark.parametrize("m,n,d", [(2, 3, 3), (4, 3, 2)])
    def test_workload_shapes_match_kron_reference(self, m, n, d, rng):
        # d^m < d^n and d^m > d^n: applying one leg group's operator to the
        # other, or skipping the conjugate on the column legs, moves every
        # unitary residual away from the oracle's
        rep = self._check_against_kron(extremal_choi(all_specs(m, n, d)[0]), seed=0)
        assert rep.passed(1e-10)
        D = d ** (m + n)
        M = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
        rep = self._check_against_kron(ChoiMatrix(M, m, n, d), seed=m + n + d)
        assert min(rep.unitary_residuals) > 1.0
        assert min(rep.permutation_residuals) > 1.0

    @pytest.mark.parametrize("m,n,d", [(2, 3, 3), (4, 3, 2)])
    def test_matrix_is_never_written(self, m, n, d, rng):
        # the workspace holds every intermediate; the Choi matrix is only read
        D = d ** (m + n)
        for M in (
            extremal_choi(all_specs(m, n, d)[0]).matrix,
            rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D)),
        ):
            before = M.copy()
            check_symmetries(ChoiMatrix(M, m, n, d), trials=2, rng=rng)
            assert M.tobytes() == before.tobytes()

    @pytest.mark.parametrize("m,n,d", [(2, 3, 3), (4, 3, 2)])
    @pytest.mark.parametrize("layout", ["fortran", "transposed", "real"])
    def test_any_layout_gives_its_contiguous_report(self, m, n, d, layout, rng):
        D = d ** (m + n)
        for M in (
            extremal_choi(all_specs(m, n, d)[0]).matrix,
            rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D)),
        ):
            M = {
                "fortran": np.asfortranarray(M),
                "transposed": M.T,
                "real": M.real,
            }[layout]
            assert not M.flags.c_contiguous or M.dtype != complex
            plain = np.ascontiguousarray(M, dtype=complex)
            rep, ref = (
                check_symmetries(ChoiMatrix(A, m, n, d), trials=2, rng=np.random.default_rng(5))
                for A in (M, plain)
            )
            for got, want in (
                (rep.unitary_residuals, ref.unitary_residuals),
                (rep.permutation_residuals, ref.permutation_residuals),
            ):
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_tensor_power_is_kron_chain(self, d, rng):
        U = haar_unitary(d, rng)
        for k in range(4):
            assert np.array_equal(channels._tensor_power(U, k), tensor_power_kron(U, k))

    def test_residuals_equal_with_kron_tensor_powers(self, monkeypatch):
        # the broadcast tensor powers hold the entries of the kron chain, so
        # every residual is the same float
        chois = [extremal_choi(all_specs(*shape)[0]) for shape in CROSSCHECK_SHAPES]

        def reports():
            return [
                check_symmetries(c, trials=3, rng=np.random.default_rng(seed))
                for seed, c in enumerate(chois)
            ]

        got = reports()
        monkeypatch.setattr(channels, "_tensor_power", tensor_power_kron)
        for rep, ref in zip(got, reports(), strict=True):
            assert rep.unitary_residuals == ref.unitary_residuals
            assert rep.permutation_residuals == ref.permutation_residuals


class TestSymmetryReport:
    @pytest.mark.parametrize("residuals", [[1e-15, np.nan], [np.nan, 1e-15]])
    def test_nan_residual_propagates_and_fails(self, residuals):
        for rep, field in (
            (SymmetryReport(residuals, [0.0]), "max_unitary_residual"),
            (SymmetryReport([0.0], residuals), "max_permutation_residual"),
        ):
            assert np.isnan(getattr(rep, field))
            assert not rep.passed(1e-8)

    def test_max_and_empty_lists(self):
        rep = SymmetryReport([1e-15, 3e-9, 2e-12], [])
        assert rep.max_unitary_residual == 3e-9
        assert rep.max_permutation_residual == 0.0
        assert rep.passed(1e-8)
        assert not rep.passed(1e-9)


class TestChoiValidate:
    def test_rejects_non_trace_preserving_under_optimize(self):
        # the checks are exceptions, not asserts, so python -O keeps them
        src = Path(equichan.__file__).resolve().parents[1]
        code = (
            "import numpy as np\n"
            "from equichan.channels import ChoiMatrix\n"
            "v = np.eye(2).reshape(-1)\n"
            "try:\n"
            "    ChoiMatrix(2 * np.outer(v, v), 1, 1, 2).validate()\n"
            "except ValueError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('accepted a Choi matrix of trace 4')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr


class TestEnumerateTriples:
    def test_m1_n1_d2(self):
        got = enumerate_extremal_triples(1, 1, 2)
        assert [(t[0], t[1], t[2], t[3]) for t in got] == [
            (staircase(1, 0), staircase(1, 0), staircase(1, -1), 1),
            (staircase(1, 0), staircase(1, 0), staircase(0, 0), 1),
        ]

    def test_n0_edge(self):
        got = enumerate_extremal_triples(2, 0, 2)
        assert got == [
            (staircase(2, 0), staircase(0, 0), staircase(0, -2), 1),
            (staircase(1, 1), staircase(0, 0), staircase(-1, -1), 1),
        ]

    @pytest.mark.parametrize("d", [0, -1])
    def test_rejects_d_below_one(self, d):
        with pytest.raises(ValueError, match=f"d={d}"):
            enumerate_extremal_triples(2, 1, d)

    def test_m1_n2_d2(self):
        got = enumerate_extremal_triples(1, 2, 2)
        for lam, mu, gamma, c in got:
            assert mu in partitions_of(2, 2)
            assert c == lr_coeff(lam.dual(), mu, gamma)
            assert c >= 1
        mus = {t[1] for t in got}
        assert mus == set(partitions_of(2, 2))


class TestClassificationIsometryCap:
    def test_dense_cap_holds_for_cached_isometry(self, monkeypatch):
        assert classification_isometry(2, 2, 2).matrix.shape == (16, 16)
        monkeypatch.setenv("EQUICHAN_MAX_DENSE", "8")
        with pytest.raises(ResourceError):
            classification_isometry(2, 2, 2)


class TestClassificationIsometryCheck:
    def test_is_real_orthogonal(self):
        V = classification_isometry(2, 1, 3).matrix
        assert V.dtype == np.float64
        assert np.abs(V @ V.T - np.eye(len(V))).max() < 1e-12

    def test_perturbed_rotation_is_not_unitary(self, monkeypatch):
        # the unitarity test runs once, when the isometry is built
        channels._classification_isometry.cache_clear()
        def rotation(lam):
            return dual_structure(lam) * (1 + 1e-6)

        monkeypatch.setattr(channels, "dual_structure", rotation)
        try:
            with pytest.raises(RuntimeError, match="^classification isometry not unitary: "):
                channels._classification_isometry(2, 1, 2)
        finally:
            monkeypatch.undo()
            channels._classification_isometry.cache_clear()
        assert classification_isometry(2, 1, 2).matrix.shape == (8, 8)


class TestExtremalChoi:
    def test_identity_triple(self):
        lam = staircase(1, 0)
        spec = ExtremalSpec(
            1, 1, 2, {lam: ExtremalTriple(lam, staircase(0, 0), np.ones(1))}
        )
        C = extremal_choi(spec)
        assert np.linalg.norm(C.matrix - np.outer(VEC_I, VEC_I)) < 1e-10

    def test_universal_not_triple(self):
        lam = staircase(1, 0)
        spec = ExtremalSpec(
            1, 1, 2, {lam: ExtremalTriple(lam, staircase(1, -1), np.ones(1))}
        )
        C = extremal_choi(spec)
        assert np.linalg.norm(C.matrix - (2 / 3) * (np.eye(4) - OMEGA)) < 1e-10

    def test_symmetrization_matches_brute_force(self, rng):
        for m, d in [(2, 2), (3, 2), (2, 3)]:
            C = extremal_choi(symmetrization_spec(m, d))
            rho = random_state(d**m, rng)
            got = C.apply(rho)
            expected = symmetrize_brute(rho, m, d)
            assert np.linalg.norm(got - expected) < 1e-9, (m, d)

    def test_always_cptp(self, rng):
        for m, n, d in [(1, 1, 2), (2, 1, 2), (1, 2, 2)]:
            for lam, mu, gamma, c in enumerate_extremal_triples(m, n, d):
                psi = rng.normal(size=c) + 1j * rng.normal(size=c)
                psi /= np.linalg.norm(psi)
                assignments = {}
                for l2 in partitions_of(m, d):
                    if l2 == lam:
                        assignments[l2] = ExtremalTriple(mu, gamma, psi)
                    else:
                        t = next(
                            x for x in enumerate_extremal_triples(m, n, d) if x[0] == l2
                        )
                        e = np.zeros(t[3])
                        e[0] = 1.0
                        assignments[l2] = ExtremalTriple(t[1], t[2], e)
                spec = ExtremalSpec(m, n, d, assignments)
                C = extremal_choi(spec)
                C.validate()

    def test_invalid_gamma_rejected(self):
        lam = staircase(1, 0)
        with pytest.raises(ValueError):
            ExtremalSpec(
                1, 1, 2, {lam: ExtremalTriple(lam, staircase(2, 0), np.ones(1))}
            )


class TestBlockDecompose:
    def test_identity_channel_blocks(self):
        C = ChoiMatrix(np.outer(VEC_I, VEC_I), 1, 1, 2)
        M = block_decompose_choi(C)
        for (gamma, lam_dual, mu), mat in M.items():
            if gamma.is_empty:
                assert abs(mat[0, 0] - 1) < 1e-10
            else:
                assert abs(mat[0, 0]) < 1e-10

    def test_extremal_round_trip(self, rng):
        lam = staircase(1, 0)
        psi = np.ones(1)
        spec = ExtremalSpec(1, 1, 2, {lam: ExtremalTriple(lam, staircase(1, -1), psi)})
        C = extremal_choi(spec)
        M = block_decompose_choi(C)
        got = M[(staircase(1, -1), lam.dual(), lam)]
        assert np.linalg.norm(got - np.outer(psi, psi.conj())) < 1e-10

    def test_mixture_linearity(self):
        lam = staircase(1, 0)
        s1 = ExtremalSpec(1, 1, 2, {lam: ExtremalTriple(lam, staircase(0, 0), np.ones(1))})
        s2 = ExtremalSpec(1, 1, 2, {lam: ExtremalTriple(lam, staircase(1, -1), np.ones(1))})
        C = ChoiMatrix(
            0.25 * extremal_choi(s1).matrix + 0.75 * extremal_choi(s2).matrix, 1, 1, 2
        )
        M = block_decompose_choi(C)
        assert abs(M[(staircase(0, 0), staircase(0, -1), lam)][0, 0] - 0.25) < 1e-10
        assert abs(M[(staircase(1, -1), staircase(0, -1), lam)][0, 0] - 0.75) < 1e-10

    def test_non_symmetric_rejected(self, rng):
        C = random_cptp_choi(1, 1, 2, rng)
        with pytest.raises(NotSymmetricError):
            block_decompose_choi(C)

    def test_twirled_random_channel(self, rng):
        # finite unitary twirl + exact permutation twirl of a random channel
        m, n, d = 2, 1, 2
        C = random_cptp_choi(m, n, d, rng).matrix
        perms_in = list(itertools.permutations(range(m)))
        perms_out = list(itertools.permutations(range(n)))
        from equichan.transforms import permutation_operator

        acc = np.zeros_like(C)
        for si in perms_in:
            for so in perms_out:
                P = np.kron(
                    permutation_operator(si, m, d), permutation_operator(so, n, d)
                )
                acc += P @ C @ P.conj().T
        C = acc / (len(perms_in) * len(perms_out))
        acc = np.zeros_like(C)
        trials = 200
        for _ in range(trials):
            U = haar_unitary(d, rng)
            W = np.kron(np.kron(U.conj(), U.conj()), U)
            acc += W @ C @ W.conj().T
        C = acc / trials
        choi = ChoiMatrix(C, m, n, d)
        M = block_decompose_choi(choi, tol=0.5)
        per_lam: dict = {}
        for (gamma, lam_dual, mu), mat in M.items():
            evals = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
            assert evals.min() > -1e-9
            per_lam[lam_dual] = per_lam.get(lam_dual, 0.0) + np.trace(mat).real
        for lam_dual, total in per_lam.items():
            assert abs(total - 1.0) < 1e-3, (str(lam_dual), total)

    @pytest.mark.parametrize("shape", SWEEP_SHAPES, ids=lambda s: "-".join(map(str, s)))
    def test_commutant_dimension_is_sum_of_squared_multiplicities(self, shape):
        # the symmetric channels span the commutant, one c x c block per triple
        basis = commutant_basis(*shape)
        assert len(basis) == sum(c * c for *_, c in enumerate_extremal_triples(*shape))

    @pytest.mark.parametrize("shape", SWEEP_SHAPES, ids=lambda s: "-".join(map(str, s)))
    def test_exact_twirl_decomposes(self, shape, rng):
        # the Hilbert-Schmidt projection onto the commutant is the group twirl,
        # so it keeps a channel a channel and lands in the classified blocks
        m, n, d = shape
        basis = commutant_basis(m, n, d)
        C = random_cptp_choi(m, n, d, rng).matrix
        C = np.einsum("k,kab->ab", np.einsum("kab,ab->k", basis, C), basis)
        M = block_decompose_choi(ChoiMatrix(C, m, n, d))
        per_lam: dict = {}
        for (gamma, lam_dual, mu), mat in M.items():
            assert np.linalg.eigvalsh((mat + mat.conj().T) / 2).min() > -1e-12
            per_lam[lam_dual] = per_lam.get(lam_dual, 0.0) + np.trace(mat).real
        assert sorted(per_lam) == sorted(lam.dual() for lam in partitions_of(m, d))
        for lam_dual, total in per_lam.items():
            assert abs(total - 1.0) < 1e-12, (str(lam_dual), total)

    @pytest.mark.parametrize("shape", SWEEP_SHAPES, ids=lambda s: "-".join(map(str, s)))
    def test_extremal_chois_commute_with_the_generators(self, shape):
        worst = max(
            generator_covariance_residual(extremal_choi(spec).matrix, *shape)
            for spec in all_specs(*shape)
        )
        assert worst <= 1e-12, worst

    def test_generator_residual_sees_a_permutation_symmetric_perturbation(self, rng):
        # the perturbation passes every permutation check, so only the
        # unitary covariance can see it: the generators and the Haar trials
        # of check_symmetries both do
        m, n, d = 2, 1, 2
        C = extremal_choi(all_specs(m, n, d)[0]).matrix
        D = d ** (m + n)
        H = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
        H = H + H.conj().T
        from equichan.transforms import permutation_operator

        perms = [
            np.kron(permutation_operator(si, m, d), permutation_operator(so, n, d))
            for si in itertools.permutations(range(m))
            for so in itertools.permutations(range(n))
        ]
        S = sum(P @ H @ P.T for P in perms)
        perturbed = C + 1e-6 * S / np.abs(S).max()
        assert generator_covariance_residual(C, m, n, d) <= 1e-12
        assert generator_covariance_residual(perturbed, m, n, d) > 1e-8
        report = check_symmetries(ChoiMatrix(perturbed, m, n, d), trials=3)
        assert max(report.permutation_residuals) < 1e-12
        assert min(report.unitary_residuals) > 1e-8


def uss_layout(m, n, d):
    return direct_sum_layout(schur_transform(m, n, d))


class TestUssChannels:
    def test_singlet_lands_in_antisymmetric_block(self):
        ch = uss_channel(2, 0, 2)
        singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
        out = ch.apply(np.outer(singlet, singlet))
        blk = uss_layout(2, 0, 2)[staircase(1, 1)]
        assert abs(out[blk.start, blk.start] - 1.0) < 1e-12
        assert abs(np.trace(out) - 1.0) < 1e-12

    def test_product_state_lands_in_symmetric_block(self):
        ch = uss_channel(2, 0, 2)
        v = np.zeros(4)
        v[0] = 1.0
        out = ch.apply(np.outer(v, v))
        blk = uss_layout(2, 0, 2)[staircase(2, 0)]
        sub = out[blk, blk]
        assert abs(np.trace(sub) - 1.0) < 1e-12
        # the block state is the canonical-coordinate image of |00><00|
        V = canonical_embedding(staircase(2, 0))
        expected = V.conj().T @ np.outer(v, v) @ V
        assert np.linalg.norm(sub - expected) < 1e-10

    def test_projection_property_on_invariant_states(self, rng):
        # dual o uss is the identity on permutation-averaged states
        for m, d in [(2, 2), (3, 2)]:
            ch = uss_channel(m, 0, d)
            dual = dual_uss_channel(m, 0, d)
            rho = symmetrize_brute(random_state(d**m, rng), m, d)
            back = dual.apply(ch.apply(rho))
            assert np.linalg.norm(back - rho) < 1e-10

    def test_werner_states_are_fixed_points(self):
        # p * (sym projector)/3 + (1-p) * antisym projector, two qubits
        from oracles import symmetric_projector

        ch = uss_channel(2, 0, 2)
        dual = dual_uss_channel(2, 0, 2)
        P = symmetric_projector(2, 2)
        for p in (0.0, 0.3, 1.0):
            rho = p * P / 3 + (1 - p) * (np.eye(4) - P)
            back = dual.apply(ch.apply(rho.astype(complex)))
            assert np.linalg.norm(back - rho) < 1e-10

    def test_projection_property_general(self, rng):
        # on arbitrary states, dual o uss is the permutation average
        m, d = 3, 2
        ch = uss_channel(m, 0, d)
        dual = dual_uss_channel(m, 0, d)
        rho = random_state(d**m, rng)
        back = dual.apply(ch.apply(rho))
        assert np.linalg.norm(back - symmetrize_brute(rho, m, d)) < 1e-10

    def test_adjoint_duality_exact(self, rng):
        # tr[Phi(A)^dag B] = tr[A^dag Phi*(B)] with the unnormalized adjoint,
        # including a case where some path space has dimension > 1
        for m, d in [(2, 2), (3, 2)]:
            ch = uss_channel(m, 0, d)
            adj = KrausChannel([K.conj().T for K in ch.ops], ch.out_dim, ch.in_dim)
            for _ in range(10):
                A = rng.normal(size=(ch.in_dim,) * 2) + 1j * rng.normal(size=(ch.in_dim,) * 2)
                B = rng.normal(size=(ch.out_dim,) * 2) + 1j * rng.normal(size=(ch.out_dim,) * 2)
                lhs = np.trace(ch.apply(A).conj().T @ B)
                rhs = np.trace(A.conj().T @ adj.apply(B))
                assert abs(lhs - rhs) < 1e-10

    def test_mixed_weighting_is_trace_preserving(self, rng):
        dual = dual_uss_channel(3, 0, 2)
        rho = random_state(dual.in_dim, rng)
        assert abs(np.trace(dual.apply(rho)) - 1.0) < 1e-10
        # and the unnormalized adjoint is not, on multi-path sectors
        ch = uss_channel(3, 0, 2)
        adj = KrausChannel([K.conj().T for K in ch.ops], ch.out_dim, ch.in_dim)
        assert abs(np.trace(adj.apply(rho)) - 1.0) > 0.1

    def test_mixed_schur_sampling(self, rng):
        ch = uss_channel(1, 1, 2)
        rho = random_state(4, rng)
        out = ch.apply(rho)
        assert abs(np.trace(out) - 1.0) < 1e-10
        assert set(uss_layout(1, 1, 2)) == {staircase(1, -1), staircase(0, 0)}
        # the mixed reverse channel is trace preserving as well
        dual = dual_uss_channel(1, 1, 2)
        back = dual.apply(out)
        assert abs(np.trace(back) - 1.0) < 1e-10
        assert back.shape == (4, 4)


THREE_FORM_CASES = [
    (staircase(2, 0), staircase(2, 0), staircase(1, -1)),
    (staircase(1, 0), staircase(2, 0), staircase(1, 0)),
    (staircase(2, 1), staircase(1, 0), staircase(0, -2)),
    (staircase(2, 1, 0), staircase(1, 1, 1), staircase(1, 1, -2)),
]


class TestKrausChoi:
    def test_matches_definition(self, rng):
        in_dim, out_dim = 3, 5
        ops = [
            rng.normal(size=(out_dim, in_dim)) + 1j * rng.normal(size=(out_dim, in_dim))
            for _ in range(4)
        ]
        ch = KrausChannel(ops, in_dim, out_dim)
        C = np.zeros((in_dim * out_dim,) * 2, dtype=complex)
        for i in range(in_dim):
            for j in range(in_dim):
                E = np.zeros((in_dim, in_dim))
                E[i, j] = 1.0
                C += np.kron(E, sum(K @ E @ K.conj().T for K in ops))
        assert np.linalg.norm(ch.choi() - C) < 1e-12
        rho = random_state(in_dim, rng)
        assert np.linalg.norm(ChoiChannel(C, in_dim, out_dim).apply(rho) - ch.apply(rho)) < 1e-12


class TestIrrepChannel:
    def test_identity_when_gamma_trivial(self, rng):
        from equichan.staircases import empty_staircase

        for lam in [staircase(2, 0), staircase(2, 1), staircase(2, 1, 0)]:
            ch = irrep_channel(lam, lam, empty_staircase(lam.d))
            X = rng.normal(size=(ch.in_dim,) * 2)
            assert np.linalg.norm(ch.apply(X) - X) < 1e-10

    @pytest.mark.parametrize("form", ["choi", "embed-trace", "sandwich"])
    def test_identity_through_ill_conditioned_lowering(self, form, rng):
        # the 125-dimensional block (4,0,-4) of general_cg((0,0,-4), (4,0,0))
        # is a product of four single-box CG blocks; the channel through it
        # must still be the identity
        lam = staircase(4, 0, 0)
        ch = irrep_channel(lam, lam, staircase(0, 0, 0), form=form)
        X = rng.normal(size=(ch.in_dim,) * 2) + 1j * rng.normal(size=(ch.in_dim,) * 2)
        assert np.linalg.norm(ch.apply(X) - X) < 1e-10

    def test_cptp_and_equivariant(self, rng):
        lam, mu, gamma = staircase(2, 0), staircase(1, 1), staircase(1, -1)
        if lr_coeff(lam.dual(), mu, gamma) < 1:
            pytest.skip("triple not admissible")
        ch = irrep_channel(lam, mu, gamma)
        rho = random_state(ch.in_dim, rng)
        out = ch.apply(rho)
        assert abs(np.trace(out) - 1.0) < 1e-10
        Vl, Vm = canonical_embedding(lam), canonical_embedding(mu)
        for _ in range(5):
            U = haar_unitary(2, rng)
            gl, gm = group_element(Vl, lam, U), group_element(Vm, mu, U)
            left = ch.apply(gl @ rho @ gl.conj().T)
            right = gm @ out @ gm.conj().T
            assert np.linalg.norm(left - right) < 1e-8

    def test_three_forms_agree(self, rng):
        for lam, mu, gamma in THREE_FORM_CASES:
            c = lr_coeff(lam.dual(), mu, gamma)
            if c < 1:
                continue
            psi = rng.normal(size=c) + 1j * rng.normal(size=c)
            psi /= np.linalg.norm(psi)
            outs = []
            X = rng.normal(size=(dim_gl_irrep(lam),) * 2) + 1j * rng.normal(
                size=(dim_gl_irrep(lam),) * 2
            )
            for form in ("choi", "embed-trace", "sandwich"):
                ch = irrep_channel(lam, mu, gamma, psi, form=form)
                outs.append(ch.apply(X))
            assert np.linalg.norm(outs[0] - outs[1]) < 1e-8
            assert np.linalg.norm(outs[0] - outs[2]) < 1e-8

    def test_sandwich_kraus_operators_trace_preserving(self, rng):
        for lam, mu, gamma in THREE_FORM_CASES:
            c = lr_coeff(lam.dual(), mu, gamma)
            if c < 1:
                continue
            psi = rng.normal(size=c) + 1j * rng.normal(size=c)
            psi /= np.linalg.norm(psi)
            ch = irrep_channel(lam, mu, gamma, psi, form="sandwich")
            assert isinstance(ch, KrausChannel)
            total = sum(K.conj().T @ K for K in ch.ops)
            assert np.linalg.norm(total - np.eye(ch.in_dim)) < 1e-10

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            irrep_channel(staircase(1, 0), staircase(1, 0), staircase(2, 0))
        with pytest.raises(ValueError):
            irrep_channel(
                staircase(1, 0), staircase(1, 0), staircase(0, 0), psi=np.array([2.0])
            )


class TestEmbedTraceTensor:
    """The memoised psi-free tensor behind the embed-trace irrep channel."""

    @staticmethod
    def _oracle_ops(lam, mu, gamma, psi):
        K0 = channels._cg_restriction_tensor(lam, mu, gamma)[0]
        scale = dim_gl_irrep(lam) / dim_gl_irrep(gamma)
        return embed_trace_ops(dual_structure(lam), K0, dual_structure(gamma), psi, scale)

    def _assert_matches_oracle(self, lam, mu, gamma, psi):
        got = irrep_channel(lam, mu, gamma, psi, form="embed-trace").ops
        want = self._oracle_ops(lam, mu, gamma, psi)
        assert len(got) == len(want) == dim_gl_irrep(gamma)
        for K, R in zip(got, want):
            assert np.abs(K - R).max() < 1e-12, (lam, mu, gamma)

    def test_matches_two_einsum_oracle_on_crosscheck_triples(self):
        triples = {
            (lam, mu, gamma, c)
            for shape in CROSSCHECK_SHAPES
            for lam, mu, gamma, c in enumerate_extremal_triples(*shape)
        }
        for lam, mu, gamma, c in sorted(triples, key=str):
            for psi in np.eye(c):
                self._assert_matches_oracle(lam, mu, gamma, psi)

    def test_matches_oracle_with_random_psi_at_multiplicity_two(self, rng):
        lam, mu, gamma, c = next(t for t in enumerate_extremal_triples(3, 3, 3) if t[3] == 2)
        for _ in range(5):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            self._assert_matches_oracle(lam, mu, gamma, psi / np.linalg.norm(psi))

    def test_perturbed_restriction_is_not_isometric(self, monkeypatch):
        # the isometry test runs once, when the tensor is built
        exact = channels._cg_restriction_tensor

        def perturbed(lam, mu, gamma):
            K0, *rest = exact(lam, mu, gamma)
            return (K0 * (1 + 1e-6), *rest)

        lam, mu, gamma = staircase(2, 0), staircase(2, 0), staircase(1, -1)
        channels._embed_trace_tensor.cache_clear()
        monkeypatch.setattr(channels, "_cg_restriction_tensor", perturbed)
        try:
            with pytest.raises(RuntimeError, match="^embedding not isometric: "):
                channels._embed_trace_tensor(lam, mu, gamma)
        finally:
            monkeypatch.undo()
            channels._embed_trace_tensor.cache_clear()
        assert channels._embed_trace_tensor(lam, mu, gamma).shape == (9, 3, 1)

    def test_cached_tensor_is_read_only(self):
        adjoint, lam = staircase(1, 0, -1), staircase(2, 1, 0)
        T = channels._embed_trace_tensor(lam, lam, adjoint)
        assert T.shape == (8 * 8, 8, 2)
        assert not T.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            T[0, 0, 0] = 1.0


class TestFactoredChannel:
    def test_identity_spec(self):
        lam = staircase(1, 0)
        spec = ExtremalSpec(1, 1, 2, {lam: ExtremalTriple(lam, staircase(0, 0), np.ones(1))})
        F = factored_channel(spec)
        assert np.linalg.norm(F.matrix - np.outer(VEC_I, VEC_I)) < 1e-10

    def test_symmetrization_three_way(self, rng):
        spec = symmetrization_spec(2, 2)
        F = factored_channel(spec)
        E = extremal_choi(spec)
        assert np.linalg.norm(F.matrix - E.matrix) < 1e-10
        rho = random_state(4, rng)
        assert np.linalg.norm(F.apply(rho) - symmetrize_brute(rho, 2, 2)) < 1e-10

    def test_exhaustive_sweep_2_1_2(self, rng):
        m, n, d = 2, 1, 2
        triples = enumerate_extremal_triples(m, n, d)
        by_lam: dict = {}
        for lam, mu, gamma, c in triples:
            by_lam.setdefault(lam, []).append((mu, gamma, c))
        worst = 0.0
        for choice in itertools.product(*(by_lam[l] for l in partitions_of(m, d))):
            assignments = {}
            for lam, (mu, gamma, c) in zip(partitions_of(m, d), choice):
                e = np.zeros(c)
                e[0] = 1.0
                assignments[lam] = ExtremalTriple(mu, gamma, e)
            spec = ExtremalSpec(m, n, d, assignments)
            resid = np.linalg.norm(
                factored_channel(spec).matrix - extremal_choi(spec).matrix
            )
            worst = max(worst, resid)
        assert worst < 1e-8


@pytest.mark.parametrize(
    "shape, pick", [((2, 2, 2), 3), ((3, 3, 3), 21), ((3, 3, 3), 52)], ids=str
)
def test_factored_equals_composed_stage_objects(shape, pick, rng):
    # factored_channel composes the stages itself; here the public stage
    # objects run one after the other: Schur sampling, each label's irrep
    # channel from its uss layout block into the matching dual layout
    # block, then reverse sampling
    m, n, d = shape
    assignments = {}
    for lam, t in all_specs(m, n, d)[pick].assignments.items():
        psi = rng.normal(size=t.psi.size) + 1j * rng.normal(size=t.psi.size)
        assignments[lam] = ExtremalTriple(t.mu, t.gamma, psi / np.linalg.norm(psi))
    spec = ExtremalSpec(m, n, d, assignments)
    if shape == (3, 3, 3):
        assert any(t.psi.size > 1 for t in spec.assignments.values())
    uss = uss_channel(m, 0, d)
    dual = dual_uss_channel(n, 0, d)
    rho = random_state(d**m, rng)
    sampled = uss.apply(rho)
    middle = np.zeros((dual.in_dim,) * 2, dtype=complex)
    for lam, i in uss_layout(m, 0, d).items():
        t = spec.triple(lam)
        o = uss_layout(n, 0, d)[t.mu]
        ch = irrep_channel(lam, t.mu, t.gamma, t.psi)
        middle[o, o] += ch.apply(sampled[i, i])
    out = dual.apply(middle)
    assert np.abs(out - factored_channel(spec).apply(rho)).max() < 1e-10


class TestMultiplicityTwoSpec:
    def test_factored_matches_extremal_with_random_psi(self, rng):
        # the first label triple with a two-dimensional multiplicity space
        # appears at m = n = 3, d = 3; a random complex psi exercises the
        # multiplicity-slot correspondence between the two constructions
        m = n = d = 3
        triples = enumerate_extremal_triples(m, n, d)
        lam0, mu0, gamma0, c = next(t for t in triples if t[3] >= 2)
        assert c == 2
        psi = rng.normal(size=c) + 1j * rng.normal(size=c)
        psi /= np.linalg.norm(psi)
        assignments = {}
        for lam in partitions_of(m, d):
            if lam == lam0:
                assignments[lam] = ExtremalTriple(mu0, gamma0, psi)
            else:
                t = next(x for x in triples if x[0] == lam)
                e = np.zeros(t[3])
                e[0] = 1.0
                assignments[lam] = ExtremalTriple(t[1], t[2], e)
        spec = ExtremalSpec(m, n, d, assignments)
        E = extremal_choi(spec)
        E.validate()
        F = factored_channel(spec)
        assert np.linalg.norm(F.matrix - E.matrix) < 1e-8
        assert check_symmetries(E, trials=5, rng=rng).passed(1e-8)


class TestEdgeCases:
    def test_spec_with_trivial_output_space(self, rng):
        # n = 0: the only output label is empty and the channel is the trace
        spec_triples = enumerate_extremal_triples(2, 0, 2)
        assignments = {
            lam: ExtremalTriple(mu, gamma, np.ones(1))
            for lam, mu, gamma, c in spec_triples
        }
        spec = ExtremalSpec(2, 0, 2, assignments)
        C = extremal_choi(spec)
        C.validate()
        rho = random_state(4, rng)
        out = C.apply(rho)
        assert out.shape == (1, 1)
        assert abs(out[0, 0] - 1.0) < 1e-10

    def test_psi_length_mismatch_rejected(self):
        lam = staircase(1, 0)
        with pytest.raises(ValueError, match="multiplicity"):
            ExtremalSpec(
                1,
                1,
                2,
                {lam: ExtremalTriple(lam, staircase(0, 0), np.array([1.0, 0.0]))},
            )

    def test_psi_not_normalized_rejected(self):
        lam = staircase(1, 0)
        with pytest.raises(ValueError, match="normalized"):
            ExtremalSpec(
                1, 1, 2, {lam: ExtremalTriple(lam, staircase(0, 0), np.array([2.0]))}
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_psi_non_finite_rejected(self, bad):
        # |norm(psi) - 1| > tol is False for NaN, so a NaN psi used to build
        # a spec, and an irrep channel that returned NaN
        lam = staircase(1, 0)
        with pytest.raises(ValueError, match=r"^psi for \(1,0\) has non-finite entries$"):
            ExtremalSpec(1, 1, 2, {lam: ExtremalTriple(lam, staircase(0, 0), np.array([bad]))})
        with pytest.raises(ValueError, match="^psi has non-finite entries$"):
            irrep_channel(lam, lam, staircase(0, 0), psi=np.array([bad]))

    def test_missing_label_rejected(self):
        lam = staircase(2, 0)
        with pytest.raises(ValueError, match="every input label"):
            ExtremalSpec(
                2, 2, 2, {lam: ExtremalTriple(lam, staircase(0, 0), np.ones(1))}
            )

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: symmetrization_spec(-1, 2), "need m >= 0, got m=-1"),
            (lambda: ExtremalSpec(0, -2, 2, {}), "need n >= 0, got n=-2"),
            (lambda: cloning_spec(1, 2, 0), "need d >= 1, got d=0"),
            (lambda: purity_spec(2, 0), "need d >= 1, got d=0"),
            (lambda: symmetrization_spec(2.0, 2), "need an integer m, got m=2.0"),
            (lambda: symmetrization_spec(True, 2), "need an integer m, got m=True"),
            (lambda: cloning_spec(1, 2.0, 2), "need an integer n, got n=2.0"),
            (lambda: purity_spec(2, True), "need an integer d, got d=True"),
            (lambda: enumerate_extremal_triples(2.0, 1, 2), "need an integer m, got m=2.0"),
            (lambda: enumerate_extremal_triples(-1, 1, 2), "need m >= 0, got m=-1"),
        ],
        ids=[
            "m", "n", "d-clone", "d-purity", "float-m", "bool-m", "float-n-clone",
            "bool-d-purity", "float-m-triples", "m-triples",
        ],
    )
    def test_shape_out_of_range_rejected_by_name(self, build, message):
        # these used to build specs with no assignments, which cover the
        # empty label set of a negative m or of d = 0
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()


class TestGammaMin:
    def test_examples(self):
        assert gamma_min(staircase(4, 2, 1)) == staircase(3, 2, 1)
        assert gamma_min(staircase(2, 2)) == staircase(2, 1)
        assert gamma_min(staircase(3, 0)) == staircase(2, 0)

    def test_purity_spec_valid(self):
        spec = purity_spec(3, 2)
        for lam, t in spec.assignments.items():
            assert t.gamma == gamma_min(lam).dual()
