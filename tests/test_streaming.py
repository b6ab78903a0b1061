import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import equichan

from equichan.channels import (
    STATE_TOL,
    ExtremalSpec,
    ExtremalTriple,
    enumerate_extremal_triples,
    extremal_choi,
    factored_channel,
    irrep_channel,
    purity_spec,
    symmetrization_spec,
)
from equichan.gtpaths import GtPath, enumerate_paths, sample_gt_path
from equichan.staircases import (
    box_label,
    dim_gl_irrep,
    dim_perm_irrep,
    partitions_of,
    staircase,
)
from equichan.streaming import (
    CHUNK,
    ResourceLedger,
    ScheduleStep,
    WEIGHTLESS_NORM,
    _absorb_phase,
    _emission_phase,
    _middle_phase,
    _path_isometry,
    _path_superposition,
    application_estimate,
    resource_estimate,
    streamed_apply,
    validate_schedule,
)
from equichan.suites import all_specs
from equichan.transforms import BlockIsometry, iterated_cg, schur_transform, simple_cg

from oracles import (
    CountingRng,
    absorb_kron,
    choi_channel_defects,
    embed_trace_base,
    emit_dense,
    random_state,
    symmetrize_brute,
    symmetry_residuals_kron,
)


# the shapes of the benchmark's cold crosscheck: 192 extremal specs
CROSSCHECK_SHAPES = [(2, 2, 3), (3, 3, 2), (4, 2, 2), (2, 3, 3), (4, 3, 2), (5, 1, 2)]


def _multi_path_triples(shapes):
    """Distinct (lam, mu, gamma, c) of the shapes with more than one GT path mu -> lam."""
    out = {}
    for shape in shapes:
        for lam, mu, gamma, c in enumerate_extremal_triples(*shape):
            gamma_bar = gamma.dual()
            paths = enumerate_paths(mu, gamma_bar.pos_size, gamma_bar.neg_size)[lam]
            if len(paths) > 1:
                out[(lam, mu, gamma)] = (shape, c)
    return out


class TestPathEmbedding:
    def test_trivial_path_is_identity(self):
        lam = staircase(2, 1)
        iso = _path_isometry(GtPath((lam,), 0, 0))
        assert np.array_equal(iso, np.eye(dim_gl_irrep(lam)))

    def test_single_removal_matches_irrep_channel(self, rng):
        # embed Q_(1,0) into Q_(2,0) (x) dual site, trace the site
        mu, lam = staircase(2, 0), staircase(1, 0)
        p = enumerate_paths(mu, 0, 1)[lam][0]
        iso = _path_isometry(p)
        rho = random_state(2, rng)
        big4 = (iso @ rho @ iso.conj().T).reshape(3, 2, 3, 2)
        traced = np.einsum("aibi->ab", big4)
        ch = irrep_channel(lam, mu, staircase(1, 0), form="embed-trace")
        assert np.linalg.norm(traced - ch.apply(rho)) < 1e-10

    @pytest.mark.parametrize(
        "mu,k,l",
        [(staircase(1, 0), 2, 0), (staircase(2, 1), 1, 2), (staircase(2, 0, 0), 2, 1)],
    )
    def test_path_isometries_are_rows_of_iterated_cg(self, mu, k, l):
        # iota_p is the adjoint of path p's rows in the iterated CG transform
        t = iterated_cg(mu, (False,) * k + (True,) * l)
        for end, paths in enumerate_paths(mu, k, l).items():
            sector = t.sector(end)
            assert sector.paths == tuple(paths)
            for idx, p in enumerate(paths):
                ref = t.path_rows(end, idx).conj().T
                assert np.abs(_path_isometry(p) - ref).max() < 1e-12, p

    def test_superposition_is_isometric(self, rng):
        # dim P = 2 sector: any unit superposition embeds isometrically
        mu = staircase(1, 0)
        paths = enumerate_paths(mu, 2, 0)[staircase(2, 1)]
        assert len(paths) == 2
        amp = rng.normal(size=2) + 1j * rng.normal(size=2)
        amp /= np.linalg.norm(amp)
        iso = amp[0] * _path_isometry(paths[0]) + amp[1] * _path_isometry(paths[1])
        rho = random_state(2, rng)
        out = iso @ rho @ iso.conj().T
        assert abs(np.trace(out) - 1.0) < 1e-10

    def test_multiplicity_free_factorization(self, rng):
        # with one path, transforming the site registers factorizes the
        # embedding into (path vector) (x) (CG embedding)
        mu, lam = staircase(3, 0), staircase(1, 0)
        q_mu = dim_gl_irrep(mu)
        p = enumerate_paths(mu, 0, 2)[lam][0]
        iota = _path_isometry(p)  # q_mu * d^2 x q_lam
        S = schur_transform(0, 2, 2)
        big = np.kron(np.eye(q_mu), S.matrix) @ iota
        # the transformed embedding is supported on a single sector and
        # splits as |path> (x) equivariant embedding
        gamma = staircase(0, -2)
        sec = S.sector(gamma)
        cube = big.reshape(q_mu, 4, 2)
        sub = cube[:, sec.offset : sec.offset + sec.size, :]
        assert np.linalg.norm(cube) - np.linalg.norm(sub) < 1e-10
        ch_rows = sub.reshape(q_mu * sec.size, 2)
        assert np.linalg.norm(ch_rows.conj().T @ ch_rows - np.eye(2)) < 1e-8


class TestMiddlePhase:
    # every multi-path triple of the crosscheck shapes, and the
    # multiplicity-two triple of (3,3,3), where psi is more than a phase
    TRIPLES = _multi_path_triples(CROSSCHECK_SHAPES + [(3, 3, 3)])

    def test_multi_path_blocks_match_irrep_channel(self, rng):
        assert max(c for _, c in self.TRIPLES.values()) == 2
        for (lam, mu, gamma), ((m, n, d), c) in self.TRIPLES.items():
            if (m, n, d) == (3, 3, 3) and c == 1:
                continue
            psi = rng.normal(size=c) + 1j * rng.normal(size=c)
            psi /= np.linalg.norm(psi)
            base = all_specs(m, n, d)[0].assignments
            spec = ExtremalSpec(m, n, d, {**base, lam: ExtremalTriple(mu, gamma, psi)})
            q = dim_gl_irrep(lam)
            blk = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
            ledger, schedule = ResourceLedger(), []
            tau = _middle_phase(spec, {lam: blk}, ledger, schedule)
            expected = irrep_channel(lam, mu, gamma, psi).apply(blk)
            assert np.abs(tau[mu] - expected).max() < 1e-10, (lam, mu, gamma)
            # one embed step per site of gamma_bar, each on its own aux site
            sites = gamma.pos_size + gamma.neg_size
            if mu != box_label(d):
                assert [s.op for s in schedule] == ["embed"] * sites
                assert len({s.registers for s in schedule}) == sites
                ledger.count(schedule)
                counts = ledger.num_inverse_cg, ledger.num_simple_dual_cg
                assert counts == (gamma.neg_size, gamma.pos_size)

    @pytest.mark.parametrize("m,d", [(8, 2), (5, 3), (3, 2), (4, 3)])
    def test_single_box_blocks_match_base_trace(self, m, d, rng):
        # a one-box output embeds Q_lam along the one addition
        # gamma_bar -> lam, in one inverse CG step on no site, and traces
        # the base Q_gamma_bar
        spec = purity_spec(m, d)
        for lam, t in spec.assignments.items():
            assert t.mu == box_label(d) and not t.gamma.is_empty
            base = t.gamma.dual()
            q_base = dim_gl_irrep(base)
            blk = random_state(dim_gl_irrep(lam), rng)
            ledger, schedule = ResourceLedger(), []
            tau = _middle_phase(spec, {lam: blk}, ledger, schedule)
            R = simple_cg(base, False).block_rows(lam)
            expected = embed_trace_base(R, blk, q_base, d)
            assert np.abs(tau[t.mu] - expected).max() < 1e-12, lam
            assert schedule == [ScheduleStep("embed", ("Q", "path"), q_base * d, "inverse")]
            ledger.count(schedule)
            counts = ledger.num_simple_cg, ledger.num_simple_dual_cg, ledger.num_inverse_cg
            assert counts == (0, 0, 1)

    def test_mutated_coefficient_raises(self, monkeypatch):
        import equichan.streaming as streaming

        exact = streaming._path_amplitudes

        def mutated(iso, targets):
            amps = exact(iso, targets)
            return amps + 1e-6

        lam, mu, gamma = staircase(2, 0), staircase(2, 0), staircase(1, -1)
        assert len(enumerate_paths(mu, 1, 1)[lam]) == 2
        _path_superposition.cache_clear()
        monkeypatch.setattr(streaming, "_path_amplitudes", mutated)
        with pytest.raises(RuntimeError, match="misses the irrep channel"):
            _path_superposition(lam, mu, gamma)
        monkeypatch.undo()
        _path_superposition(lam, mu, gamma)


class TestStreamedApply:
    def test_symmetrization_matches_brute_force(self, rng):
        for m, d in [(2, 2), (3, 2), (4, 2), (3, 3)]:
            spec = symmetrization_spec(m, d)
            rho = random_state(d**m, rng)
            out, ledger = streamed_apply(spec, rho)
            assert np.linalg.norm(out - symmetrize_brute(rho, m, d)) < 1e-9

    def test_ledger_symmetrization_m4(self, rng):
        spec = symmetrization_spec(4, 2)
        rho = random_state(16, rng)
        out, ledger = streamed_apply(spec, rho)
        assert ledger.num_simple_cg == 3
        assert ledger.num_inverse_cg == 3
        assert ledger.peak_live_dim == 8
        assert ledger.classical_samples == 0

    def test_identity_spec_trivial_ledger(self, rng):
        lam = staircase(1, 0)
        spec = ExtremalSpec(
            1, 1, 2, {lam: ExtremalTriple(lam, staircase(0, 0), np.ones(1))}
        )
        rho = random_state(2, rng)
        out, ledger = streamed_apply(spec, rho)
        assert np.linalg.norm(out - rho) < 1e-12
        assert ledger.num_simple_cg == 0
        assert ledger.num_inverse_cg == 0

    def test_exact_equals_factored_on_sweep(self, rng):
        import itertools as it

        for m, n, d in [(2, 1, 2), (1, 2, 2), (2, 2, 2)]:
            by_lam: dict = {}
            for lam, mu, gamma, c in enumerate_extremal_triples(m, n, d):
                by_lam.setdefault(lam, []).append((mu, gamma, c))
            labels = partitions_of(m, d)
            for choice in it.product(*(by_lam[l] for l in labels)):
                assignments = {}
                for lam, (mu, gamma, c) in zip(labels, choice):
                    e = np.zeros(c)
                    e[0] = 1.0
                    assignments[lam] = ExtremalTriple(mu, gamma, e)
                spec = ExtremalSpec(m, n, d, assignments)
                rho = random_state(d**m, rng)
                out, _ = streamed_apply(spec, rho)
                expected = factored_channel(spec).apply(rho)
                assert np.linalg.norm(out - expected) < 1e-8

    def test_peak_live_dim_analytic(self, rng):
        # d * max over reachable labels of the irrep dimension
        for m in range(2, 7):
            spec = symmetrization_spec(m, 2)
            rho = random_state(2**m, rng)
            _, ledger = streamed_apply(spec, rho)
            predicted = 2 * max(dim_gl_irrep(p) for p in partitions_of(m - 1, 2))
            assert ledger.peak_live_dim == predicted

    def test_memory_advantage_strict(self, rng):
        for m in (4, 5, 6):
            spec = symmetrization_spec(m, 2)
            rho = random_state(2**m, rng)
            _, ledger = streamed_apply(spec, rho)
            assert ledger.peak_live_dim < 2**m

    def test_schedule_structure(self, rng):
        spec = symmetrization_spec(3, 2)
        rho = random_state(8, rng)
        out, ledger, schedule = streamed_apply(spec, rho, return_schedule=True)
        validate_schedule(schedule)
        ops = [s.op for s in schedule]
        assert ops.count("absorb") == 3
        assert ops.count("emit") == 2

    def test_weightless_labels_are_skipped(self):
        # on |0...0> only the single-row label carries weight; the others
        # get no middle step, do not count towards r_prime, and the output
        # is still the channel's
        ledgers = {}
        for spec in [purity_spec(3, 2), symmetrization_spec(3, 2), *all_specs(2, 2, 3)]:
            m, d = spec.m, spec.d
            rho = np.zeros((d**m, d**m), dtype=complex)
            rho[0, 0] = 1.0
            sigma = _absorb_phase(rho, m, d, ResourceLedger(), [])
            row = staircase(m, *(0,) * (d - 1))
            others = [lam for lam in sigma if lam != row]
            assert others
            assert all(np.linalg.norm(sigma[lam]) < WEIGHTLESS_NORM for lam in others)
            out, ledger, schedule = streamed_apply(spec, rho, return_schedule=True)
            assert np.abs(out - extremal_choi(spec).apply(rho)).max() < 1e-10
            alone = []
            _middle_phase(spec, {row: sigma[row]}, ResourceLedger(), alone)
            assert [s for s in schedule if s.op not in ("absorb", "emit")] == alone
            assert ledger.r_prime == spec.triple(row).mu.length
            ledgers.setdefault((spec.m, spec.n), ledger)
        assert ledgers[(3, 1)].num_inverse_cg == 1
        assert ledgers[(3, 3)].r_prime == 1

    def test_schedule_validator_catches_violations(self):
        bad = [ScheduleStep("absorb", ("Q", "in:2"), 4)]
        with pytest.raises(ValueError):
            validate_schedule(bad)
        bad = [ScheduleStep("absorb", ("Q", "in:1", "in:2"), 4)]
        with pytest.raises(ValueError):
            validate_schedule(bad)
        bad = [
            ScheduleStep("absorb", ("Q", "in:1"), 2),
            ScheduleStep("absorb", ("Q", "in:1"), 2),
        ]
        with pytest.raises(ValueError):
            validate_schedule(bad)
        # a dense irrep-channel step touches no site; only absorb, embed
        # and emit steps are part of the streaming schedule
        bad = [
            ScheduleStep("absorb", ("Q", "in:1"), 2),
            ScheduleStep("apply_block", ("Q", "label"), 6),
        ]
        validate_schedule(bad[:1])
        with pytest.raises(ValueError, match="unknown op"):
            validate_schedule(bad)
        # the ledger counts only the CG kinds it knows
        with pytest.raises(ValueError, match="unknown CG kind"):
            validate_schedule([ScheduleStep("absorb", ("Q", "in:1"), 2, "dual")])

    def test_crosscheck_shapes_stream_every_block(self, rng):
        # every middle block of the 192 specs is embedded site by site: no
        # schedule has another op, and the output is the Choi matrix's
        nspecs = 0
        for m, n, d in CROSSCHECK_SHAPES:
            for spec in all_specs(m, n, d):
                rho = random_state(d**m, rng)
                out, _, schedule = streamed_apply(spec, rho, return_schedule=True)
                assert {s.op for s in schedule} <= {"absorb", "embed", "emit"}
                assert np.abs(out - extremal_choi(spec).apply(rho)).max() < 1e-10
                nspecs += 1
        assert nspecs == 192

    def test_sampled_mode_deterministic_when_paths_unique(self, rng):
        # m = 2: both labels have one-dimensional path spaces
        spec = symmetrization_spec(2, 2)
        rho = random_state(4, rng)
        exact, _ = streamed_apply(spec, rho)
        sampled, ledger = streamed_apply(spec, rho, mode="sample", trajectories=3)
        assert np.linalg.norm(exact - sampled) < 1e-10
        assert ledger.classical_samples > 0

    def test_bad_trajectories_rejected(self, rng):
        spec = symmetrization_spec(3, 2)
        rho = random_state(8, rng)
        for trajectories in (0, -5):
            with pytest.raises(ValueError, match="trajectory"):
                streamed_apply(spec, rho, mode="sample", trajectories=trajectories)

    def test_non_unit_trace_input_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            streamed_apply(symmetrization_spec(2, 2), 20 * np.eye(4) / 4)

    def test_non_hermitian_input_rejected(self):
        rho = np.array([[0.5, 1.0], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            streamed_apply(symmetrization_spec(1, 2), rho)

    @staticmethod
    def _check_emits_along_drawn_paths(rng, trajectories):
        # every trajectory emits each label along exactly the path the hook
        # walk drew, and the output is the mean over trajectories
        m, d = 4, 2
        spec = symmetrization_spec(m, d)
        rho = random_state(d**m, rng)
        ledger = ResourceLedger()
        tau = _middle_phase(spec, _absorb_phase(rho, m, d, ledger, []), ledger, [])
        S = schur_transform(m, 0, d)
        drawn_later_paths = drawn_twice = False
        for seed in range(6):
            out, ledger = streamed_apply(
                spec, rho, seed=seed, mode="sample", trajectories=trajectories
            )
            redraw = CountingRng(np.random.default_rng(seed))
            expected = np.zeros_like(out)
            drawn = []
            for _ in range(trajectories):
                for mu, blk in tau.items():
                    path = sample_gt_path(mu, redraw)
                    idx = S.sector(mu).paths.index(path)
                    drawn_later_paths |= idx > 0
                    drawn.append(path)
                    rows = S.path_rows(mu, idx)
                    expected += rows.conj().T @ blk @ rows / trajectories
            drawn_twice |= any(
                drawn.count(p) > 1 for p in drawn if dim_perm_irrep(p.end) > 1
            )
            assert ledger.classical_samples == redraw.count
            assert np.linalg.norm(out - expected) < 1e-12, seed
        assert drawn_later_paths
        assert drawn_twice == (trajectories > 1)

    def test_single_trajectory_emits_along_drawn_path(self, rng):
        # a permuted path-to-rows lookup would leave the Monte Carlo mixture
        # unchanged but fails here
        self._check_emits_along_drawn_paths(rng, 1)

    def test_repeated_draws_weighted_per_path(self, rng):
        # at T = 7 some path is drawn more than once, so a wrong per-path
        # weight or draw count fails here
        self._check_emits_along_drawn_paths(rng, 7)

    def test_monte_carlo_scaling(self, rng):
        # RMS Frobenius error over independent repetitions scales as N^(-1/2)
        spec = symmetrization_spec(4, 2)
        rho = random_state(16, rng)
        exact, _ = streamed_apply(spec, rho)
        errs = []
        Ns = [100, 1000, 10000]
        for N in Ns:
            sq = []
            for rep in range(8):
                sampled, _ = streamed_apply(
                    spec, rho, seed=1000 * rep + N, mode="sample", trajectories=N
                )
                sq.append(np.linalg.norm(sampled - exact) ** 2)
            errs.append(np.sqrt(np.mean(sq)))
        slope = np.polyfit(np.log(Ns), np.log(errs), 1)[0]
        assert abs(slope + 0.5) < 0.1, (slope, errs)


ABSORB_SHAPES = [(m, 2) for m in range(2, 9)] + [(m, 3) for m in range(3, 7)] + [(4, 4)]


def _check_absorb_against_kron(m, d, rng, cg_of):
    rho = random_state(d**m, rng)
    ledger = ResourceLedger()
    schedule = []
    sigma = _absorb_phase(rho, m, d, ledger, schedule)
    ref, ref_steps, ref_counts = absorb_kron(rho, m, d, box_label(d), cg_of)
    assert list(sigma) == list(ref)
    for label, blk in ref.items():
        assert sigma[label].shape == blk.shape
        assert np.abs(sigma[label] - blk).max() < 1e-12, label
    assert [(s.op, s.registers, s.live_dim) for s in schedule] == ref_steps
    ledger.count(schedule)
    assert ledger.as_dict() == ResourceLedger(**ref_counts).as_dict()


class TestAbsorbPhase:
    @pytest.mark.parametrize("m,d", ABSORB_SHAPES)
    def test_matches_dense_kron_reference(self, m, d, rng):
        _check_absorb_against_kron(m, d, rng, lambda nu: simple_cg(nu, False))

    @pytest.mark.parametrize("m,d", [(4, 2), (6, 2), (4, 3)])
    def test_complex_cg_matches_dense_kron_reference(self, m, d, rng, monkeypatch):
        # The CG matrices of the canonical realizations are real, where
        # conj(C_b) = C_b.  Rotating every block by a complex unitary keeps
        # each a valid isometry onto its label, and the leg-wise contraction
        # must then still match C (x) 1 applied on both sides.
        gauged = {}

        def complex_cg(nu, dual):
            if nu not in gauged:
                cg = simple_cg(nu, dual)
                M = cg.matrix.astype(complex)
                for b in cg.blocks:
                    Z = rng.normal(size=(b.size, b.size)) + 1j * rng.normal(
                        size=(b.size, b.size)
                    )
                    W = np.linalg.qr(Z)[0]
                    rows = slice(b.offset, b.offset + b.size)
                    M[rows] = W @ M[rows]
                gauged[nu] = BlockIsometry(M, cg.blocks)
            return gauged[nu]

        monkeypatch.setattr("equichan.streaming.simple_cg", complex_cg)
        _check_absorb_against_kron(m, d, rng, lambda nu: complex_cg(nu, False))


EMIT_SHAPES = [(n, 2) for n in range(2, 9)] + [(n, 3) for n in range(3, 7)] + [(4, 4)]


def _symmetrization_tau(n, d, rng):
    ledger = ResourceLedger()
    sigma = _absorb_phase(random_state(d**n, rng), n, d, ledger, [])
    return _middle_phase(symmetrization_spec(n, d), sigma, ledger, [])


def _check_emission_against_dense(tau, n, d, mode, seed=0, trajectories=0):
    """_emission_phase against emit_dense, with the drawn paths redrawn
    independently by sample_gt_path on the same seed."""
    S = schur_transform(n, 0, d)
    ledger = ResourceLedger()
    schedule = []
    out = _emission_phase(
        tau, n, d, ledger, schedule, mode=mode, seed=seed, trajectories=trajectories
    )
    sectors = []
    samples = 0
    if mode == "exact":
        for mu, blk in tau.items():
            sec = S.sector(mu)
            rows = S.sector_rows(mu).reshape(sec.p_dim, sec.q_dim, -1)
            sectors.append((blk, rows, np.full(sec.p_dim, 1 / sec.p_dim)))
    else:
        redraw = CountingRng(np.random.default_rng(seed))
        counts = {mu: Counter() for mu in tau}
        for _ in range(trajectories):
            for mu in tau:
                counts[mu][sample_gt_path(mu, redraw)] += 1
        samples = redraw.count
        for mu, blk in tau.items():
            paths = S.sector(mu).paths
            rows = np.stack([S.path_rows(mu, paths.index(p)) for p in counts[mu]])
            weights = np.array(list(counts[mu].values())) / trajectories
            sectors.append((blk, rows, weights))
    expected = emit_dense(sectors, d**n)
    assert np.abs(out - expected).max() < 1e-12
    live = [
        d * max(dim_gl_irrep(p) for p in partitions_of(j - 1, d)) for j in range(n, 1, -1)
    ]
    assert [(s.op, s.registers, s.live_dim) for s in schedule] == [
        ("emit", ("Q", f"out:{j}", "path"), lv) for j, lv in zip(range(n, 1, -1), live)
    ]
    ledger.count(schedule)
    assert ledger.as_dict() == ResourceLedger(
        num_inverse_cg=n - 1, peak_live_dim=max([d] + live), classical_samples=samples
    ).as_dict()
    return out


class TestEmissionPhase:
    @pytest.mark.parametrize("n,d", EMIT_SHAPES)
    def test_exact_matches_dense_reference(self, n, d, rng):
        _check_emission_against_dense(_symmetrization_tau(n, d, rng), n, d, "exact")

    @pytest.mark.parametrize("n,d", EMIT_SHAPES)
    def test_sample_matches_dense_reference(self, n, d, rng):
        tau = _symmetrization_tau(n, d, rng)
        _check_emission_against_dense(tau, n, d, "sample", seed=n + d, trajectories=40)

    @pytest.mark.parametrize("mode", ["exact", "sample"])
    def test_empty_label_is_skipped(self, mode, rng):
        # a label without weight fills no rows; the classes it shares with
        # other labels are applied to the remaining rows only
        n, d = 5, 2
        tau = _symmetrization_tau(n, d, rng)
        tau[staircase(3, 2)] = np.zeros_like(tau[staircase(3, 2)])
        out = _check_emission_against_dense(tau, n, d, mode, seed=3, trajectories=25)
        S = schur_transform(n, 0, d)
        assert np.linalg.norm(out @ S.sector_rows(staircase(3, 2)).T) < 1e-12

    @pytest.mark.parametrize("n,d", [(4, 2), (3, 3), (7, 2)])
    def test_sample_draws_span_several_blocks(self, n, d, rng):
        # sample mode takes its uniforms from the generator CHUNK at a time;
        # a walk takes at least one draw per box, so these trajectories use
        # three blocks or more, and the stream across the refills must be
        # the one a sequential redraw on one generator sees
        tau = _symmetrization_tau(n, d, rng)
        trajectories = -(-3 * CHUNK // (n * len(tau)))
        _check_emission_against_dense(
            tau, n, d, "sample", seed=10 * n + d, trajectories=trajectories
        )

    def test_clone_tau_matches_dense_reference(self, monkeypatch, rng):
        import equichan.apps as apps
        import equichan.streaming as streaming

        seen = []

        def spy(tau, n, d, *args, **kwargs):
            seen.append((tau, n, d))
            return _emission_phase(tau, n, d, *args, **kwargs)

        monkeypatch.setattr(streaming, "_emission_phase", spy)
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        apps.clone(psi / np.linalg.norm(psi), 2, 6, 3)
        [(tau, n, d)] = seen
        assert list(tau) == [staircase(6, 0, 0)]
        _check_emission_against_dense(tau, n, d, "exact")


# Run by a fresh interpreter, with and without -O: the finiteness check is
# an exception, which python -O keeps.
NON_FINITE_CASES = (
    "import numpy as np\n"
    "from equichan.apps import clone\n"
    "from equichan.channels import symmetrization_spec\n"
    "from equichan.streaming import streamed_apply\n"
    "def rejected(call):\n"
    "    try:\n"
    "        call()\n"
    "    except ValueError as exc:\n"
    "        return str(exc)\n"
    "    return None\n"
    "bad = {'nan': np.full((4, 4), np.nan) + 0j, 'inf': np.eye(4) / 4 + 0j}\n"
    "bad['inf'][0, 1] = np.inf\n"
    "spec = symmetrization_spec(2, 2)\n"
    "for name, rho in bad.items():\n"
    "    for mode in ('exact', 'sample'):\n"
    "        msg = rejected(lambda: streamed_apply(spec, rho, mode=mode, trajectories=5))\n"
    "        if msg != 'input has non-finite entries':\n"
    "            raise SystemExit(f'{name} {mode}: {msg!r}')\n"
    "    msg = rejected(lambda: clone(rho, 2, 3, 2))\n"
    "    if msg != 'input has non-finite entries':\n"
    "        raise SystemExit(f'{name} clone: {msg!r}')\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_non_finite_input_rejected(flags):
    src = Path(equichan.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", NON_FINITE_CASES],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def _anti_hermitian(dim, defect, rng):
    """A traceless anti-Hermitian A with ||A - A^dag|| = defect."""
    B = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    A = B - B.conj().T
    np.fill_diagonal(A, 0)
    return A * (defect / np.linalg.norm(A - A.conj().T))


@pytest.mark.parametrize("m,d", [(2, 2), (6, 3)])
def test_hermiticity_check_boundary(m, d, rng):
    # the check measures ||rho - rho^dag|| against STATE_TOL = 1e-8: a
    # defect of 2e-8 is rejected and one of 5e-9 accepted, at D = 729 too
    assert STATE_TOL == 1e-8
    rho = random_state(d**m, rng)
    with pytest.raises(ValueError, match="not Hermitian"):
        _absorb_phase(rho + _anti_hermitian(d**m, 2e-8, rng), m, d, ResourceLedger(), [])
    _absorb_phase(rho + _anti_hermitian(d**m, 5e-9, rng), m, d, ResourceLedger(), [])


PROPERTY_SHAPES = [(m, n, d) for m in (1, 2, 3) for n in (1, 2, 3) for d in (2, 3)]


@given(
    shape=st.sampled_from(PROPERTY_SHAPES),
    pick=st.integers(min_value=0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rank=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=30, deadline=None)
# spec 21 of all_specs(3, 3, 3) is the first with a multiplicity-two label
@example(shape=(3, 3, 3), pick=21, seed=0, rank=2)
def test_streamed_equals_choi_on_random_specs(shape, pick, seed, rank):
    m, n, d = shape
    specs = all_specs(m, n, d)
    rng = np.random.default_rng(seed)
    # a random complex psi on every multiplicity space of dimension > 1
    # (among PROPERTY_SHAPES, at (3,3,3)), so a dropped conjugation shows
    assignments = {}
    for lam, t in specs[pick % len(specs)].assignments.items():
        psi = t.psi
        if psi.size > 1:
            psi = rng.normal(size=psi.size) + 1j * rng.normal(size=psi.size)
            psi /= np.linalg.norm(psi)
        assignments[lam] = ExtremalTriple(t.mu, t.gamma, psi)
    spec = ExtremalSpec(m, n, d, assignments)
    choi = extremal_choi(spec)
    # the Choi matrix is a channel's (CPTP) and covariant, by dense oracles
    assert max(choi_channel_defects(choi.matrix, d**m, d**n)) <= 1e-10
    unitary, perm = symmetry_residuals_kron(
        choi.matrix, m, n, d, 2, np.random.default_rng([seed, 1])
    )
    assert max(unitary + perm) <= 1e-10
    assert np.abs(factored_channel(spec).matrix - choi.matrix).max() < 1e-10
    A = rng.normal(size=(d**m, rank)) + 1j * rng.normal(size=(d**m, rank))
    rho = A @ A.conj().T
    rho /= np.trace(rho)
    out, _ = streamed_apply(spec, rho)
    assert np.abs(out - choi.apply(rho)).max() < 1e-10
    assert abs(np.trace(out) - 1) < 1e-10
    assert np.abs(out - out.conj().T).max() < 1e-10
    assert np.linalg.eigvalsh(out).min() > -1e-10


class TestResourceEstimate:
    def test_symmetrization_factors(self):
        est = application_estimate("symmetrize", m=6, n=6, d=2, r=2)
        assert est["memory_factor"] == 2 * 2
        assert est["gate_factor"] == 6 * 8 * 2
        assert "log2^p" in est["memory"]

    def test_cloning_factors(self):
        est = application_estimate("clone", m=2, n=5, d=3)
        assert est["memory_factor"] == 3
        assert est["gate_factor"] == 15

    def test_purity_factors(self):
        est = application_estimate("purify", m=7, n=1, d=2)
        assert est["memory_factor"] == 4
        assert est["gate_factor"] == 7 * 16

    @pytest.mark.parametrize("task", ["symmetrize", "clone", "purify"])
    @pytest.mark.parametrize("m", [0, -2])
    def test_rejects_m_below_one(self, task, m):
        with pytest.raises(ValueError, match=f"m={m}"):
            application_estimate(task, m=m, n=3, d=2)

    def test_generic_report(self):
        report = resource_estimate(4, 3, 2, 2, 1, 1, 0)
        assert report.rows[0].gate_factor == 4 * 8 * 2
        assert report.rows[2].gate_factor == 3 * 1 * 2
        text = report.table()
        assert "log2^p" in text
        assert "absorb" in text and "emit" in text

    def test_symbolic_never_evaluated(self):
        report = resource_estimate(4, 4, 2, 2, 2, 0, 0)
        for row in report.rows:
            assert "log2^p" in row.symbolic

    def test_bad_args(self):
        with pytest.raises(ValueError):
            resource_estimate(4, 4, 2, 5, 1, 0, 0)
