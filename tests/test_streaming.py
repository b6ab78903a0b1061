import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import equichan
import equichan.channels as channels
import equichan.streaming as streaming
from equichan.apps import clone, symmetrize

from equichan.channels import (
    STATE_TOL,
    ExtremalSpec,
    ExtremalTriple,
    check_input,
    enumerate_extremal_triples,
    extremal_choi,
    factored_channel,
    irrep_channel,
    purity_spec,
    symmetrization_spec,
)
from equichan.gtpaths import GtPath, enumerate_paths, sample_gt_path
from equichan.realize import lead_phase
from equichan.staircases import (
    box_label,
    dim_gl_irrep,
    dim_perm_irrep,
    empty_staircase,
    partitions_of,
    staircase,
)
from equichan.streaming import (
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
from equichan.suites import SWEEP_SHAPES, all_specs
from equichan.transforms import (
    BlockIsometry,
    _row_slices,
    _row_views,
    iterated_cg,
    schur_transform,
    simple_cg,
)

from oracles import (
    RowRng,
    absorb_kron,
    check_input_two_pass,
    choi_channel_defects,
    embed_trace_base,
    emit_dense,
    random_state,
    sampling_variance,
    symmetrize_brute,
    symmetry_residuals_kron,
)


# the shapes of the benchmark's cold crosscheck: 192 extremal specs
CROSSCHECK_SHAPES = [(2, 2, 3), (3, 3, 2), (4, 2, 2), (2, 3, 3), (4, 3, 2), (5, 1, 2)]


@pytest.fixture
def schedules(monkeypatch):
    """Every schedule streamed_apply validates, in call order."""
    seen = []
    check = streaming.validate_schedule

    def recorded(steps):
        seen.append(steps)
        return check(steps)

    monkeypatch.setattr(streaming, "validate_schedule", recorded)
    return seen


@pytest.fixture
def poisoned_empty(monkeypatch):
    """np.empty fills float and complex arrays with NaN, so that an entry
    the code reads or returns without writing it shows."""
    empty = np.empty

    def poisoned(*args, **kwargs):
        arr = empty(*args, **kwargs)
        if np.issubdtype(arr.dtype, np.inexact):
            arr.fill(np.nan)
        return arr

    monkeypatch.setattr(np, "empty", poisoned)


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


def _redraw_paths(tau, seed, trajectories):
    """The paths sample mode draws, redrawn by the public sample_gt_path.

    Per batch of at most streaming.CHUNK trajectories and per label mu of
    tau, in tau's order, one block of |mu| len(mu) uniforms per walker comes
    from one generator of the seed, and each walker's row feeds
    sample_gt_path.
    Returns each label's paths in trajectory order and the uniforms used.
    """
    gen = np.random.default_rng(seed)
    drawn = {mu: [] for mu in tau}
    samples = 0
    for done in range(0, trajectories, streaming.CHUNK):
        walkers = min(streaming.CHUNK, trajectories - done)
        for mu in tau:
            width = mu.size * sum(1 for e in mu.entries if e > 0)
            for row in gen.random((walkers, width)):
                redraw = RowRng(row)
                drawn[mu].append(sample_gt_path(mu, redraw))
                samples += redraw.count
    return drawn, samples


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
            sector = t.sectors[end]
            assert sector.paths == tuple(paths)
            for idx, p in enumerate(paths):
                ref = sector.rows[idx].conj().T
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
        span = _row_slices({g: s.rows.shape[:2] for g, s in S.sectors.items()})[gamma]
        cube = big.reshape(q_mu, 4, 2)
        sub = cube[:, span, :]
        assert np.linalg.norm(cube) - np.linalg.norm(sub) < 1e-10
        ch_rows = sub.reshape(-1, 2)
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
            (R,) = simple_cg(base, False).blocks[lam]
            expected = embed_trace_base(R, blk, q_base, d)
            assert np.abs(tau[t.mu] - expected).max() < 1e-12, lam
            assert schedule == [ScheduleStep("embed", ("Q", "path"), q_base * d, "inverse")]
            ledger.count(schedule)
            counts = ledger.num_simple_cg, ledger.num_simple_dual_cg, ledger.num_inverse_cg
            assert counts == (0, 0, 1)

    def test_multi_path_memo_holds_the_embed_trace_tensor(self, rng):
        # (1,1,0) -> (6,0,0) through (6,-1,-1), a triple of cloning_spec(2, 6, 3):
        # 13 GT paths over 8 sites, whose superposition has 28 * 3^8 rows;
        # the memo holds the 28 * 36 rows of the certified embed-trace tensor
        spec = channels.cloning_spec(2, 6, 3)
        lam = staircase(1, 1, 0)
        t = spec.triple(lam)
        assert (t.mu, t.gamma) == (staircase(6, 0, 0), staircase(6, -1, -1))
        sup = _path_superposition(lam, t.mu, t.gamma)
        assert sup.embeddings.shape == (1, 1008, 3)
        assert not sup.embeddings.flags.writeable
        blk = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        tau = _middle_phase(spec, {lam: blk}, ResourceLedger(), [])
        expected = irrep_channel(lam, t.mu, t.gamma, t.psi).apply(blk)
        assert np.abs(tau[t.mu] - expected).max() < 1e-10

    def test_psi_contraction_at_multiplicity_two(self, rng):
        # every spec of (3,3,3) with a two-dimensional multiplicity space,
        # that triple given a random complex unit psi: tau is, bit for bit,
        # the middle phase with the psi contraction done by np.tensordot,
        # and the streamed output the direct Choi channel's
        m = n = d = 3
        rho = random_state(d**m, rng)
        sigma = _absorb_phase(rho, m, d, ResourceLedger(), [])
        specs = 0
        for base in all_specs(m, n, d):
            pairs = [(lam, t) for lam, t in base.assignments.items() if len(t.psi) == 2]
            if not pairs:
                continue
            (lam0, t0), = pairs
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            triple = ExtremalTriple(t0.mu, t0.gamma, psi)
            spec = ExtremalSpec(m, n, d, {**base.assignments, lam0: triple})
            expected = {}
            for lam, blk in sigma.items():
                if np.linalg.norm(blk) < WEIGHTLESS_NORM:
                    continue
                t = spec.triple(lam)
                emb = np.tensordot(t.psi, _path_superposition(lam, t.mu, t.gamma).embeddings, 1)
                q_mu = dim_gl_irrep(t.mu)
                out = (emb @ blk).reshape(q_mu, -1) @ emb.reshape(q_mu, -1).conj().T
                expected[t.mu] = expected.get(t.mu, 0) + out
            tau = _middle_phase(spec, sigma, ResourceLedger(), [])
            assert tau.keys() == expected.keys()
            for mu, blk in tau.items():
                assert np.array_equal(blk, expected[mu]), (lam0, mu)
            out, _ = streamed_apply(spec, rho)
            assert np.linalg.norm(out - extremal_choi(spec).apply(rho)) < 1e-8, lam0
            specs += 1
        assert specs == 27

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

    def test_schedule_structure(self, rng, schedules):
        spec = symmetrization_spec(3, 2)
        rho = random_state(8, rng)
        streamed_apply(spec, rho)
        (schedule,) = schedules
        validate_schedule(schedule)
        ops = [s.op for s in schedule]
        assert ops.count("absorb") == 3
        assert ops.count("emit") == 2

    def test_weightless_labels_are_skipped(self, schedules):
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
            out, ledger = streamed_apply(spec, rho)
            schedule = schedules[-1]
            assert np.abs(out - extremal_choi(spec).apply(rho)).max() < 1e-10
            alone = []
            _middle_phase(spec, {row: sigma[row]}, ResourceLedger(), alone)
            assert [s for s in schedule if s.op not in ("absorb", "emit")] == alone
            assert ledger.r_prime == spec.triple(row).mu.length
            ledgers.setdefault((spec.m, spec.n), ledger)
        assert ledgers[(3, 1)].num_inverse_cg == 1
        assert ledgers[(3, 3)].r_prime == 1

    def test_no_input_sites(self, schedules):
        # m = 0: nothing is absorbed, the 1 x 1 state sits on the empty label
        # and the middle and emission phases run as for m >= 1
        rho = np.eye(1)
        nspecs = 0
        for d in (2, 3):
            ledger, steps = ResourceLedger(), []
            sigma = _absorb_phase(rho, 0, d, ledger, steps)
            assert list(sigma) == [empty_staircase(d)]
            assert sigma[empty_staircase(d)].dtype == complex
            assert steps == [] and ledger.r == 0
            for n in range(4):
                for spec in all_specs(0, n, d):
                    out, ledger = streamed_apply(spec, rho)
                    assert np.abs(out - extremal_choi(spec).apply(rho)).max() < 1e-12
                    ops = [s.op for s in schedules[-1]]
                    assert "absorb" not in ops
                    assert ops.count("emit") == max(n - 1, 0)
                    sites = [r for s in schedules[-1] for r in s.registers]
                    assert not any(r.startswith("in:") for r in sites)
                    assert ledger.r == 0 and ledger.num_simple_cg == 0
                    assert ledger.r_prime == spec.triple(empty_staircase(d)).mu.length
                    nspecs += 1
        assert nspecs == 13

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

    def test_crosscheck_shapes_stream_every_block(self, rng, schedules):
        # every middle block of the 192 specs is embedded site by site: no
        # schedule has another op, and the output is the Choi matrix's
        nspecs = 0
        for m, n, d in CROSSCHECK_SHAPES:
            for spec in all_specs(m, n, d):
                rho = random_state(d**m, rng)
                out, _ = streamed_apply(spec, rho)
                assert {s.op for s in schedules[-1]} <= {"absorb", "embed", "emit"}
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

    def test_bad_trajectories_rejected(self, monkeypatch, rng):
        # an int >= 1 that is not a bool, the integer rule of fileio, is
        # checked at the entry: absorption never runs on a bad count
        import equichan.streaming as streaming

        spec = symmetrization_spec(3, 2)
        rho = random_state(8, rng)

        def absorbed(*args, **kwargs):
            raise AssertionError("absorption ran")

        monkeypatch.setattr(streaming, "_absorb_phase", absorbed)
        for trajectories in (0, -5, 2.5, 1e3, True, False, "5", None):
            with pytest.raises(ValueError, match="trajectories"):
                streamed_apply(spec, rho, mode="sample", trajectories=trajectories)

    def test_bad_seed_rejected(self, monkeypatch, rng):
        # a sample-mode seed must name one stream: None drew fresh entropy,
        # True ran as seed 1, and 2.7 and -1 failed inside numpy without
        # naming the seed; absorption never runs on a bad seed
        spec = symmetrization_spec(3, 2)
        rho = random_state(8, rng)

        def absorbed(*args, **kwargs):
            raise AssertionError("absorption ran")

        monkeypatch.setattr(streaming, "_absorb_phase", absorbed)
        for seed in (None, True, False, 2.7, 2.0, "5", -1):
            with pytest.raises(ValueError, match="seed"):
                streamed_apply(spec, rho, mode="sample", seed=seed, trajectories=5)

    def test_integer_seeds_accepted(self, rng):
        # numpy integers name the same stream as the int
        spec = symmetrization_spec(4, 2)
        rho = random_state(16, rng)
        a, la = streamed_apply(spec, rho, mode="sample", seed=4, trajectories=20)
        for seed in (np.int64(4), np.uint32(4)):
            b, lb = streamed_apply(spec, rho, mode="sample", seed=seed, trajectories=20)
            assert a.tobytes() == b.tobytes()
            assert la == lb

    def test_exact_mode_ignores_seed(self, rng):
        # exact mode draws nothing, so it reads no seed
        spec = symmetrization_spec(4, 2)
        rho = random_state(16, rng)
        want, _ = streamed_apply(spec, rho)
        for seed in (None, True, 2.7, -1):
            got, _ = streamed_apply(spec, rho, seed=seed)
            assert got.tobytes() == want.tobytes()

    def test_integer_trajectories_accepted(self, rng):
        # numpy integers are integers, as for fileio
        spec = symmetrization_spec(3, 2)
        rho = random_state(8, rng)
        a, _ = streamed_apply(spec, rho, mode="sample", seed=4, trajectories=7)
        b, _ = streamed_apply(spec, rho, mode="sample", seed=4, trajectories=np.int64(7))
        assert np.array_equal(a, b)

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
            redrawn, samples = _redraw_paths(tau, seed, trajectories)
            expected = np.zeros_like(out)
            for mu, blk in tau.items():
                for path in redrawn[mu]:
                    idx = S.sectors[mu].paths.index(path)
                    drawn_later_paths |= idx > 0
                    rows = S.sectors[mu].rows[idx]
                    expected += rows.conj().T @ blk @ rows / trajectories
            drawn = [p for paths in redrawn.values() for p in paths]
            drawn_twice |= any(
                drawn.count(p) > 1 for p in drawn if dim_perm_irrep(p.end) > 1
            )
            assert ledger.classical_samples == samples
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


# Sample mode against exact mode through the exact sampling variance of
# oracles.sampling_variance.  By Chebyshev, a T-trajectory average is
# k sqrt(variance / T) or more from the exact output with probability at
# most 1/k^2 on any spec; a spec whose weighted sectors all have one GT
# path has variance 0 and must give the exact output.
CHEBYSHEV_K = 5
VARIANCE_TRAJECTORIES = 40


class TestSampleVariance:
    @pytest.mark.parametrize(
        "shape", SWEEP_SHAPES + CROSSCHECK_SHAPES, ids=lambda s: "-".join(map(str, s))
    )
    def test_every_extremal_spec_within_chebyshev_bound(self, shape, rng):
        m, n, d = shape
        T = VARIANCE_TRAJECTORIES
        for idx, spec in enumerate(all_specs(m, n, d)):
            rho = random_state(d**m, rng)
            exact, _ = streamed_apply(spec, rho)
            bound = CHEBYSHEV_K * np.sqrt(sampling_variance(exact, n, d) / T) + 1e-12
            for seed in (idx, idx + 1000):
                sampled, _ = streamed_apply(
                    spec, rho, seed=seed, mode="sample", trajectories=T
                )
                assert np.linalg.norm(sampled - exact) <= bound, (idx, seed)

    def test_mean_squared_ratio_near_one(self, rng):
        # T ||sampled - exact||^2 / variance has mean 1 on every spec; on
        # these specs each weighted label has at most two paths, so one
        # seed's ratio has standard deviation up to sqrt(2), and the mean
        # over 240 seeds is within 0.35 of 1 unless 3.8 sigma off.  Each
        # spec takes its own seeds: equal seeds would repeat the draws
        T, seeds = 20, 60
        ratios = []
        picks = [((3, 3, 2), 2), ((3, 3, 2), 23), ((2, 3, 3), 2), ((2, 3, 3), 46)]
        for k, ((m, n, d), idx) in enumerate(picks):
            spec = all_specs(m, n, d)[idx]
            rho = random_state(d**m, rng)
            exact, _ = streamed_apply(spec, rho)
            variance = sampling_variance(exact, n, d)
            assert variance > 1e-6
            for seed in range(k * seeds, (k + 1) * seeds):
                sampled, _ = streamed_apply(spec, rho, seed=seed, mode="sample", trajectories=T)
                ratios.append(T * np.linalg.norm(sampled - exact) ** 2 / variance)
        assert abs(np.mean(ratios) - 1) < 0.35, np.mean(ratios)


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
        # Rotating every block of a CG matrix by its own orthogonal W keeps
        # each a valid isometry onto its label, and the leg-wise contraction
        # must then still match C (x) 1 applied on both sides.  The gauge is
        # real: simple_cg is real by contract, and absorption applies it in
        # real arithmetic on the complex block's real and imaginary parts.
        gauged = {}

        def gauged_cg(nu, dual):
            if nu not in gauged:
                cg = simple_cg(nu, dual)
                rows = {}
                for label, (R,) in cg.blocks.items():
                    W = np.linalg.qr(rng.normal(size=(len(R), len(R))))[0]
                    rows[label] = W @ R
                M = np.concatenate(list(rows.values()))
                shapes = {label: (1, len(R)) for label, R in rows.items()}
                gauged[nu] = BlockIsometry(M, _row_views(M, shapes))
            return gauged[nu]

        monkeypatch.setattr("equichan.streaming.simple_cg", gauged_cg)
        _check_absorb_against_kron(m, d, rng, lambda nu: gauged_cg(nu, False))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_simple_cg_is_real_and_read_only(self, d):
        # absorption applies simple_cg in real arithmetic: every matrix of
        # the labels absorbed over ABSORB_SHAPES, of their duals and of both
        # site kinds, is float64 and read-only
        m = max(m for m, dd in ABSORB_SHAPES if dd == d)
        labels = [lam for t in range(m) for lam in partitions_of(t, d)]
        labels += [lam.dual() for lam in labels]
        for lam in labels:
            for dual in (False, True):
                matrix = simple_cg(lam, dual).matrix
                assert matrix.dtype == np.float64, (lam, dual)
                assert not matrix.flags.writeable, (lam, dual)

    def test_simple_cg_rejects_a_complex_build(self, monkeypatch):
        monkeypatch.setattr("equichan.transforms.lead_phase", lambda M: 1j * lead_phase(M))
        simple_cg.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="not real"):
                simple_cg(staircase(2, 1, 0), False)
        finally:
            simple_cg.cache_clear()


def _dyadic_state(dim, rng):
    """A full-rank state whose entries are multiples of 2**-20 with trace
    exactly 1, so that float32 and float64 hold every entry exactly."""
    rho = (random_state(dim, rng) + np.eye(dim) / dim) / 2
    scale = 2.0**20
    rho = (np.round(rho.real * scale) + 1j * np.round(rho.imag * scale)) / scale
    rho[-1, -1] += 1 - np.trace(rho)
    return rho


@pytest.mark.parametrize("m,n,d", [(1, 2, 3), (3, 2, 2), (2, 2, 3)])
def test_streamed_apply_neither_copies_nor_changes_input(m, n, d, rng):
    spec = all_specs(m, n, d)[-1]
    rho = _dyadic_state(d**m, rng)
    before = rho.copy()
    out, _ = streamed_apply(spec, rho)
    assert rho.tobytes() == before.tobytes()
    assert not np.shares_memory(out, rho)
    strided = np.zeros((d**m, 2 * d**m), dtype=complex)
    strided[:, ::2] = rho
    variants = {
        "F-ordered": np.asfortranarray(rho),
        "transposed": rho.T,
        "strided": strided[:, ::2],
        "float64": np.ascontiguousarray(rho.real),
        "complex64": rho.astype(np.complex64),
    }
    for name, variant in variants.items():
        kept = variant.copy()
        got, _ = streamed_apply(spec, variant)
        want, _ = streamed_apply(spec, np.ascontiguousarray(variant, dtype=complex))
        assert np.abs(got - want).max() < 1e-14, name
        assert variant.tobytes() == kept.tobytes(), name
        assert not np.shares_memory(got, variant), name


EMIT_SHAPES = [(n, 2) for n in range(2, 9)] + [(n, 3) for n in range(3, 7)] + [(4, 4)]


def _symmetrization_tau(n, d, rng):
    ledger = ResourceLedger()
    sigma = _absorb_phase(random_state(d**n, rng), n, d, ledger, [])
    return _middle_phase(symmetrization_spec(n, d), sigma, ledger, [])


def _check_emission_against_dense(tau, n, d, mode, seed=0, trajectories=0):
    """_emission_phase against emit_dense, with the drawn paths redrawn
    independently by sample_gt_path from the same per-batch blocks."""
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
            sec = S.sectors[mu]
            sectors.append((blk, sec.rows, np.full(sec.p_dim, 1 / sec.p_dim)))
    else:
        redrawn, samples = _redraw_paths(tau, seed, trajectories)
        for mu, blk in tau.items():
            counts = Counter(redrawn[mu])
            sec = S.sectors[mu]
            rows = np.stack([sec.rows[sec.paths.index(p)] for p in counts])
            weights = np.array(list(counts.values())) / trajectories
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
        rows = S.sectors[staircase(3, 2)].rows
        assert np.linalg.norm(out @ rows.reshape(-1, 2**n).T) < 1e-12

    @pytest.mark.parametrize("n,d", [(4, 2), (3, 3), (7, 2)])
    def test_sample_draws_span_several_blocks(self, n, d, rng, monkeypatch):
        # sample mode walks the trajectories in batches of at most CHUNK,
        # with one block of uniforms per batch and label; with CHUNK = 16
        # these 37 trajectories make two full batches and a partial third,
        # and each batch's blocks must be the ones a redraw on one
        # generator sees
        monkeypatch.setattr(streaming, "CHUNK", 16)
        tau = _symmetrization_tau(n, d, rng)
        _check_emission_against_dense(tau, n, d, "sample", seed=10 * n + d, trajectories=37)

    @pytest.mark.parametrize("mode", ["exact", "sample"])
    def test_classes_without_live_rows_are_zero(self, mode, rng, poisoned_empty):
        # tau on label (3,2) alone: its rows carry the weights (3,2) and
        # (2,3), so the classes (5,0), (4,1), (1,4) and (0,5) have no live
        # row and are set to 0 in an output buffer that np.empty, here
        # filled with NaN, hands over unwritten
        n, d = 5, 2
        lam = staircase(3, 2)
        tau = {lam: _symmetrization_tau(n, d, rng)[lam]}
        out = _check_emission_against_dense(tau, n, d, mode, seed=3, trajectories=25)
        S = schur_transform(n, 0, d)
        dead = [wb for wb in S.weight_blocks if wb.weight not in ((3, 2), (2, 3))]
        assert sorted(wb.weight for wb in dead) == [(0, 5), (1, 4), (4, 1), (5, 0)]
        for wb in dead:
            assert not out[wb.cols].any() and not out[:, wb.cols].any()

    @pytest.mark.parametrize("n,d", [(4, 2), (3, 3)])
    def test_single_trajectory_partly_live_classes(self, n, d, rng, poisoned_empty):
        # one drawn path per label leaves classes with one live row (an outer
        # product), classes with several and classes with some rows unfilled
        tau = _symmetrization_tau(n, d, rng)
        _check_emission_against_dense(tau, n, d, "sample", seed=7, trajectories=1)

    @pytest.mark.parametrize("mode", ["exact", "sample"])
    @pytest.mark.parametrize("n,d", [(5, 2), (4, 3)])
    def test_one_live_row_per_class(self, n, d, mode, rng, poisoned_empty):
        # tau on the symmetric label alone, as in cloning: its one path puts
        # one live row in every class, most of which hold rows of other
        # labels too, and each class is one outer product
        sym = staircase(n, *([0] * (d - 1)))
        tau = {sym: _symmetrization_tau(n, d, rng)[sym]}
        S = schur_transform(n, 0, d)
        assert any(len(wb.rows) > 1 for wb in S.weight_blocks)
        _check_emission_against_dense(tau, n, d, mode, seed=5, trajectories=3)

    def test_one_walk_loop_per_batch(self, rng, monkeypatch):
        # all labels of a batch walk in one _walk_many call: with CHUNK = 16,
        # 40 trajectories make three batches, so the four weighted labels of
        # symmetrization(4, 3) take three calls, not one per batch and label
        calls = []

        def counted(labels, uniforms):
            calls.append(labels)
            return walk_many(labels, uniforms)

        walk_many = streaming._walk_many
        monkeypatch.setattr(streaming, "_walk_many", counted)
        monkeypatch.setattr(streaming, "CHUNK", 16)
        spec = symmetrization_spec(4, 3)
        streamed_apply(spec, random_state(81, rng), seed=5, mode="sample", trajectories=40)
        assert len(calls) == 3
        assert all(len(labels) == 4 for labels in calls)

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


class TestFiniteCertificate:
    """Emission certifies the output's finiteness by the finite norms of the
    tau_mu and scans the output densely only when a norm is not finite; it
    must decide every run as the dense scan after emission does."""

    @staticmethod
    def _scans(monkeypatch):
        """Spy on the dense output scan: the shapes of the arrays it sees."""
        shapes = []
        check_finite = streaming._check_finite

        def spy(X):
            shapes.append(X.shape)
            check_finite(X)

        monkeypatch.setattr(streaming, "_check_finite", spy)
        return shapes

    @staticmethod
    def _outcome(call):
        """The exception type and message of call(), or its output bytes
        and whatever else it returns."""
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                out, *rest = call()
            except (ValueError, np.linalg.LinAlgError) as exc:
                return type(exc), str(exc)
        return out.tobytes(), *rest

    def _dense(self, call, monkeypatch):
        """The outcome of call() with emission's scan off and the whole
        output scanned before its trace is tested."""
        with monkeypatch.context() as mp:
            mp.setattr(streaming, "_check_finite", lambda X: None)
            mp.setattr(
                streaming,
                "_check_unit_trace",
                lambda X: (channels._check_finite(X), channels._check_unit_trace(X)),
            )
            return self._outcome(call)

    def test_finite_runs_never_scan_the_output(self, monkeypatch, rng):
        rho = random_state(729, rng)
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        small = random_state(32, rng)

        def runs():
            symmetrize(rho, 6, 3)
            clone(psi, 2, 6, 3)
            symmetrize(small, 5, 2, mode="sample", seed=1, trajectories=50)

        runs()  # warm the caches
        shapes = self._scans(monkeypatch)
        runs()
        assert shapes == []

    @pytest.mark.parametrize("mode", ["exact", "sample"])
    @pytest.mark.parametrize("m,d", [(2, 2), (3, 2)])
    @pytest.mark.parametrize("value", [1e160, 1e300, 1.7e308])
    def test_huge_inputs_agree_with_dense_scan(self, value, m, d, mode, monkeypatch):
        # Hermitian trace-1 inputs with one huge off-diagonal pair: some
        # tau_mu has a norm that is not finite
        spec, dim = symmetrization_spec(m, d), d**m
        for pair in ((0, 1), (0, dim - 1), (1, dim - 2)):
            rho = np.eye(dim, dtype=complex) / dim
            rho[pair] = rho[pair[::-1]] = value
            ledger = ResourceLedger()
            with np.errstate(over="ignore", invalid="ignore"):
                tau = _middle_phase(spec, _absorb_phase(rho, m, d, ledger, []), ledger, [])
                assert not all(np.isfinite(np.linalg.norm(b)) for b in tau.values())

            def run():
                return streamed_apply(spec, rho, mode=mode, seed=3, trajectories=20)

            assert self._outcome(run) == self._dense(run, monkeypatch), pair

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_fallback_scan_agrees_with_dense_scan(self, m, monkeypatch):
        # every spec (m, 3, 2) on inputs with one pair at 1e300, 1.7e308
        # or the float maximum: some of these pass the sector floor with a
        # norm that is not finite, so emission scans the output itself
        dim = 2**m
        shapes = self._scans(monkeypatch)
        for spec in all_specs(m, 3, 2):
            for value in (1e300, 1.7e308, np.finfo(float).max):
                for pair in ((0, 1), (1, dim - 2), (0, dim - 1), (dim // 4, dim // 2)):
                    rho = np.eye(dim, dtype=complex) / dim
                    rho[pair] = rho[pair[::-1]] = value

                    def run():
                        return streamed_apply(spec, rho)

                    assert self._outcome(run) == self._dense(run, monkeypatch)
        assert shapes and set(shapes) == {(8, 8)}

    @pytest.mark.parametrize("mode", ["exact", "sample"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(1, np.inf)])
    def test_non_finite_tau_reaches_the_output_only_by_emission(
        self, value, mode, monkeypatch, rng
    ):
        # a 1 x 1 block tau_(2,2) holding NaN or inf passes the sector
        # floor, whose eigenvalue is then NaN or +inf; the fallback scan
        # must refuse the output
        n, d = 4, 2
        tau = _symmetrization_tau(n, d, rng)
        lam = staircase(2, 2)
        assert tau[lam].shape == (1, 1)
        tau[lam] = np.full((1, 1), value, dtype=complex)

        def run():
            return (
                _emission_phase(
                    tau, n, d, ResourceLedger(), [], mode=mode, seed=3, trajectories=20
                ),
            )

        shapes = self._scans(monkeypatch)
        got = self._outcome(run)
        assert got == (ValueError, "output has non-finite entries")
        assert shapes == [(16, 16)]
        with monkeypatch.context() as mp, np.errstate(invalid="ignore"):
            mp.setattr(streaming, "_check_finite", lambda X: None)
            out = _emission_phase(
                tau, n, d, ResourceLedger(), [], mode=mode, seed=3, trajectories=20
            )
        with pytest.raises(ValueError, match="^output has non-finite entries$"):
            channels._check_finite(out)


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


# Run by fresh interpreters under different hash seeds: the Choi matrices of
# the direct and the factored construction, and the sample and exact
# outputs and ledgers, of a few specs, hashed.  Sample mode orders its
# labels by dict order and its paths by their keys, so neither may depend on
# the interpreter's string and tuple hashing.
SAME_SEED_RUNS = (
    "import hashlib\n"
    "import numpy as np\n"
    "from equichan.channels import extremal_choi, factored_channel\n"
    "from equichan.suites import all_specs\n"
    "from equichan.streaming import streamed_apply\n"
    "digest = hashlib.sha256()\n"
    "rng = np.random.default_rng(11)\n"
    "for (m, n, d), picks in [((3, 3, 2), (2, 11, 23)), ((2, 3, 3), (3, 20, 46))]:\n"
    "    specs = all_specs(m, n, d)\n"
    "    for idx in picks:\n"
    "        A = rng.normal(size=(d**m, d**m)) + 1j * rng.normal(size=(d**m, d**m))\n"
    "        rho = A @ A.conj().T\n"
    "        rho /= np.trace(rho)\n"
    "        digest.update(extremal_choi(specs[idx]).matrix.tobytes())\n"
    "        digest.update(factored_channel(specs[idx]).matrix.tobytes())\n"
    "        for mode in ('exact', 'sample'):\n"
    "            out, ledger = streamed_apply(\n"
    "                specs[idx], rho, seed=idx, mode=mode, trajectories=300\n"
    "            )\n"
    "            digest.update(out.tobytes())\n"
    "            digest.update(repr(ledger.as_dict()).encode())\n"
    "print(digest.hexdigest())\n"
)


def test_same_seed_same_result_across_processes():
    src = Path(equichan.__file__).resolve().parents[1]
    digests = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", SAME_SEED_RUNS], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout)
    assert len(digests) == 1, digests


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


@pytest.mark.parametrize(
    "dim,entry",
    [
        (729, (710, 725)),  # both sides in the last diagonal tile, 729 - 11 * 64 = 25 wide
        (729, (63, 64)),  # the two sides in tile pair (0, 1)
        (729, (0, 728)),  # the two sides in tile pair (0, 11)
        (27, (20, 25)),  # one tile, narrower than HERMITICITY_BAND
        (27, (0, 26)),
        (729, (700, 700)),  # one diagonal entry, in diagonal tile 10 of weight 1
        (729, (728, 5)),  # below the diagonal, its mirror in tile pair (0, 11)
        (64, (0, 63)),  # one tile, the defect at its corners
        (64, (63, 63)),
        (65, (63, 64)),  # tile pair (0, 1), the second tile one entry wide
        (65, (64, 64)),  # the last diagonal tile, of one entry
    ],
)
def test_hermiticity_check_band_edges(dim, entry, rng):
    # one defect e: off the diagonal, rho - rho^dag holds e on the entry
    # and -conj(e) on its mirror, so its norm is sqrt(2) |e|; on the
    # diagonal e is imaginary and the norm is 2 |e|.  The squared norm is
    # summed over tile pairs, those off the diagonal weighted by 2, the
    # diagonal tiles by 1: norms of 2e-8 and 1.2e-8 are rejected, and 8e-9
    # and 5e-9 accepted, so a weight of 1 off the diagonal or of 2 on it
    # fails.  On the diagonal a norm of 2e-8 would move the trace by 1e-8,
    # which the trace test may refuse first, so it is not tried there.
    assert channels.HERMITICITY_BAND == 64
    diagonal = entry[0] == entry[1]
    rho = random_state(dim, rng)
    for defect, hermitian in ((2e-8, False), (1.2e-8, False), (8e-9, True), (5e-9, True)):
        if diagonal and defect / 2 >= STATE_TOL:
            continue
        bad = rho.copy()
        bad[entry] += 0.5j * defect if diagonal else defect / np.sqrt(2) * np.exp(0.3j)
        if hermitian:
            check_input(bad, dim)
        else:
            with pytest.raises(ValueError, match="input is not Hermitian"):
                check_input(bad, dim)


def test_input_check_reads_nested_lists():
    # a list used to fail with AttributeError; it is read as an array
    with pytest.raises(ValueError, match="input trace 2, expected 1"):
        check_input([[1, 0], [0, 1]], 2)
    with pytest.raises(ValueError, match="input is not Hermitian"):
        check_input([[0.5, 1], [0, 0.5]], 2)
    check_input([[0.5, 0.5j], [-0.5j, 0.5]], 2)


def test_input_check_holds_no_dense_copy(rng):
    # the Hermiticity test sums rho^dag - rho over 64 x 64 tile pairs I <= J
    # in one tile buffer; a dense D x D copy of the input would take
    # rho.nbytes at once
    dim = 729
    rho = random_state(dim, rng)
    tracemalloc.start()
    try:
        check_input(rho, dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rho.nbytes / 4, peak


def _gate_outcome(gate, rho, dim, warn):
    """(exception type, message) of gate(rho, dim), or None if it passes;
    warnings are raised as errors when warn is "error"."""
    with warnings.catch_warnings():
        warnings.simplefilter(warn)
        try:
            gate(rho, dim)
        except Exception as exc:  # the type is compared as well as the message
            return type(exc), str(exc)
    return None


@pytest.mark.parametrize("dim", [4, 65, 130, 729])
def test_one_pass_gate_matches_two_pass_oracle(dim, rng):
    # check_input reads rho once and scans it for non-finite entries only
    # when the Hermiticity sum or the trace is not finite; every input must
    # get the two-pass gate's exception and message, with no warning
    rho = random_state(dim, rng)
    last = dim - 1
    places = {
        "corners": [[(0, 0)], [(0, last)], [(last, 0)], [(last, last)]],
        "diagonal": [[(dim // 2, dim // 2)]],
        "mirrored": [[(1, last - 1), (last - 1, 1)]],
        "last-partial-tile": [[(last, last - 1)]],
    }
    cases = {}
    for value in (np.nan, np.inf, -np.inf, complex(np.inf, 1), 1e160, 1e200, 1e300, 1.8e308):
        for where, entry_sets in places.items():
            for entries in entry_sets:
                bad = rho.copy()
                for k, entry in enumerate(entries):
                    bad[entry] = np.conj(value) if k else value
                cases[f"{value} {where} {entries[0]}"] = (bad, dim)
    trace_20 = 20 * rho
    trace_20[0, last] = np.inf
    nan_shape = random_state(dim + 1, rng)
    nan_shape[0, 0] = np.nan
    nan_single = rho.astype(np.complex64)
    nan_single[last, 0] = np.nan
    cases.update(
        {
            "trace 20 and inf": (trace_20, dim),
            "wrong shape": (random_state(dim + 1, rng), dim),
            "wrong shape, NaN": (nan_shape, dim),
            "1-D": (rho[0], dim),
            "complex64": (rho.astype(np.complex64), dim),
            "complex64, NaN": (nan_single, dim),
            "object": (rho.astype(object), dim),
        }
    )
    seen = set()
    for name, (bad, n) in cases.items():
        want = _gate_outcome(check_input_two_pass, bad, n, "ignore")
        assert _gate_outcome(check_input, bad, n, "error") == want, name
        seen.add(want and want[1].split(" ")[1])
    # every decision is met: accepted, non-finite, shape, trace, Hermiticity
    assert seen >= {None, "has", "shape", "trace", "is"}, seen


def _warm_peak(call):
    """Peak tracemalloc memory of call() on warm caches: of a second call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_warm_exact_phases_hold_one_output_sized_buffer(rng):
    # emission holds T inside its output and absorption contracts one
    # output block at a time, so neither phase holds two full-size arrays
    # (2.0 times the output); peaks are multiples of the D x D output's
    # nbytes, counted by tracemalloc and so free of the allocator
    m = n = 6
    d = 3
    rho = random_state(d**m, rng)
    nbytes = rho.nbytes
    peak = _warm_peak(lambda: _absorb_phase(rho, m, d, ResourceLedger(), []))
    assert peak < 1.6 * nbytes, peak / nbytes
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    pure = np.outer(psi, psi.conj())
    for spec, state, bound in (
        (symmetrization_spec(m, d), rho, 1.75),
        (channels.cloning_spec(2, n, d), np.kron(pure, pure), 1.3),
    ):
        ledger = ResourceLedger()
        sigma = _absorb_phase(state, spec.m, d, ledger, [])
        tau = _middle_phase(spec, sigma, ledger, [])
        peak = _warm_peak(
            lambda: _emission_phase(
                tau, n, d, ResourceLedger(), [], mode="exact", seed=0, trajectories=0
            )
        )
        assert peak < bound * nbytes, (spec.m, peak / nbytes)


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

    @pytest.mark.parametrize("d", [2, 3])
    def test_accepts_the_register_counts_of_runs_without_sites(self, d):
        # a run with no input sites records r = 0 and one with no output
        # sites r_prime = 0; both used to be refused
        recorded = set()
        for m, n in [(0, k) for k in range(4)] + [(k, 0) for k in range(1, 4)]:
            rho = np.eye(d**m) / d**m
            for spec in all_specs(m, n, d):
                _, ledger = streamed_apply(spec, rho)
                resource_estimate(m, n, d, ledger.r, ledger.r_prime, 0, 0)
                recorded.add((ledger.r, ledger.r_prime))
        assert {(0, 0), (0, 1), (2, 0)} <= recorded
        for r, r_prime in ((0, 1), (1, 0)):
            with pytest.raises(ValueError, match="^need 1 <= r, r_prime <= d$"):
                resource_estimate(1, 1, d, r, r_prime, 0, 0)

    @pytest.mark.parametrize("d", [0, -2])
    def test_rejects_d_below_one_by_name(self, d):
        # d < 1 used to be reported as "need 1 <= r, r_prime <= d"
        with pytest.raises(ValueError, match=f"^need d >= 1, got d={d}$"):
            resource_estimate(3, 2, d, 1, 1, 0, 0)
        for task in ("symmetrize", "clone", "purify"):
            with pytest.raises(ValueError, match=f"^need d >= 1, got d={d}$"):
                application_estimate(task, m=3, n=4, d=d)

    @pytest.mark.parametrize("key", ["m", "n", "k", "l"])
    def test_rejects_negative_counts_by_name(self, key):
        # l = -5 used to give negative transform, memory and gate counts,
        # and m = -3 a math domain error
        args = dict(m=3, n=2, d=2, r=1, r_prime=1, k=1, l=1)
        args[key] = -3
        with pytest.raises(ValueError, match=f"^need {key} >= 0, got {key}=-3$"):
            resource_estimate(**args)

    @pytest.mark.parametrize("key", ["m", "n", "d", "r", "r_prime", "k", "l"])
    @pytest.mark.parametrize("bad", [True, False, 2.0, 2.5])
    def test_rejects_bool_and_float_counts_by_name(self, key, bad):
        # m = True with n = 2.5 used to return a report
        args = dict(m=3, n=2, d=2, r=1, r_prime=1, k=1, l=1)
        args[key] = bad
        with pytest.raises(ValueError, match=f"^need an integer {key}, got {key}={bad!r}$"):
            resource_estimate(**args)

    @pytest.mark.parametrize("task", ["symmetrize", "clone", "purify"])
    @pytest.mark.parametrize("key", ["m", "n", "d"])
    @pytest.mark.parametrize("bad", [True, 2.0])
    def test_application_rejects_bool_and_float_shape_by_name(self, task, key, bad):
        # symmetrize with m = 2.0 used to return the float gate_factor 32.0
        args = dict(m=2, n=3, d=2)
        args[key] = bad
        with pytest.raises(ValueError, match=f"^need an integer {key}, got {key}={bad!r}$"):
            application_estimate(task, **args)

    @pytest.mark.parametrize("bad", [True, 2.0])
    def test_application_rejects_bool_and_float_r_by_name(self, bad):
        with pytest.raises(ValueError, match=f"^need an integer r, got r={bad!r}$"):
            application_estimate("symmetrize", m=4, n=None, d=2, r=bad)

    @pytest.mark.parametrize("task", ["symmetrize", "purify"])
    def test_n_optional_where_unread(self, task):
        est = application_estimate(task, m=np.int64(3), n=None, d=np.int64(2))
        assert est == application_estimate(task, m=3, n=1, d=2)
        assert type(est["gate_factor"]) is int

    def test_clone_still_needs_n_above_m(self):
        for n in (None, 2):
            with pytest.raises(ValueError, match="^cloning needs 0 < m < n$"):
                application_estimate("clone", m=2, n=n, d=2)
        with pytest.raises(ValueError, match="^need 1 <= r, r_prime <= d$"):
            resource_estimate(3, 2, 2, 0, 1, 0, 0)
