import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import equichan
import equichan.apps as apps
import equichan.streaming as streaming
from equichan.apps import (
    clone,
    cloning_fidelity,
    depolarized_copies,
    purity_amplify,
    symmetrize,
)
from equichan.channels import (
    ChoiMatrix,
    check_state,
    check_symmetries,
    cloning_spec,
    extremal_choi,
    gamma_min,
    purity_spec,
    symmetrization_spec,
)
from equichan.staircases import dim_gl_irrep, partitions_of, staircase, sym_dim
from equichan.streaming import streamed_apply
from equichan.suites import all_specs
from equichan.transforms import permutation_operator
from equichan.verify import haar_unitary

from oracles import (
    random_state,
    sampling_variance,
    symmetrize_brute,
    symmetric_projector,
    werner_cloner,
)


def haar_vector(d, rng):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


class TestSymmetrize:
    def test_two_site_by_hand(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = 1.0  # |01><01|
        res = symmetrize(rho, 2, 2)
        swap = permutation_operator((1, 0), 2, 2)
        expected = 0.5 * (rho + swap @ rho @ swap.T)
        assert np.linalg.norm(res.output - expected) < 1e-12

    def test_matches_brute_force(self, rng):
        for m, d in [(3, 2), (4, 2), (3, 3), (2, 3)]:
            rho = random_state(d**m, rng)
            res = symmetrize(rho, m, d)
            assert np.linalg.norm(res.output - symmetrize_brute(rho, m, d)) < 1e-9

    def test_fixed_point_on_invariant_state(self, rng):
        rho = symmetrize_brute(random_state(8, rng), 3, 2)
        res = symmetrize(rho, 3, 2)
        assert np.linalg.norm(res.output - rho) < 1e-10

    def test_nested_list_state(self, rng):
        # a list used to fail in the input gate with AttributeError
        rho = random_state(16, rng)
        got = symmetrize(rho.tolist(), 4, 2)
        want = symmetrize(rho, 4, 2)
        assert got.output.tobytes() == want.output.tobytes()
        assert got.ledger == want.ledger

    @pytest.mark.parametrize("trajectories", [2.5, True])
    def test_sample_mode_rejects_bad_trajectories(self, trajectories, rng):
        with pytest.raises(ValueError, match="need an integer trajectories"):
            symmetrize(random_state(8, rng), 3, 2, mode="sample", trajectories=trajectories)

    def test_ledger_counts(self, rng):
        res = symmetrize(random_state(16, rng), 4, 2)
        assert res.ledger.num_simple_cg == 3
        assert res.ledger.num_inverse_cg == 3
        assert res.ledger.peak_live_dim == 8


class TestClone:
    def test_fidelity_is_symmetric_dimension_ratio(self, rng):
        for m, n, d in [(1, 2, 2), (2, 3, 2), (1, 3, 2), (2, 4, 2), (1, 2, 3)]:
            psi = haar_vector(d, rng)
            res = clone(psi, m, n, d)
            assert res.fidelity is not None
            expected = sym_dim(m, d) / sym_dim(n, d)
            assert abs(res.fidelity - expected) < 1e-10, (m, n, d)
        assert abs(cloning_fidelity(1, 2, 2) - 2 / 3) < 1e-15
        assert abs(cloning_fidelity(2, 3, 2) - 3 / 4) < 1e-15
        assert abs(cloning_fidelity(1, 3, 2) - 1 / 2) < 1e-15

    def test_matches_werner_oracle(self, rng):
        for m, n, d in [(1, 2, 2), (2, 3, 2), (1, 2, 3), (2, 3, 3)]:
            psi = haar_vector(d, rng)
            rho_in = np.array([1.0 + 0j])
            for _ in range(m):
                rho_in = np.kron(rho_in, np.outer(psi, psi.conj()))
            rho_in = rho_in.reshape(d**m, d**m)
            res = clone(psi, m, n, d)
            expected = werner_cloner(rho_in, m, n, d)
            assert np.linalg.norm(res.output - expected) < 1e-8, (m, n, d)

    def test_mixed_symmetric_input(self, rng):
        # a mixed state on the symmetric subspace is cloned per the oracle
        m, n, d = 2, 3, 2
        P = symmetric_projector(m, d)
        rho = P @ random_state(d**m, rng) @ P
        rho = rho / np.trace(rho)
        res = clone(rho, m, n, d)
        expected = werner_cloner(rho, m, n, d)
        assert np.linalg.norm(res.output - expected) < 1e-8

    def test_fidelity_independent_of_state(self, rng):
        fids = []
        for _ in range(50):
            psi = haar_vector(2, rng)
            fids.append(clone(psi, 1, 2, 2).fidelity)
        assert np.var(fids) < 1e-12

    def test_rejects_non_symmetric_input(self, rng):
        rho = random_state(4, rng)
        with pytest.raises(ValueError, match="symmetric subspace"):
            clone(rho, 2, 3, 2)

    def test_rejects_non_unit_trace_input(self):
        P = symmetric_projector(2, 2)
        with pytest.raises(ValueError, match="trace"):
            clone(P, 2, 3, 2)

    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            clone(np.array([1.0, 0.0]), 2, 2, 2)

    @staticmethod
    def _mixture(eps, m, d):
        # (1 - eps) s + eps a: s and a the normalized projectors onto the
        # symmetric subspace and its complement
        P = symmetric_projector(m, d)
        Q = np.eye(d**m) - P
        return (1 - eps) * P / np.trace(P) + eps * Q / np.trace(Q)

    def test_keeps_weight_below_support_tolerance(self):
        # weight 5e-9 outside the symmetric subspace passes both support
        # checks; the other labels are cloned by their cloning_spec triples,
        # so the output keeps unit trace
        m, n, d = 2, 3, 3
        rho = self._mixture(5e-9, m, d)
        res = clone(rho, m, n, d)
        expected = extremal_choi(cloning_spec(m, n, d)).apply(rho)
        assert np.abs(res.output - expected).max() < 1e-10
        assert abs(np.trace(res.output) - 1) < 1e-12
        assert np.linalg.eigvalsh(res.output).min() > -1e-12

    def test_rejects_non_symmetric_weight(self):
        # off-mass 8.7e-9 passes the first check, weight 1.5e-8 fails the second
        with pytest.raises(ValueError, match="non-symmetric weight 1.50e-08"):
            clone(self._mixture(1.5e-8, 2, 3), 2, 3, 3)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=r"input shape \(3, 3\), expected \(4, 4\)"):
            clone(np.eye(3) / 3, 2, 3, 2)

    def test_support_checked_before_streaming(self, monkeypatch, rng):
        # an input outside the symmetric subspace is rejected before the
        # executor runs, with the same messages
        def never(*args, **kwargs):
            pytest.fail("streamed_apply ran on an input outside the symmetric subspace")

        monkeypatch.setattr(apps, "streamed_apply", never)
        with pytest.raises(ValueError, match="symmetric subspace"):
            clone(random_state(4, rng), 2, 3, 2)
        with pytest.raises(ValueError, match="non-symmetric weight 1.50e-08"):
            clone(self._mixture(1.5e-8, 2, 3), 2, 3, 3)

    def test_ledger_cloning_1_to_3(self, rng):
        psi = haar_vector(2, rng)
        res = clone(psi, 1, 3, 2)
        # emission phase applies n-1 inverse transforms
        assert res.ledger.num_inverse_cg == 2
        # the middle removes n-m boxes through inverse dual transforms
        assert res.ledger.num_simple_dual_cg == 2


def _steps(*lines):
    """Schedule steps written as "op register register ... live_dim"."""
    out = []
    for line in lines:
        op, *registers, live = line.split()
        out.append((op, tuple(registers), int(live)))
    return out


def _ledger(simple, dual, inverse, peak, r, r_prime):
    return {
        "num_simple_cg": simple,
        "num_simple_dual_cg": dual,
        "num_inverse_cg": inverse,
        "peak_live_dim": peak,
        "classical_samples": 0,
        "r": r,
        "r_prime": r_prime,
    }


# clone's values are those of the hand-built run that streamed_apply
# replaced; running it as cloning_spec must not change them.
PINNED_RUNS = {
    ("clone", 2, 6, 3): (
        _ledger(1, 4, 5, 84, 2, 1),
        _steps(
            "absorb Q in:1 3", "absorb Q in:2 label 9",
            "embed Q aux:1 path 30", "embed Q aux:2 path 45",
            "embed Q aux:3 path 63", "embed Q aux:4 path 84",
            "emit Q out:6 path 72", "emit Q out:5 path 45", "emit Q out:4 path 30",
            "emit Q out:3 path 18", "emit Q out:2 path 9",
        ),
    ),
    ("clone", 1, 8, 2): (
        _ledger(0, 7, 7, 18, 1, 1),
        _steps(
            "absorb Q in:1 2",
            *("embed Q aux:%d path %d" % (j, 4 + 2 * j) for j in range(1, 8)),
            *("emit Q out:%d path %d" % (j, 2 * j) for j in range(8, 1, -1)),
        ),
    ),
    ("clone", 2, 3, 2): (
        _ledger(1, 1, 2, 8, 2, 1),
        _steps(
            "absorb Q in:1 2", "absorb Q in:2 label 4", "embed Q aux:1 path 8",
            "emit Q out:3 path 6", "emit Q out:2 path 4",
        ),
    ),
    ("purity", 8, 2): (
        _ledger(7, 0, 5, 16, 2, 1),
        _steps(
            "absorb Q in:1 2",
            *("absorb Q in:%d label %d" % (t, 2 * t) for t in range(2, 9)),
            "embed Q path 16", "embed Q path 12", "embed Q path 8",
            "embed Q path 4", "embed Q path 4",
        ),
    ),
    ("purity", 5, 3): (
        _ledger(4, 0, 5, 45, 3, 1),
        _steps(
            "absorb Q in:1 3", "absorb Q in:2 label 9", "absorb Q in:3 label 18",
            "absorb Q in:4 label 30", "absorb Q in:5 label 45",
            "embed Q path 45", "embed Q path 45", "embed Q path 18",
            "embed Q path 9", "embed Q path 9",
        ),
    ),
}


@pytest.mark.parametrize("case", list(PINNED_RUNS), ids=lambda c: "-".join(map(str, c)))
def test_ledger_and_schedule_pinned(case, monkeypatch, rng):
    # each app makes exactly one streamed_apply call; the schedule is read
    # where streamed_apply validates it
    calls, schedules = [], []
    run = streaming.streamed_apply
    check = streaming.validate_schedule

    def counted(*args, **kwargs):
        calls.append(args)
        return run(*args, **kwargs)

    def recorded(steps):
        schedules.append([(s.op, s.registers, s.live_dim) for s in steps])
        return check(steps)

    monkeypatch.setattr(apps, "streamed_apply", counted)
    monkeypatch.setattr(streaming, "validate_schedule", recorded)
    app, *shape = case
    if app == "clone":
        m, n, d = shape
        res = clone(haar_vector(d, rng), m, n, d)
    else:
        m, d = shape
        res = purity_amplify(random_state(d**m, rng), m, d)
    ledger, schedule = PINNED_RUNS[case]
    assert len(calls) == 1
    assert res.ledger.as_dict() == ledger
    assert schedules == [schedule]


@pytest.mark.parametrize("case", list(PINNED_RUNS), ids=lambda c: "-".join(map(str, c)))
def test_sample_mode_equals_exact_mode(case, rng):
    # every weighted output sector of the app specs has one GT path: clone
    # emits into the symmetric subspace and purity into one qudit.  So the
    # sampling variance is 0, and sample mode must give the exact output
    app, *shape = case
    if app == "clone":
        m, n, d = shape
        spec = cloning_spec(m, n, d)
        psi = haar_vector(d, rng)
        rho = np.outer(psi, psi.conj())
        for _ in range(m - 1):
            rho = np.kron(rho, np.outer(psi, psi.conj()))
    else:
        (m, d), n = shape, 1
        spec = purity_spec(m, d)
        rho = random_state(d**m, rng)
    exact, _ = streamed_apply(spec, rho)
    assert sampling_variance(exact, n, d) < 1e-20
    for seed in range(2):
        sampled, _ = streamed_apply(spec, rho, seed=seed, mode="sample", trajectories=40)
        assert np.linalg.norm(sampled - exact) < 1e-12


_PSI = np.array([1.0, 1.0j]) / np.sqrt(2)


@pytest.mark.parametrize(
    "name,call",
    [
        ("state", lambda v: clone(v, 1, 2, 2)),
        ("reference", lambda v: clone(_PSI, 1, 2, 2, reference=v)),
        (
            "reference",
            lambda v: purity_amplify(depolarized_copies(_PSI, 0.3, 3, 2), 3, 2, reference=v),
        ),
        ("psi", lambda v: depolarized_copies(v, 0.3, 3, 2)),
    ],
    ids=["clone-state", "clone-reference", "purity-reference", "depolarized-psi"],
)
@pytest.mark.parametrize(
    "vec,problem",
    [
        (np.zeros(2), "zero norm"),
        (np.array([np.nan, 1.0]), "non-finite entries"),
        (np.array([1.0, np.inf]), "non-finite entries"),
        (np.ones(3), r"length-2 vector, got shape \(3,\)"),
    ],
    ids=["zero", "nan", "inf", "length"],
)
def test_rejects_bad_pure_vector(name, call, vec, problem):
    # a zero, non-finite or wrong-length pure state or reference is
    # rejected by name, instead of a NaN fidelity or a later input error
    with pytest.raises(ValueError, match=f"^{name} (has|must be a) {problem}"):
        call(vec)


class TestPurityAmplify:
    def test_gamma_min_rule(self):
        assert gamma_min(staircase(4, 2, 1)) == staircase(3, 2, 1)

    def test_m1_is_identity(self, rng):
        rho = random_state(2, rng)
        res = purity_amplify(rho, 1, 2)
        assert np.linalg.norm(res.output - rho) < 1e-12

    def test_nested_list_state(self, rng):
        rho = random_state(16, rng)
        got = purity_amplify(rho.tolist(), 4, 2)
        want = purity_amplify(rho, 4, 2)
        assert got.output.tobytes() == want.output.tobytes()
        assert got.ledger == want.ledger

    def test_equals_direct_choi(self, rng):
        for m, d in [(2, 2), (3, 2), (2, 3)]:
            C = extremal_choi(purity_spec(m, d))
            rho = random_state(d**m, rng)
            res = purity_amplify(rho, m, d)
            assert np.linalg.norm(res.output - C.apply(rho)) < 1e-8, (m, d)

    def test_output_fidelity_gain(self, rng):
        # the two-copy optimum coincides with the single-copy fidelity (the
        # antisymmetric block carries no state information); from three
        # copies on the gain is strict
        alpha, d = 0.3, 2
        base = 1 - alpha + alpha / d
        psi = haar_vector(d, rng)
        res2 = purity_amplify(depolarized_copies(psi, alpha, 2, d), 2, d, reference=psi)
        assert abs(res2.fidelity - base) < 1e-12
        for m in (3, 4):
            rho = depolarized_copies(psi, alpha, m, d)
            res = purity_amplify(rho, m, d, reference=psi)
            assert res.fidelity > base + 1e-3, (m, res.fidelity)

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.7])
    def test_two_copy_optimum_is_one_copy_fidelity(self, alpha, rng):
        # README, Known limitations: fidelity is linear in the channel, so
        # its maximum over the symmetric (2,1,2) channels is attained at an
        # extremal one; every multiplicity there is one, so all_specs lists
        # every extremal channel, and none beats one copy
        from equichan.suites import all_specs

        d = 2
        psi = haar_vector(d, rng)
        rho = depolarized_copies(psi, alpha, 2, d)
        specs = all_specs(2, 1, d)
        assert all(t.psi.size == 1 for s in specs for t in s.assignments.values())
        best = max(
            (psi.conj() @ extremal_choi(s).apply(rho) @ psi).real for s in specs
        )
        assert abs(best - (1 - alpha + alpha / d)) < 1e-12

    def test_fidelity_monotone_in_copies(self, rng):
        alpha, d = 0.3, 2
        psi = haar_vector(d, rng)
        fids = []
        for m in (1, 2, 3, 4):
            rho = depolarized_copies(psi, alpha, m, d)
            fids.append(purity_amplify(rho, m, d, reference=psi).fidelity)
        assert all(b >= a - 1e-12 for a, b in zip(fids, fids[1:])), fids

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, np.nan, np.inf])
    def test_depolarized_copies_reject_alpha_out_of_range(self, alpha):
        # these used to return a non-state, or an all-NaN matrix
        with pytest.raises(ValueError, match=r"^alpha must be in \[0, 1\], got alpha="):
            depolarized_copies(_PSI, alpha, 2, 2)

    def test_channel_never_references_alpha(self, rng):
        # the construction takes no alpha; applying it to inputs built at
        # different alphas uses the identical channel object, so we check
        # the Choi is literally alpha-free by rebuilding it twice
        C1 = extremal_choi(purity_spec(3, 2))
        C2 = extremal_choi(purity_spec(3, 2))
        assert np.linalg.norm(C1.matrix - C2.matrix) == 0.0

    def test_symmetry_certificate(self, rng):
        C = extremal_choi(purity_spec(3, 2))
        rep = check_symmetries(C, trials=10, rng=rng)
        assert rep.passed(1e-8)


class TestAppResult:
    """channels.check_state, the dense oracle of an app output."""

    def test_rejects_bad_output(self):
        with pytest.raises(ValueError, match="trace"):
            check_state(np.eye(2))  # trace 2
        with pytest.raises(ValueError, match="positive"):
            check_state(np.diag([1.5, -0.5]))

    def test_rejects_bad_output_under_optimize(self):
        # the checks are exceptions, not asserts, so python -O keeps them
        src = Path(equichan.__file__).resolve().parents[1]
        code = (
            "import numpy as np\n"
            "from equichan.channels import check_state\n"
            "try:\n"
            "    check_state(10 * np.eye(2) / 2)\n"
            "except ValueError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('accepted an output of trace 10')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    # Run by a fresh interpreter, with and without -O, so that the checks are
    # seen to be exceptions that python -O keeps.
    BOUNDARY_CASES = (
        "import numpy as np\n"
        "from equichan.channels import check_state, symmetrization_spec\n"
        "from equichan.streaming import streamed_apply\n"
        "def refused(call):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        return str(exc)\n"
        "    return None\n"
        "def rejected(x):\n"
        "    return refused(lambda: check_state(x))\n"
        "def check(ok, what):\n"  # not assert, which -O strips from this script
        "    if not ok:\n"
        "        raise SystemExit(what)\n"
        "nan = np.full((2, 2), np.nan) + 0j\n"
        "check(rejected(nan) == 'output has non-finite entries', 'NaN accepted')\n"
        "check(rejected(np.array([[1.0, np.inf], [0.0, 0.0]])), 'inf accepted')\n"
        "rng = np.random.default_rng(3)\n"
        "Z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))\n"
        "Q = np.linalg.qr(Z)[0]\n"
        "def mixed_in(neg):\n"
        "    return (Q * np.array([0.5, 0.3, 0.2 - neg, neg])) @ Q.conj().T\n"
        "msg = rejected(mixed_in(-2e-9))\n"
        "check(msg == 'output not positive semidefinite: -2.00e-09', repr(msg))\n"
        "check(rejected(mixed_in(-5e-10)) is None, '-5e-10 rejected')\n"
        # an input trace off by 5e-9 passes the input test and is caught on
        # the output of streamed_apply itself
        "rho = np.diag([0.4, 0.3, 0.2, 0.1 + 5e-9]) + 0j\n"
        "msg = refused(lambda: streamed_apply(symmetrization_spec(2, 2), rho))\n"
        "check(msg == 'output trace (1.0000000050000002+0j), expected 1', repr(msg))\n"
    )

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
    def test_non_finite_and_positivity_boundary(self, flags):
        src = Path(equichan.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, *flags, "-c", self.BOUNDARY_CASES],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_real_and_transposed_outputs(self, rng):
        # the Hermitian part is built in a C-ordered buffer of the output's
        # float type; a real or a transposed (F-ordered) output is judged
        # exactly as its C-ordered complex copy
        Q = np.linalg.qr(rng.normal(size=(4, 4)))[0]

        def mixed_in(neg):
            return (Q * np.array([0.5, 0.3, 0.2 - neg, neg])) @ Q.T

        Z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        U = np.linalg.qr(Z)[0]
        skew = (U * np.array([0.5, 0.3, 0.2 + 2e-9, -2e-9])) @ U.conj().T
        for neg, accepted in ((0.1, True), (-5e-10, True), (-2e-9, False)):
            for x in (mixed_in(neg), mixed_in(neg).T, np.asfortranarray(mixed_in(neg))):
                for out in (x, x.astype(complex)):
                    if accepted:
                        check_state(out)
                    else:
                        with pytest.raises(ValueError, match="-2.00e-09"):
                            check_state(out)
        for out in (skew, skew.T, skew.conj().T, np.asfortranarray(skew)):
            with pytest.raises(ValueError, match="-2.00e-09"):
                check_state(out)

    def test_accepted_output_runs_no_eigendecomposition(self, monkeypatch, rng):
        A = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        rho = A @ A.conj().T
        rho /= np.trace(rho)

        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called on an accepted output")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        check_state(rho)


def _state_with_negative_direction(v, P, neg, rng):
    """A Hermitian unit-trace matrix supported on the range of P with
    eigenvalue -neg on the unit vector v in that range."""
    rank = round(np.trace(P).real)
    Z = rng.normal(size=(P.shape[0], rank - 1)) + 1j * rng.normal(size=(P.shape[0], rank - 1))
    V = np.linalg.qr(np.column_stack([v, P @ Z]))[0]
    ev = rng.random(rank) + 0.1
    ev[0] = 0.0
    ev *= (1 + neg) / ev.sum()
    ev[0] = -neg
    return (V * ev) @ V.conj().T


def _rejection(call):
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


# (name, spec, app run on rho in exact mode, input support, a negative
# eigenvalue of the input that leaves the output with one)
CERTIFICATE_CASES = [
    ("symmetrize-3-2", symmetrization_spec(3, 2), lambda r: symmetrize(r, 3, 2), "full", 0.05),
    ("symmetrize-2-3", symmetrization_spec(2, 3), lambda r: symmetrize(r, 2, 3), "full", 0.05),
    ("clone-1-3-2", cloning_spec(1, 3, 2), lambda r: clone(r, 1, 3, 2), "sym", 0.05),
    ("clone-2-4-2", cloning_spec(2, 4, 2), lambda r: clone(r, 2, 4, 2), "sym", 0.05),
    # purification mixes the negative direction with the rest of the input
    ("purify-3-2", purity_spec(3, 2), lambda r: purity_amplify(r, 3, 2), "full", 3.0),
    # a negative direction in sector (2,1), whose two paths weigh 1/2 each
    ("symmetrize-3-2-mixed", symmetrization_spec(3, 2), lambda r: symmetrize(r, 3, 2),
     "mixed", 1.0),
]


class TestSectorCertificate:
    """streamed_apply certifies positivity on its irrep sectors, and the apps
    run no dense Cholesky on its outputs; both paths must reject exactly
    the outputs that the dense test check_state rejects, with its message."""

    @staticmethod
    def _input(spec, support, neg, rng):
        """The negative direction is phi^(x m) for a random phi on the full
        space or (for clone) the symmetric subspace, or, when mixed,
        (|0..01> - |0..10>)/sqrt 2, which is not symmetric."""
        m, d = spec.m, spec.d
        P = symmetric_projector(m, d) if support == "sym" else np.eye(d**m)
        if support == "mixed":
            v = np.zeros(d**m)
            v[1], v[d] = 2**-0.5, -(2**-0.5)
        else:
            phi = haar_vector(d, rng)
            v = phi
            for _ in range(m - 1):
                v = np.kron(v, phi)
        return _state_with_negative_direction(v, P, neg, rng)

    @pytest.mark.parametrize("size", ["large", "tiny", "none"])
    @pytest.mark.parametrize(
        "name,spec,app,support,neg", CERTIFICATE_CASES, ids=[c[0] for c in CERTIFICATE_CASES]
    )
    def test_exact_paths_agree_with_dense_check(
        self, name, spec, app, support, neg, size, rng
    ):
        # a tiny negative eigenvalue may or may not reach the output; the
        # paths must agree either way
        neg = {"large": neg, "tiny": 1e-6, "none": 0.0}[size]
        rho = self._input(spec, support, neg, rng)
        dense = _rejection(lambda: check_state(extremal_choi(spec).apply(rho)))
        assert _rejection(lambda: streamed_apply(spec, rho)) == dense
        assert _rejection(lambda: app(rho)) == dense
        if size == "none":
            assert dense is None
        elif size == "large":
            assert dense.startswith("output not positive semidefinite: -")

    @pytest.mark.parametrize("size", ["large", "tiny", "none"])
    @pytest.mark.parametrize(
        "m,d,support,neg", [(3, 2, "full", 0.05), (2, 3, "full", 0.05), (3, 2, "mixed", 1.0)]
    )
    def test_sample_paths_agree_with_dense_check(
        self, m, d, support, neg, size, monkeypatch, rng
    ):
        spec = symmetrization_spec(m, d)
        neg = {"large": neg, "tiny": 1e-6, "none": 0.0}[size]
        rho = self._input(spec, support, neg, rng)
        kwargs = dict(mode="sample", seed=5, trajectories=30)
        certified = _rejection(lambda: streamed_apply(spec, rho, **kwargs))
        app = _rejection(lambda: symmetrize(rho, m, d, **kwargs))
        # the same sampled output without the sector test, judged densely
        monkeypatch.setattr(streaming, "PSD_TOL", np.inf)
        raw, _ = streamed_apply(spec, rho, **kwargs)
        monkeypatch.undo()
        dense = _rejection(lambda: check_state(raw))
        assert certified == app == dense
        if size == "none":
            assert dense is None
        elif size == "large":
            assert dense.startswith("output not positive semidefinite: -")

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_dense_check_refuses_an_overflowing_hermitian_part(self, dtype):
        # X + X^dag overflows here; halved before the sum, the Hermitian
        # part is X, with eigenvalues -+1.7e308.  The complex Cholesky
        # routine returns a factor with NaN on its diagonal, not an error
        X = np.array([[0.5, 1.7e308], [1.7e308, 0.5]], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValueError, match=r"^output not positive semidefinite: -1\.70e\+308$"
            ):
                check_state(X)

    @pytest.mark.parametrize("mode", ["exact", "sample"])
    def test_sector_floor_refuses_an_overflowing_block(self, mode, monkeypatch):
        # tau's block holds 1.7e308 off its diagonal, so tau + tau^dag would
        # overflow and make the floor NaN, which the comparison lets pass;
        # the floor refuses it as the dense test refuses the same output
        spec = all_specs(1, 3, 2)[3]
        rho = np.array([[0.5, 1.7e308], [1.7e308, 0.5]], dtype=complex)
        kwargs = dict(mode=mode, seed=1, trajectories=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            certified = _rejection(lambda: streamed_apply(spec, rho, **kwargs))
            monkeypatch.setattr(streaming, "PSD_TOL", np.inf)
            raw, _ = streamed_apply(spec, rho, **kwargs)
            monkeypatch.undo()
            dense = _rejection(lambda: check_state(raw))
        assert certified == dense
        assert dense.startswith("output not positive semidefinite: -")

    @pytest.mark.parametrize("mode", ["exact", "sample"])
    def test_floor_refuses_an_entry_past_the_float_maximum(self, mode):
        # the off-diagonal modulus, sqrt(2) * 1.7e308, passes the float
        # maximum, so LAPACK's norm of the Hermitian part overflows and
        # eigvalsh returns NaN, which a comparison lets pass; halved once
        # more, the part's floor is -inf, in the sector floor and the dense
        # test alike
        spec = all_specs(1, 3, 2)[3]
        v = complex(1.7e308, 1.7e308)
        rho = np.array([[0.5, v], [v.conjugate(), 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (
                lambda: streamed_apply(spec, rho, mode=mode, seed=1, trajectories=50),
                lambda: check_state(rho),
            ):
                with pytest.raises(
                    ValueError, match=r"^output not positive semidefinite: -inf$"
                ):
                    call()

    def test_threshold_is_psd_tol(self, rng):
        # a floor just below -PSD_TOL is rejected and one just above it is
        # accepted, as by the dense test check_state
        spec = symmetrization_spec(2, 2)
        phi = haar_vector(2, rng)
        for neg, rejected in ((2e-9, True), (5e-10, False)):
            rho = _state_with_negative_direction(np.kron(phi, phi), np.eye(4), neg, rng)
            out = extremal_choi(spec).apply(rho)
            dense = _rejection(lambda: check_state(out))
            assert (dense is not None) == rejected
            assert _rejection(lambda: streamed_apply(spec, rho)) == dense

    def test_app_outputs_run_no_dense_eigendecomposition(self, monkeypatch, rng):
        # positivity of an app output is decided on its sectors: no
        # Cholesky or eigendecomposition sees a matrix larger than the
        # largest irrep block, q = 35 at (6, 3)
        largest = max(dim_gl_irrep(mu) for mu in partitions_of(6, 3))
        seen = []

        def spy(fn):
            def wrapped(a, *args, **kwargs):
                seen.append(np.shape(a))
                return fn(a, *args, **kwargs)

            return wrapped

        rho, psi = random_state(3**6, rng), haar_vector(3, rng)
        # warm the transform caches first, so the spies see only the ops' own calls
        symmetrize(rho, 6, 3)
        clone(psi, 2, 6, 3)
        for name in ("cholesky", "eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name, spy(getattr(np.linalg, name)))
        symmetrize(rho, 6, 3)
        clone(psi, 2, 6, 3)
        assert seen, "no sector was certified"
        assert max(shape[-1] for shape in seen) <= largest, seen
