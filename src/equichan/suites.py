"""Named verification suites covering the acceptance criteria.

Each suite builds its own objects, runs every case at its stated tolerance
and returns a machine-readable report; the CLI aggregates them and the
acceptance tests assert on them one by one.  Randomized suites derive one
child stream per case from the suite seed.
"""

from __future__ import annotations

import itertools
from math import factorial

import numpy as np

from equichan.apps import (
    clone,
    cloning_fidelity,
    depolarized_copies,
    purity_amplify,
)
from equichan.channels import (
    ChoiMatrix,
    ExtremalSpec,
    ExtremalTriple,
    _tensor_power,
    check_symmetries,
    enumerate_extremal_triples,
    extremal_choi,
    factored_channel,
    irrep_channel,
    purity_spec,
    symmetrization_spec,
)
from equichan.gtpaths import (
    enumerate_paths,
    exact_removal_distribution,
    next_step_distribution,
    sample_remove_box,
)
from equichan.staircases import (
    Staircase,
    dim_gl_irrep,
    dim_perm_irrep,
    empty_staircase,
    enumerate_staircases,
    lr_coeff,
    partitions_of,
    staircase,
    sym_dim,
)
from equichan.streaming import streamed_apply
from equichan.transforms import permutation_operator, vec
from equichan.verify import VerificationReport, tv_distance

SWEEP_SHAPES = [(1, 1, 2), (2, 1, 2), (1, 2, 2), (2, 2, 2), (3, 1, 2), (2, 1, 3)]


def _random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = A @ A.conj().T
    return rho / np.trace(rho)


def _haar_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def all_specs(m: int, n: int, d: int) -> list[ExtremalSpec]:
    """Every extremal spec over (m, n, d) with first-basis multiplicity vectors."""
    by_lam: dict[Staircase, list] = {}
    for lam, mu, gamma, c in enumerate_extremal_triples(m, n, d):
        by_lam.setdefault(lam, []).append((mu, gamma, c))
    labels = partitions_of(m, d)
    specs = []
    for choice in itertools.product(*(by_lam[l] for l in labels)):
        assignments = {}
        for lam, (mu, gamma, c) in zip(labels, choice):
            e = np.zeros(c)
            e[0] = 1.0
            assignments[lam] = ExtremalTriple(mu, gamma, e)
        specs.append(ExtremalSpec(m, n, d, assignments))
    return specs


def suite_classification(seed: int = 1) -> VerificationReport:
    """Criterion 1: factored channel equals the direct extremal Choi."""
    report = VerificationReport("classification-factorization", seed)
    for m, n, d in SWEEP_SHAPES:
        for idx, spec in enumerate(all_specs(m, n, d)):
            resid = float(
                np.linalg.norm(factored_channel(spec).matrix - extremal_choi(spec).matrix)
            )
            report.add(f"({m},{n},{d})#{idx}", resid, 1e-8)
    return report


def _certification_channels() -> list[tuple[str, ChoiMatrix]]:
    out = []
    for m, n, d in SWEEP_SHAPES:
        for idx, spec in enumerate(all_specs(m, n, d)):
            out.append((f"extremal({m},{n},{d})#{idx}", extremal_choi(spec)))
    for m, d in [(2, 2), (3, 2), (2, 3)]:
        out.append((f"symmetrize(m={m},d={d})", extremal_choi(symmetrization_spec(m, d))))
    for m, d in [(2, 2), (3, 2), (2, 3)]:
        out.append((f"purify(m={m},d={d})", extremal_choi(purity_spec(m, d))))
    return out


def suite_symmetry_certification(seed: int = 1, trials: int = 20) -> VerificationReport:
    """Criterion 2: every constructed channel commutes with both symmetries."""
    report = VerificationReport("symmetry-certification", seed)
    rng = np.random.default_rng(seed)
    for name, choi in _certification_channels():
        rep = check_symmetries(choi, trials=trials, rng=rng)
        resid = max(rep.max_unitary_residual, rep.max_permutation_residual)
        report.add(name, resid, 1e-8)
    return report


def suite_irrep_forms(seed: int = 1) -> VerificationReport:
    """Criterion 3: the three computations of the irrep channel agree."""
    report = VerificationReport("irrep-form-equivalence", seed)
    rng = np.random.default_rng(seed)
    for d in (2, 3):
        for szl in range(0, 4):
            for szm in range(0, 4):
                for lam, mu, gamma, c in enumerate_extremal_triples(szl, szm, d):
                    worst = 0.0
                    for _ in range(5):
                        psi = rng.normal(size=c) + 1j * rng.normal(size=c)
                        psi /= np.linalg.norm(psi)
                        X = rng.normal(size=(dim_gl_irrep(lam),) * 2) + 1j * rng.normal(
                            size=(dim_gl_irrep(lam),) * 2
                        )
                        outs = [
                            irrep_channel(lam, mu, gamma, psi, form=f).apply(X)
                            for f in ("choi", "embed-trace", "sandwich")
                        ]
                        worst = max(
                            worst,
                            float(np.linalg.norm(outs[0] - outs[1])),
                            float(np.linalg.norm(outs[0] - outs[2])),
                        )
                    report.add(f"d={d},{lam},{mu},{gamma}", worst, 1e-8)
    return report


def _symmetrize_brute(rho: np.ndarray, m: int, d: int) -> np.ndarray:
    """The m!-term average of P rho P^T over site permutations P.

    Each term permutes the row legs and the column legs of rho alike, a
    leg transpose of rho viewed as a 2m-leg tensor.
    """
    T = rho.reshape((d,) * (2 * m))
    perms = list(itertools.permutations(range(m)))
    acc = sum(T.transpose(list(p) + [m + k for k in p]) for p in perms)
    return acc.reshape(rho.shape) / len(perms)


def symmetric_projector(n: int, d: int) -> np.ndarray:
    """The n!-term projector onto the symmetric subspace of n qudits: the
    average of every site permutation, the oracle of ``suite_cloning``."""
    acc = np.zeros((d**n, d**n))
    for perm in itertools.permutations(range(n)):
        acc += permutation_operator(perm, n, d)
    return acc / factorial(n)


def suite_state_symmetrization(seed: int = 1) -> VerificationReport:
    """Criterion 4: streamed symmetrization vs the m!-term oracle."""
    report = VerificationReport("state-symmetrization", seed)
    rng = np.random.default_rng(seed)
    for d in (2, 3):
        for m in range(2, 6):
            spec = symmetrization_spec(m, d)
            worst = 0.0
            for _ in range(10):
                rho = _random_state(d**m, rng)
                out, ledger = streamed_apply(spec, rho)
                worst = max(worst, float(np.linalg.norm(out - _symmetrize_brute(rho, m, d))))
            report.add(f"m={m},d={d}", worst, 1e-9)
            if d == 2 and m >= 4:
                report.add(
                    f"memory-advantage m={m}",
                    float(ledger.peak_live_dim),
                    float(d**m - 1),
                )
    return report


def suite_cloning(seed: int = 1) -> VerificationReport:
    """Criterion 5: cloner equals the projector oracle; fidelity is exact."""
    report = VerificationReport("symmetric-cloning", seed)
    rng = np.random.default_rng(seed)
    for m, n in [(1, 2), (1, 3), (2, 3), (2, 4)]:
        for d in (2, 3):
            psi = _haar_vector(d, rng)
            rho_in = _tensor_power(np.outer(psi, psi.conj()), m)
            res = clone(psi, m, n, d)
            P = symmetric_projector(n, d)
            expected = (sym_dim(m, d) / sym_dim(n, d)) * (
                P @ np.kron(rho_in, np.eye(d ** (n - m))) @ P
            )
            report.add(
                f"oracle m={m},n={n},d={d}",
                float(np.linalg.norm(res.output - expected)),
                1e-8,
            )
            report.add(
                f"fidelity m={m},n={n},d={d}",
                abs(res.fidelity - cloning_fidelity(m, n, d)),
                1e-10,
            )
    fids = [clone(_haar_vector(2, rng), 1, 2, 2).fidelity for _ in range(50)]
    report.add("fidelity-variance", float(np.var(fids)), 1e-12)
    return report


def suite_purity(seed: int = 1) -> VerificationReport:
    """Criterion 6: streamed construction equals the direct Choi and beats
    the single-copy fidelity.

    The strict fidelity gain is checked verbatim for m in {2, 3, 4}.  The
    m = 2 case is a known, documented failure: the best fidelity over the
    entire symmetric channel set at two copies equals the single-copy value
    exactly (the antisymmetric block is one-dimensional and carries no state
    information), so no channel can pass it; see README, Known limitations.
    """
    report = VerificationReport("purity-amplification", seed)
    rng = np.random.default_rng(seed)
    alpha, d = 0.3, 2
    for m in (2, 3, 4):
        spec = purity_spec(m, d)
        C = extremal_choi(spec)
        rho = _random_state(d**m, rng)
        out, _ = streamed_apply(spec, rho)
        report.add(
            f"choi-equality m={m}", float(np.linalg.norm(out - C.apply(rho))), 1e-8
        )
        psi = _haar_vector(d, rng)
        res = purity_amplify(depolarized_copies(psi, alpha, m, d), m, d, reference=psi)
        base = 1 - alpha + alpha / d
        report.add(f"fidelity-gain m={m}", base - res.fidelity, -1e-12)
    return report


def suite_sampling(seed: int = 1) -> VerificationReport:
    """Criterion 7: walk distributions match exactly; empirical TV is small."""
    report = VerificationReport("sampling-algorithms", seed)
    mismatch = 0
    total = 0
    for m in range(1, 9):
        for lam in partitions_of(m, m):
            exact = exact_removal_distribution(lam)
            for mode in ("alg1", "alg3"):
                total += 1
                if next_step_distribution(lam, mode).probs != exact.probs:
                    mismatch += 1
    report.add("exact-walk-identity m<=8", float(mismatch), 0.0)
    rng = np.random.default_rng(seed)
    for shape in (staircase(3, 1), staircase(4, 2, 1)):
        exact = exact_removal_distribution(shape)
        counts: dict[Staircase, int] = {}
        ntrials = 100_000
        for _ in range(ntrials):
            mu = sample_remove_box(shape, rng)
            counts[mu] = counts.get(mu, 0) + 1
        report.add(f"tv {shape}", tv_distance(counts, exact), 0.01)
    return report


def suite_schur_weyl(seed: int = 1) -> VerificationReport:
    """Criterion 8: dimension counting and the path-count identity, exactly."""
    report = VerificationReport("schur-weyl-bookkeeping", seed)
    bad = 0
    for d in (2, 3):
        for m in range(0, 7):
            total = sum(
                dim_perm_irrep(lam) * dim_gl_irrep(lam) for lam in partitions_of(m, d)
            )
            if total != d**m:
                bad += 1
    report.add("dimension-count", float(bad), 0.0)
    bad = 0
    checked = 0
    for d in (2, 3):
        bases = [empty_staircase(d)] + partitions_of(1, d) + partitions_of(2, d)
        bases += enumerate_staircases(1, 1, d)
        for mu in bases:
            for k, l in [(1, 0), (0, 1), (2, 0), (1, 1), (2, 1), (2, 2), (3, 1)]:
                if k + l > 4:
                    continue
                reached = enumerate_paths(mu, k, l)
                empties = enumerate_paths(empty_staircase(d), k, l)
                for lam, paths in reached.items():
                    total = sum(
                        len(gp) * lr_coeff(mu, gamma, lam)
                        for gamma, gp in empties.items()
                    )
                    checked += 1
                    if total != len(paths):
                        bad += 1
    report.add(f"path-count-identity ({checked} cases)", float(bad), 0.0)
    return report


def suite_lr_symmetries(seed: int = 1) -> VerificationReport:
    """Criterion 9: the four coefficient equalities, exactly."""
    report = VerificationReport("lr-symmetries", seed)
    bad = 0
    checked = 0
    for d in (2, 3):
        for a in range(5):
            for b in range(5 - a):
                for lam in partitions_of(a, d):
                    for mu in partitions_of(b, d):
                        for nu in partitions_of(a + b, d):
                            c = lr_coeff(lam, mu, nu)
                            checked += 1
                            if not (
                                c == lr_coeff(mu, lam, nu)
                                == lr_coeff(mu, nu.dual(), lam.dual())
                                == lr_coeff(lam.dual(), mu.dual(), nu.dual())
                            ):
                                bad += 1
    report.add(f"four-fold symmetry ({checked} triples)", float(bad), 0.0)
    return report


def suite_vectorization(seed: int = 1) -> VerificationReport:
    """Criterion 10: the partial-trace identity for vectorized maps."""
    report = VerificationReport("vectorization-fact", seed)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        a, b = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        M = rng.normal(size=(b, a)) + 1j * rng.normal(size=(b, a))
        A = rng.normal(size=(a, a)) + 1j * rng.normal(size=(a, a))
        B = rng.normal(size=(b, b)) + 1j * rng.normal(size=(b, b))
        V = vec(M)
        prod = (np.outer(V, V.conj()) @ np.kron(B, A.T)).reshape(b, a, b, a)
        lhs = np.einsum("iaja->ij", prod)
        rhs = M @ A @ M.conj().T @ B
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    report.add("50 random instances", worst, 1e-12)
    return report


def suite_monte_carlo(seed: int = 1) -> VerificationReport:
    """Criterion 11: sampled-mode error scales as one over root trajectories."""
    report = VerificationReport("monte-carlo-scaling", seed)
    rng = np.random.default_rng(seed)
    spec = symmetrization_spec(4, 2)
    rho = _random_state(16, rng)
    exact, _ = streamed_apply(spec, rho)
    Ns = [100, 1000, 10000]
    errs = []
    for N in Ns:
        sq = []
        for rep in range(8):
            sampled, _ = streamed_apply(
                spec, rho, seed=seed + 1000 * rep + N, mode="sample", trajectories=N
            )
            sq.append(np.linalg.norm(sampled - exact) ** 2)
        errs.append(float(np.sqrt(np.mean(sq))))
    slope = float(np.polyfit(np.log(Ns), np.log(errs), 1)[0])
    report.add("fit exponent +0.5", abs(slope + 0.5), 0.1)
    return report


SUITES = {
    "classification": suite_classification,
    "symmetry-certification": suite_symmetry_certification,
    "irrep-forms": suite_irrep_forms,
    "symmetrization": suite_state_symmetrization,
    "cloning": suite_cloning,
    "purity": suite_purity,
    "sampling": suite_sampling,
    "schur-weyl": suite_schur_weyl,
    "lr-symmetries": suite_lr_symmetries,
    "vectorization": suite_vectorization,
    "monte-carlo": suite_monte_carlo,
}


def run_suite(name: str, seed: int = 1, **kwargs) -> VerificationReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; have {sorted(SUITES)}")
    return SUITES[name](seed=seed, **kwargs)

