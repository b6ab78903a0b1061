"""The three benchmark workloads: inputs, ops and the check of each output.

A workload is built from the benchmark seed alone.  Building it generates
every input, precomputes what the oracles share and, for the warm workloads, makes one
untimed pass over every op kind; that is the set-up the benchmark times.
``ops(r)`` returns round r of the closed loop.  An op's ``call`` is the
library call and nothing else; its ``check`` runs outside the timer and
returns an error message, or None when the output is right.

Library functions are looked up on their modules at call time, so the
traced run sees every call through the tracer's wrappers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

import equichan.apps as apps
import equichan.channels as channels
import equichan.staircases as staircases
import equichan.streaming as streaming
import oracles as O

TOL = 1e-8
POOL = 2  # inputs per op kind; round r uses input r % POOL


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    ledger: Callable[[object], object]


def _compare(kind: str, out: np.ndarray, expected: np.ndarray) -> str | None:
    gap = float(np.linalg.norm(out - expected))
    if gap > TOL:
        return f"{kind}: output differs from the oracle by {gap:.2e}"
    defect = O.state_defect(out)
    if defect > TOL:
        return f"{kind}: output is not a density matrix (defect {defect:.2e})"
    return None


def _op_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _app_op(kind: str, call, oracle) -> Op:
    return Op(
        kind,
        call,
        lambda res: _compare(kind, res.output, oracle()),
        lambda res: res.ledger,
    )


class AppsExact:
    """symmetrize, clone and purity_amplify in exact mode, caches warm."""

    SYMMETRIZE = [(8, 2), (5, 3), (6, 3)]
    CLONE = [(2, 6, 3), (1, 8, 2)]
    PURITY = [(8, 2), (5, 3)]

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.kinds: list[list[Op]] = []  # kinds[k][i]: op kind k on pool input i
        for m, d in self.SYMMETRIZE:
            pool = []
            for _ in range(POOL):
                rho = O.random_state(d**m, d**m, rng)
                pool.append(_app_op(
                    f"symmetrize({m},{d})",
                    lambda rho=rho, m=m, d=d: apps.symmetrize(rho, m, d),
                    lambda rho=rho, m=m, d=d: O.symmetrize_oracle(rho, m, d),
                ))
            self.kinds.append(pool)
        for m, n, d in self.CLONE:
            proj = O.symmetric_projector(n, d)
            pool = []
            for _ in range(POOL):
                psi = O.random_vector(d, rng)
                pool.append(_app_op(
                    f"clone({m}->{n},{d})",
                    lambda psi=psi, m=m, n=n, d=d: apps.clone(psi, m, n, d),
                    lambda psi=psi, m=m, n=n, d=d, p=proj: O.werner_clone(psi, m, n, d, p),
                ))
            self.kinds.append(pool)
        for m, d in self.PURITY:
            choi = channels.extremal_choi(channels.purity_spec(m, d)).matrix
            defect = O.choi_defect(choi, d**m, d)
            if defect > TOL:
                raise RuntimeError(f"purity Choi matrix ({m},{d}) is not a channel: {defect:.2e}")
            pool = []
            for _ in range(POOL):
                rho = O.depolarized_power(O.random_vector(d, rng), rng.uniform(0.1, 0.6), m, d)
                pool.append(_app_op(
                    f"purity_amplify({m},{d})",
                    lambda rho=rho, m=m, d=d: apps.purity_amplify(rho, m, d),
                    lambda rho=rho, c=choi, d=d, m=m: O.apply_choi(c, rho, d**m, d),
                ))
            self.kinds.append(pool)
        for pool in self.kinds:
            pool[0].call()  # warm-up pass: fills the library's caches

    def ops(self, r: int) -> list[Op]:
        order = np.random.default_rng([self.seed, r]).permutation(len(self.kinds))
        return [self.kinds[k][r % POOL] for k in order]


class StreamSample:
    """Sample-mode symmetrization: hook walks and per-trajectory emission."""

    # Five kinds, so that the median op lies inside one kind's latencies
    # rather than in the gap between two kinds.
    CASES = [(4, 2, 500), (5, 2, 500), (3, 3, 500), (6, 2, 200), (7, 2, 100)]

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.cases = []
        for m, d, trajectories in self.CASES:
            spec = channels.symmetrization_spec(m, d)
            pool = []
            for _ in range(POOL):
                rho = O.random_state(d**m, 1, rng)
                expected = O.symmetrize_oracle(rho, m, d)
                bound = O.sample_bound(O.sampling_rms(expected, m, d), trajectories)
                pool.append((rho, expected, bound))
            self.cases.append((f"sample({m},{d},T={trajectories})", spec, trajectories, pool))
        for k in range(len(self.cases)):
            self._op(k, -1).call()  # warm-up pass

    def _op(self, k: int, r: int) -> Op:
        kind, spec, trajectories, pool = self.cases[k]
        rho, expected, bound = pool[r % POOL]
        op_seed = _op_seed(self.seed, k, r + 1)

        def check(res):
            gap = float(np.linalg.norm(res[0] - expected))
            if gap > bound:
                return f"{kind}: sampled output is {gap:.3e} from the exact one (bound {bound:.3e})"
            defect = O.state_defect(res[0])
            if defect > TOL:
                return f"{kind}: output is not a density matrix (defect {defect:.2e})"
            return None

        return Op(
            kind,
            lambda: streaming.streamed_apply(
                spec, rho, seed=op_seed, mode="sample", trajectories=trajectories
            ),
            check,
            lambda res: res[1],
        )

    def ops(self, r: int) -> list[Op]:
        order = np.random.default_rng([self.seed, r]).permutation(len(self.cases))
        return [self._op(k, r) for k in order]


def all_specs(m: int, n: int, d: int) -> list:
    """Every extremal spec over (m, n, d), with first-basis multiplicity vectors.

    Built here from public names only, so the workload does not move when
    the library reorganizes its own copies of this enumeration.
    """
    by_lam: dict = {}
    for lam, mu, gamma, c in channels.enumerate_extremal_triples(m, n, d):
        by_lam.setdefault(lam, []).append((mu, gamma, c))
    labels = staircases.partitions_of(m, d)
    specs = []
    for choice in itertools.product(*(by_lam[lam] for lam in labels)):
        assignments = {}
        for lam, (mu, gamma, c) in zip(labels, choice):
            psi = np.zeros(c)
            psi[0] = 1.0
            assignments[lam] = channels.ExtremalTriple(mu, gamma, psi)
        specs.append(channels.ExtremalSpec(m, n, d, assignments))
    return specs


class CrosscheckCold:
    """One cold pass of the three-way agreement check over every extremal spec."""

    SHAPES = [(2, 2, 3), (3, 3, 2), (4, 2, 2), (2, 3, 3), (4, 3, 2), (5, 1, 2)]
    SPECS = 192
    HAAR_TRIALS = 3

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self._ops = []
        for m, n, d in self.SHAPES:
            for idx, spec in enumerate(all_specs(m, n, d)):
                rho = O.random_state(d**m, d**m, rng)
                op_seed = _op_seed(seed, len(self._ops))
                self._ops.append(self._op(f"({m},{n},{d})#{idx}", spec, rho, op_seed))
        if len(self._ops) != self.SPECS:
            raise RuntimeError(f"expected {self.SPECS} extremal specs, found {len(self._ops)}")

    def _op(self, kind: str, spec, rho: np.ndarray, op_seed: int) -> Op:
        m, n, d = spec.m, spec.n, spec.d
        din, dout = d**m, d**n

        def call():
            direct = channels.extremal_choi(spec)
            factored = channels.factored_channel(spec)
            out, ledger = streaming.streamed_apply(spec, rho)
            report = channels.check_symmetries(
                direct, trials=self.HAAR_TRIALS, rng=np.random.default_rng(op_seed)
            )
            return direct.matrix, factored.matrix, out, ledger, report

        def check(res):
            direct, factored, out, _, report = res
            gaps = {
                "factored vs direct Choi": float(np.linalg.norm(factored - direct)),
                "direct Choi channel defect": O.choi_defect(direct, din, dout),
                "streamed vs direct Choi": float(
                    np.linalg.norm(out - O.apply_choi(direct, rho, din, dout))
                ),
                "streamed output state defect": O.state_defect(out),
                "library symmetry residual": max(
                    report.max_unitary_residual, report.max_permutation_residual
                ),
                "covariance residual": O.covariance_defect(
                    direct, m, n, d, np.random.default_rng(op_seed + 1)
                ),
            }
            bad = [f"{name} {gap:.2e}" for name, gap in gaps.items() if gap > TOL]
            return f"{kind}: " + "; ".join(bad) if bad else None

        return Op(kind, call, check, lambda res: res[3])

    def ops(self, r: int) -> list[Op]:
        return self._ops


WORKLOADS = {
    "apps-exact": AppsExact,
    "stream-sample": StreamSample,
    "crosscheck-cold": CrosscheckCold,
}
