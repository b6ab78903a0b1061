#!/usr/bin/env python3
"""Desk-scale sweep: every extremal channel over the standard shapes.

For each assignment of triples, builds the channel twice (direct Choi and
factored composition), reports the Frobenius gap, the symmetry residuals
and the streamed-executor gap on a random state.
"""

import argparse

import numpy as np

from equichan.channels import check_symmetries, extremal_choi, factored_channel
from equichan.streaming import streamed_apply
from equichan.suites import SWEEP_SHAPES, all_specs


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trials", type=int, default=20, help="Haar trials per channel")
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    print(f"{'shape':<12}{'spec':>5}{'factored-gap':>14}{'sym-resid':>12}{'stream-gap':>12}")
    worst = 0.0
    for m, n, d in SWEEP_SHAPES:
        for idx, spec in enumerate(all_specs(m, n, d)):
            E = extremal_choi(spec)
            F = factored_channel(spec)
            gap = np.linalg.norm(E.matrix - F.matrix)
            rep = check_symmetries(E, trials=args.trials, rng=rng)
            resid = max(rep.max_unitary_residual, rep.max_permutation_residual)
            A = rng.normal(size=(d**m, d**m)) + 1j * rng.normal(size=(d**m, d**m))
            rho = A @ A.conj().T
            rho /= np.trace(rho)
            out, _ = streamed_apply(spec, rho)
            sgap = np.linalg.norm(out - E.apply(rho))
            worst = max(worst, gap, resid, sgap)
            print(f"{str((m, n, d)):<12}{idx:>5}{gap:>14.3e}{resid:>12.3e}{sgap:>12.3e}")
    print(f"worst residual anywhere: {worst:.3e}")


if __name__ == "__main__":
    main()
