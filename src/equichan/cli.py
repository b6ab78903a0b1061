"""Command-line interface.

Subcommands: classify (list extremal triples), simulate (apply a spec to a
state, dense or streamed), sample (box removals or whole GT paths),
estimate (resource tables), verify (invariant suites), apps (the three
worked channels).  Exit codes: 0 success, 1 verification failure, 2 usage
error or an input or output rejected by the state gate in ``channels``.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from equichan import fileio
from equichan.apps import clone, purity_amplify, symmetrize
from equichan.channels import (
    check_input,
    check_state,
    enumerate_extremal_triples,
    extremal_choi,
)
from equichan.gtpaths import sample_gt_path, sample_remove_box, exact_removal_distribution
from equichan.staircases import Staircase
from equichan.streaming import application_estimate, resource_estimate, streamed_apply
from equichan.suites import SUITES, run_suite
from equichan.verify import tv_distance


def _parse_shape(text: str) -> Staircase:
    try:
        return Staircase(tuple(int(x) for x in text.split(",")))
    except ValueError as exc:
        raise ValueError(f"bad shape {text!r}: {exc}")


def _cmd_classify(args) -> int:
    triples = enumerate_extremal_triples(args.m, args.n, args.d)
    print(f"extremal triples for m={args.m}, n={args.n}, d={args.d}:")
    for lam, mu, gamma, c in triples:
        print(f"  lambda={lam}  mu={mu}  gamma={gamma}  multiplicity={c}")
    print(f"{len(triples)} admissible triples")
    return 0


def _cmd_simulate(args) -> int:
    spec = fileio.spec_from_obj(fileio.load_json(args.spec))
    rho = fileio.matrix_from_obj(fileio.load_json(args.state))
    if args.stream:
        out, ledger = streamed_apply(
            spec, rho, seed=args.seed, mode=args.mode, trajectories=args.trajectories
        )
        record = fileio.app_result_to_obj(out, ledger)
    else:
        check_input(rho, spec.d**spec.m)
        out = extremal_choi(spec).apply(rho)
        check_state(out)
        record = {"output": fileio.matrix_to_obj(out)}
    if args.out:
        fileio.save_json(record, args.out)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(record))
    return 0


def _cmd_sample(args) -> int:
    shape = _parse_shape(args.shape)
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    rng = np.random.default_rng(args.seed)
    if args.what == "path":
        for _ in range(args.count):
            p = sample_gt_path(shape, rng, mode=args.mode)
            print(json.dumps(fileio.path_to_obj(p)))
        return 0
    exact = exact_removal_distribution(shape)
    counts: dict[Staircase, int] = {}
    for _ in range(args.count):
        mu = sample_remove_box(shape, rng, mode=args.mode)
        counts[mu] = counts.get(mu, 0) + 1
    print(f"{'shape':<16}{'count':>9}{'frequency':>12}{'exact':>12}")
    for mu in exact.support():
        c = counts.get(mu, 0)
        print(f"{str(mu):<16}{c:>9}{c / args.count:>12.6f}{float(exact[mu]):>12.6f}")
    tv = tv_distance(counts, exact)
    print(f"total variation vs exact: {tv:.6f}")
    return 0


def _cmd_estimate(args) -> int:
    if args.task == "general":
        if args.r is None:
            raise ValueError("--task general needs -r, the bound on absorbed staircase lengths")
        report = resource_estimate(
            args.m, args.n, args.d, args.r, args.r_prime, args.k, args.l
        )
        print(report.table())
        print(json.dumps(report.as_records()))
        return 0
    est = application_estimate(args.task, m=args.m, n=args.n, d=args.d, r=args.r)
    print(f"task: {est['task']}")
    print(f"memory: {est['memory']}   (leading factor {est['memory_factor']})")
    print(f"gates:  {est['gates']}   (leading factor {est['gate_factor']})")
    print(est["report"].table())
    print(json.dumps(est["report"].as_records()))
    return 0


def _cmd_verify(args) -> int:
    names = sorted(SUITES) if args.all else [args.suite]
    if names == [None]:
        print("error: pass --all or --suite NAME", file=sys.stderr)
        return 2
    records = []
    ok = True
    for name in names:
        kwargs = {}
        if name == "symmetry-certification":
            kwargs = {"trials": args.trials}
        report = run_suite(name, seed=args.seed, **kwargs)
        for line in report.summary_lines():
            print(line)
        records.append(fileio.report_to_obj(report))
        ok = ok and report.passed
    if args.out:
        fileio.save_json(records, args.out)
    print("ALL SUITES PASSED" if ok else "SOME SUITES FAILED")
    return 0 if ok else 1


def _cmd_apps(args) -> int:
    rho = fileio.matrix_from_obj(fileio.load_json(args.state))
    reference = None
    if args.reference:
        ref = fileio.matrix_from_obj(fileio.load_json(args.reference))
        reference = ref.reshape(-1)
    if args.app == "symmetrize":
        res = symmetrize(
            rho, args.m, args.d, mode=args.mode, seed=args.seed,
            trajectories=args.trajectories,
        )
    elif args.app == "clone":
        if args.n is None:
            raise ValueError("clone needs -n, the number of output copies")
        state = rho.reshape(-1) if 1 in rho.shape else rho
        res = clone(state, args.m, args.n, args.d, reference=reference)
    else:
        res = purity_amplify(rho, args.m, args.d, reference=reference)
    record = fileio.app_result_to_obj(res.output, res.ledger, res.fidelity)
    if args.out:
        fileio.save_json(record, args.out)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(record))
    if res.fidelity is not None:
        print(f"fidelity: {res.fidelity!r}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="equichan",
        description="unitary-equivariant and permutation-invariant channels",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="list extremal channel triples")
    c.add_argument("m", type=int)
    c.add_argument("n", type=int)
    c.add_argument("d", type=int)
    c.set_defaults(func=_cmd_classify)

    s = sub.add_parser("simulate", help="apply an extremal spec to a state")
    s.add_argument("--spec", required=True)
    s.add_argument("--state", required=True)
    s.add_argument("--stream", action="store_true")
    s.add_argument("--mode", choices=["exact", "sample"], default="exact")
    s.add_argument("--trajectories", type=int, default=10_000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_simulate)

    sa = sub.add_parser("sample", help="sample box removals or GT paths")
    sa.add_argument("--shape", required=True, help="comma-separated partition, e.g. 3,1")
    sa.add_argument("--what", choices=["box", "path"], default="box")
    sa.add_argument("--mode", choices=["alg1", "alg3"], default="alg3")
    sa.add_argument("--count", type=int, default=10_000)
    sa.add_argument("--seed", type=int, default=0)
    sa.set_defaults(func=_cmd_sample)

    e = sub.add_parser("estimate", help="streaming resource tables")
    e.add_argument("--task", choices=["symmetrize", "clone", "purify", "general"],
                   default="general")
    e.add_argument("-m", type=int, required=True)
    e.add_argument("-n", type=int, default=1)
    e.add_argument("-d", type=int, required=True)
    e.add_argument("-r", type=int, default=None)
    e.add_argument("--r-prime", type=int, default=1)
    e.add_argument("-k", type=int, default=0)
    e.add_argument("-l", type=int, default=0)
    e.set_defaults(func=_cmd_estimate)

    v = sub.add_parser("verify", help="run invariant suites")
    v.add_argument("--all", action="store_true")
    v.add_argument("--suite", choices=sorted(SUITES), default=None)
    v.add_argument("--seed", type=int, default=1)
    v.add_argument("--trials", type=int, default=20)
    v.add_argument("--out")
    v.set_defaults(func=_cmd_verify)

    a = sub.add_parser("apps", help="run a worked application")
    a.add_argument("app", choices=["symmetrize", "clone", "purify"])
    a.add_argument("--state", required=True)
    a.add_argument("-m", type=int, required=True)
    a.add_argument("-n", type=int, default=None)
    a.add_argument("-d", type=int, required=True)
    a.add_argument("--mode", choices=["exact", "sample"], default="exact")
    a.add_argument("--trajectories", type=int, default=10_000)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--reference", help="matrix file with a reference vector")
    a.add_argument("--out")
    a.set_defaults(func=_cmd_apps)
    return p


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
