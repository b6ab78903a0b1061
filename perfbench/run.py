#!/usr/bin/env python3
"""Benchmark of the equichan package.

Run from the repository root:

    python3 perfbench/run.py --workload apps-exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload, seed 1

Workloads, each a closed loop with one client in fresh single-threaded
Python processes (BLAS keeps its default thread count):

  apps-exact       symmetrize (8,2) (5,3) (6,3), clone 2->6 at d=3 and 1->8
                   at d=2, purity_amplify (8,2) and (5,3); exact mode, caches
                   warmed by one untimed pass during set-up.
  stream-sample    streamed_apply of the symmetrization spec in sample mode
                   at (4,2) (5,2) (3,3) with 500 trajectories, (6,2) with 200
                   and (7,2) with 100; every op has its own seed.
  crosscheck-cold  passes over the 192 extremal specs of six shapes, each
                   pass in a fresh process with cold caches (two passes at
                   least): direct Choi, factored channel, streamed run and
                   symmetry check of each spec.

Every output is checked against an oracle outside the timer (oracles.py).
With --trace 0 the last line of output is a JSON object with the end-to-end
metrics: setup_s (process start to first timed op, median of several
set-ups), ops_per_s (ops over summed op time), op_p50_ms, op_p90_ms and
peak_rss_mb.  fail_ratio is printed above it; the JSON carries it as
failed/attempted.

The times in the JSON are scaled to a fixed host speed.  A shared host runs
this process faster or slower by up to half over minutes, which moves every
op alike.  So each worker times a library-free reference kernel after set-up
and after every op (worker.Reference), and each time is multiplied by
REF_NOMINAL_S over the median reference time around it: the time the op
would take where the kernel takes REF_NOMINAL_S.  The raw wall-clock
figures and the host speed are printed above the JSON line.

With --trace 1 the run is repeated untraced and twice traced with a fixed
number of rounds; the JSON holds the per-layer metrics of tracer.py, the
ledger counts and the tracing overhead (all unscaled), and the run fails
unless the two traced runs give identical counts.  Results and span files
go to .perfbench_out/.  The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170.0  # a run must end within 180 s
SETUPS = 3  # set-ups timed per run; setup_s is their median
# Reference kernel time that the reported times are scaled to, about its
# median on the 2-vCPU Intel Xeon host of perfbench/baseline.json.
REF_NOMINAL_S = 0.0032
REF_WINDOW = 2  # an op's host speed is the median of the 2*2+1 references around it


@dataclass(frozen=True)
class Plan:
    min_rounds: int  # rounds a measured run makes at least
    trace_rounds: int  # rounds each process of a traced run makes exactly
    process_per_round: bool  # a cold workload runs each round in a fresh process


# A measured run lasts --seconds and at least min_rounds: over 100 ops on the
# warm workloads, so ten latencies lie beyond p90, and two cold passes,
# which halve the run-to-run spread of one pass.  Traced runs make a fixed
# number of rounds so that their counts can repeat exactly.
PLANS = {
    "apps-exact": Plan(min_rounds=15, trace_rounds=5, process_per_round=False),
    "stream-sample": Plan(min_rounds=20, trace_rounds=8, process_per_round=False),
    "crosscheck-cold": Plan(min_rounds=2, trace_rounds=1, process_per_round=True),
}
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
LEDGER = ("classical_samples", "num_simple_cg", "num_inverse_cg", "peak_live_dim")
OVERHEAD = ("trace.untraced_ops_per_s", "trace.traced_ops_per_s", "trace.overhead_ratio")


class BenchError(RuntimeError):
    pass


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    return "count"


def is_count(metric: str) -> bool:
    return unit_of(metric) == "count" or metric.endswith("hit_ratio")


def speed_factors(refs: list[float]) -> list[float]:
    """Per op, REF_NOMINAL_S over the median reference time around it."""
    return [
        REF_NOMINAL_S / statistics.median(refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 1])
        for i in range(len(refs))
    ]


def summarize(setups: list[float], lat: list[float], rss_mb: float) -> dict:
    deciles = statistics.quantiles(lat, n=10)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * deciles[8],
        "peak_rss_mb": rss_mb,
    }


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = None

    def spawn(self, rounds=1, seconds=0.0, trace_file=None, setup_only=False) -> dict:
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--rounds", str(rounds), "--seconds", str(seconds),
        ]
        if trace_file:
            cmd += ["--trace-file", str(trace_file)]
        if setup_only:
            cmd.append("--setup-only")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        started = time.monotonic()
        timeout = self.deadline - started
        if timeout <= 0:
            raise BenchError("out of time before starting a worker")
        try:
            proc = subprocess.run(
                cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker did not finish within {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["first_op"] - started
        self.env = result.get("env", self.env)
        return result

    def measure(self, seconds: float) -> tuple[dict, dict, list[dict]]:
        plan = PLANS[self.workload]
        runs = []
        if plan.process_per_round:
            while len(runs) < plan.min_rounds or sum(r["timed_s"] for r in runs) < seconds:
                runs.append(self.spawn(rounds=1))
        else:
            runs.append(self.spawn(rounds=plan.min_rounds, seconds=seconds))
        setups, setup_refs = [], []
        while len(setups) + len(runs) < SETUPS:
            extra = self.spawn(setup_only=True)
            setups.append(extra["setup_s"])
            setup_refs.append(statistics.median(extra["setup_refs"]))
        setups += [r["setup_s"] for r in runs]
        setup_refs += [statistics.median(r["setup_refs"]) for r in runs]
        lat = [x for r in runs for x in r["latencies"]]
        scaled = [x * f for r in runs for x, f in zip(r["latencies"], speed_factors(r["refs"]))]
        scaled_setups = [s * REF_NOMINAL_S / ref for s, ref in zip(setups, setup_refs)]
        rss = max(r["rss_mb"] for r in runs)
        metrics = summarize(scaled_setups, scaled, rss)
        raw = summarize(setups, lat, rss)
        raw["host_speed"] = REF_NOMINAL_S / statistics.median(
            x for r in runs for x in r["refs"]
        )
        return metrics, raw, runs

    def trace(self) -> tuple[dict, dict, list[dict]]:
        rounds = PLANS[self.workload].trace_rounds
        OUT.mkdir(exist_ok=True)
        plain = self.spawn(rounds=rounds)
        traced = [
            self.spawn(
                rounds=rounds,
                trace_file=OUT / f"trace-{self.workload}-seed{self.seed}-{k}.json.gz",
            )
            for k in (1, 2)
        ]
        metrics_pair = []
        for run in traced:
            m = dict(run["layers"])
            for name in LEDGER:
                m[f"streaming.ledger.{name}"] = run["ledger"][name]
            metrics_pair.append(m)
        differ = [
            name for name in metrics_pair[0]
            if is_count(name) and metrics_pair[0][name] != metrics_pair[1][name]
        ]
        if differ:
            raise BenchError(f"count metrics differ between two traced runs: {differ}")
        untraced = len(plain["latencies"]) / sum(plain["latencies"])
        traced_rate = len(traced[0]["latencies"]) / sum(traced[0]["latencies"])
        metrics = metrics_pair[0]
        metrics.update(zip(OVERHEAD, (untraced, traced_rate, untraced / traced_rate)))
        return metrics, {}, [plain, *traced]


def environment(env: dict | None) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "git_commit": commit,
        **(env or {}),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(workload, seed)
    metrics, raw, runs = runner.trace() if trace else runner.measure(seconds)
    attempted = sum(len(r["latencies"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "raw": raw,
        "environment": environment(runner.env),
        "runs": [
            {
                k: r[k]
                for k in ("setup_s", "setup_refs", "timed_s", "latencies", "refs", "kinds",
                          "failed", "rss_mb")
            }
            for r in runs
        ],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report))
    return report


def print_report(report: dict) -> None:
    lat = sum(len(r["latencies"]) for r in report["runs"])
    print(
        f"# {report['workload']} seed={report['seed']} trace={int(report['trace'])}: "
        f"{report['attempted']} ops attempted, {report['failed']} failed, "
        f"{lat} latency samples in {len(report['runs'])} timed process(es)"
    )
    for name, value in report["metrics"].items():
        print(f"#   {name:<48} {value:>14.6g} {unit_of(name)}")
    if not report["trace"]:
        print(f"#   {'fail_ratio':<48} {report['failed'] / report['attempted']:>14.6g} ratio")
        print(f"# raw wall-clock figures, not scaled to REF_NOMINAL_S = {REF_NOMINAL_S} s:")
        for name, value in report["raw"].items():
            unit = "ratio" if name == "host_speed" else unit_of(name)
            print(f"#   raw.{name:<44} {value:>14.6g} {unit}")
    for error in report["errors"]:
        print(f"#   FAILED {error}")
    print(f"# environment: {json.dumps(report['environment'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", choices=[*PLANS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if sys.flags.optimize:
        print("refusing to run under python -O: it strips the library's checks", file=sys.stderr)
        return 2
    if "EQUICHAN_MAX_DENSE" in os.environ:
        print("refusing to run with EQUICHAN_MAX_DENSE set: it changes what runs", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "equichan" / "__init__.py").is_file():
        print(f"no equichan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = list(PLANS) if args.workload == "all" else [args.workload]
    reports = []
    for workload in workloads:
        try:
            reports.append(run_workload(workload, args.seed, args.seconds, bool(args.trace)))
        except BenchError as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        print_report(reports[-1])

    def named(report, name):
        return name if len(reports) == 1 else f"{report['workload']}.{name}"

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            named(r, name): {"value": value, "unit": unit_of(name)}
            for r in reports
            for name, value in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
