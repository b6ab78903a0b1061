"""One benchmark process: set up one workload, then run its closed loop.

Started by run.py with PYTHONPATH pointing at the repository's src/.  Prints
one JSON object as its last line of output: the monotonic time at which the
first timed op started, the latency of every op, the time of the reference
kernel after set-up and after every op, the failures, the peak resident set
size and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
import time
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_ERRORS = 5
SETUP_REFS = 7  # reference passes timed right after set-up


class Reference:
    """A fixed kernel that uses no equichan code, timed to gauge host speed.

    It mixes what the library's ops are made of: Python bookkeeping on small
    objects, products of small complex matrices and one medium product.  Its
    time moves with the speed the shared host gives this process, not with
    the library, so run.py can divide that speed out of the op latencies.
    """

    REPS = 150

    def __init__(self, np):
        rng = np.random.default_rng(0)

        def cmat(rows, cols):
            return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

        self.np = np
        self.small = cmat(16, 16)
        self.tall = cmat(32, 16)
        self.medium = cmat(96, 96)

    def time(self) -> float:
        t0 = time.perf_counter()
        acc = self.np.zeros((32, 32), dtype=complex)
        table = {}
        for i in range(self.REPS):
            acc += self.tall @ self.small @ self.tall.conj().T
            table[(i % 7, i)] = tuple(range(i % 9))
        product = self.medium @ self.medium
        elapsed = time.perf_counter() - t0
        if not (self.np.isfinite(acc).all() and self.np.isfinite(product).all()):
            raise FloatingPointError("reference kernel produced a non-finite value")
        return elapsed


def blas_info() -> dict:
    """OpenBLAS build string and thread count, read from the loaded library."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    return {"blas_config": config().decode(), "blas_threads": threads()}
    return {"blas_config": None, "blas_threads": None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=1, help="least number of rounds")
    ap.add_argument("--seconds", type=float, default=0.0, help="least timed wall time")
    ap.add_argument("--trace-file", help="trace the run and write its spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import numpy as np

    import equichan

    if Path(equichan.__file__).resolve().parent != ROOT / "src" / "equichan":
        print(f"equichan imported from {equichan.__file__}, not from src/", file=sys.stderr)
        return 2
    tracer = None
    if args.trace_file:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    first_op = time.monotonic()
    reference = Reference(np)
    setup_refs = [reference.time() for _ in range(SETUP_REFS)]
    if args.setup_only:
        print(json.dumps({"first_op": first_op, "setup_refs": setup_refs}))
        return 0

    latencies, refs, kinds, errors = [], [], [], []
    failed = 0
    ledger = {"num_simple_cg": 0, "num_inverse_cg": 0, "classical_samples": 0, "peak_live_dim": 0}
    op_id = 0
    start = time.perf_counter()
    rounds = 0
    while rounds < args.rounds or time.perf_counter() - start < args.seconds:
        for op in workload.ops(rounds):
            if tracer:
                tracer.op_id = op_id
            t0 = time.perf_counter()
            try:
                result = op.call()
                error = None
            except Exception as exc:  # a raising op is a failed op, not a crash
                error = f"{op.kind}: raised {exc!r}"
            latencies.append(time.perf_counter() - t0)
            if tracer:
                tracer.op_id = None
            refs.append(reference.time())
            if error is None:
                try:
                    error = op.check(result)
                    led = op.ledger(result)
                except Exception as exc:
                    error = f"{op.kind}: check raised {exc!r}"
                else:
                    ledger["num_simple_cg"] += led.num_simple_cg
                    ledger["num_inverse_cg"] += led.num_inverse_cg
                    ledger["classical_samples"] += led.classical_samples
                    ledger["peak_live_dim"] = max(ledger["peak_live_dim"], led.peak_live_dim)
            kinds.append(op.kind)
            op_id += 1
            if error:
                failed += 1
                if len(errors) < MAX_ERRORS:
                    errors.append(error)
        rounds += 1
    timed_s = time.perf_counter() - start

    out = {
        "first_op": first_op,
        "timed_s": timed_s,
        "latencies": latencies,
        "refs": refs,
        "setup_refs": setup_refs,
        "kinds": kinds,
        "failed": failed,
        "errors": errors,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ledger": ledger,
        "env": {"numpy": np.__version__, "scipy": version("scipy"), **blas_info()},
    }
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        tracer.write(args.trace_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
