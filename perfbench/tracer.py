"""Spans around the calls into each equichan module, for the traced run.

The tracer replaces library functions by wrappers, in every loaded
``equichan`` module that binds them (several modules import functions by
name), and records one span per call: name, start, end, parent span and
the benchmark op id (None during set-up).  Spans stay in memory until the
run ends.  A name that no longer exists in the library is an error, so a
refactor cannot make a layer silently read zero.

Cache metrics (calls, cold_calls, cold_s, warm_s, hit_ratio) cover the whole
process, because the warm workloads fill the caches during set-up.  All
other metrics cover the timed ops only.  A call is cold when its cache key,
the labels among its arguments, has not been seen before in the process.
Times of cache metrics are inclusive; ``self_s`` excludes child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import sys
from time import perf_counter

from equichan.staircases import Staircase

# module -> functions wrapped there; each span is named "<module>.<function>"
TARGETS = {
    "staircases": ["lr_coeff", "partitions_of"],
    "gtpaths": ["sample_gt_path", "enumerate_paths"],
    "realize": ["canonical_realization", "dual_structure"],
    "transforms": ["simple_cg", "iterated_cg", "schur_transform", "general_cg"],
    "channels": [
        "classification_isometry",
        "extremal_choi",
        "factored_channel",
        "irrep_channel",
        "check_symmetries",
    ],
    "streaming": ["streamed_apply", "_absorb_phase", "_middle_phase", "_emission_phase"],
    "apps": ["symmetrize", "clone", "purity_amplify"],
    "verify": ["haar_unitary"],
}
SPAN_NAMES = {
    "streaming._absorb_phase": "streaming.absorb",
    "streaming._middle_phase": "streaming.middle",
    "streaming._emission_phase": "streaming.emission",
}
PHASES = ("streaming.absorb", "streaming.middle", "streaming.emission")
# names another module imports and calls directly; wrapping them there too
# is what puts clone's phases into the trace
REQUIRED_ALIASES = {"apps": ["_absorb_phase", "_emission_phase"]}
CACHED = {
    "transforms.simple_cg",
    "transforms.iterated_cg",
    "transforms.schur_transform",
    "transforms.general_cg",
    "realize.canonical_realization",
    "realize.dual_structure",
    "channels.classification_isometry",
}
CACHE_STATS = {
    "transforms.simple_cg": ("calls", "cold_calls", "cold_s", "warm_s", "hit_ratio"),
    "transforms.iterated_cg": ("calls", "cold_calls", "cold_s", "warm_s", "hit_ratio"),
    "transforms.schur_transform": ("calls", "cold_calls", "cold_s", "warm_s", "hit_ratio"),
    "transforms.general_cg": ("calls", "cold_calls", "cold_s", "warm_s", "hit_ratio"),
    "realize.canonical_realization": ("cold_calls", "cold_s"),
    "realize.dual_structure": ("cold_calls", "cold_s"),
    "channels.classification_isometry": ("cold_s",),
}
SELF_STATS = {
    "gtpaths.sample_gt_path": ("calls", "self_s"),
    "gtpaths.enumerate_paths": ("calls", "self_s"),
    "streaming.streamed_apply": ("self_s",),
    "streaming.absorb": ("self_s",),
    "streaming.middle": ("self_s",),
    "streaming.emission": ("self_s",),
    "channels.extremal_choi": ("self_s",),
    "channels.factored_channel": ("self_s",),
    "channels.irrep_channel": ("self_s",),
    "channels.check_symmetries": ("self_s",),
    "staircases.lr_coeff": ("calls", "self_s"),
    "staircases.partitions_of": ("calls", "self_s"),
    "verify.haar_unitary": ("calls", "self_s"),
}
P50_SPANS = ("apps.symmetrize", "apps.clone", "apps.purity_amplify")


class TracerError(RuntimeError):
    """The library no longer has a name the tracer wraps, or spans nest wrongly."""


def _empty_stats() -> dict[str, float]:
    return {"calls": 0, "cold_calls": 0, "cold_s": 0.0, "warm_s": 0.0,
            "op_calls": 0, "self_s": 0.0, "total_s": 0.0}


def _cache_key(value):
    if isinstance(value, Staircase):
        return value.entries
    label = getattr(value, "label", None)
    if isinstance(label, Staircase):  # an IrrepRealization
        return label.entries
    if isinstance(value, (tuple, list)):
        return tuple(_cache_key(v) for v in value)
    return value


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int | None] = []
        self.cold: list[bool | None] = []
        self.op_id: int | None = None
        self.paths_constructed = 0
        self._stack: list[int] = []
        self._seen: dict[str, set] = {name: set() for name in CACHED}
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target, failing loudly on a name that is gone."""
        modules = {
            name: importlib.import_module(f"equichan.{name}") for name in TARGETS
        }
        for mod_name, funcs in TARGETS.items():
            for func in funcs:
                if not hasattr(modules[mod_name], func):
                    raise TracerError(f"equichan.{mod_name}.{func} no longer exists")
                original = getattr(modules[mod_name], func)
                qual = f"{mod_name}.{func}"
                wrapper = self._wrap(SPAN_NAMES.get(qual, qual), original, qual in CACHED)
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "") or ""
                    if name.split(".")[0] == "equichan" and getattr(mod, func, None) is original:
                        self._patch(mod, func, wrapper)
        for mod_name, funcs in REQUIRED_ALIASES.items():
            for func in funcs:
                if not hasattr(getattr(modules[mod_name], func, None), "__wrapped__"):
                    raise TracerError(f"equichan.{mod_name}.{func} is not wrapped")
        gt_path = importlib.import_module("equichan.gtpaths").GtPath
        if "__post_init__" not in vars(gt_path):
            raise TracerError("equichan.gtpaths.GtPath.__post_init__ no longer exists")
        self._patch(gt_path, "__post_init__", self._count_paths(gt_path.__post_init__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _count_paths(self, post_init):
        tracer = self

        @functools.wraps(post_init)
        def counted(path):
            if tracer.op_id is not None:
                tracer.paths_constructed += 1
            return post_init(path)

        return counted

    def _wrap(self, span: str, fn, cached: bool):
        tracer = self
        seen = self._seen.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cold = None
            if cached:
                key = (_cache_key(args), _cache_key(tuple(sorted(kwargs.items()))))
                cold = key not in seen
                seen.add(key)
            idx = len(tracer.names)
            tracer.names.append(span)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ops.append(tracer.op_id)
            tracer.cold.append(cold)
            tracer.ends.append(0.0)
            tracer._stack.append(idx)
            tracer.starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = perf_counter()
                tracer._stack.pop()

        return wrapper

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[idx] - self.starts[idx]
        return out

    def check_phases(self) -> None:
        """The phase spans inside each streamed_apply fit inside it."""
        inside: dict[int, float] = {}
        for idx, parent in enumerate(self.parents):
            if self.names[idx] in PHASES and parent >= 0:
                if self.names[parent] == "streaming.streamed_apply":
                    inside[parent] = inside.get(parent, 0.0) + self.ends[idx] - self.starts[idx]
        for parent, total in inside.items():
            if total > self.ends[parent] - self.starts[parent]:
                raise TracerError("phase spans exceed their streamed_apply span")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics except the ledger counts and the overhead."""
        self.check_phases()
        selfs = self.self_times()
        agg: dict[str, dict[str, float]] = {}
        durations: dict[str, list[float]] = {name: [] for name in P50_SPANS}
        for idx, name in enumerate(self.names):
            a = agg.setdefault(name, _empty_stats())
            dur = self.ends[idx] - self.starts[idx]
            if self.cold[idx] is not None:
                a["calls"] += 1
                if self.cold[idx]:
                    a["cold_calls"] += 1
                    a["cold_s"] += dur
                else:
                    a["warm_s"] += dur
            if self.ops[idx] is not None:
                a["op_calls"] += 1
                a["self_s"] += selfs[idx]
                a["total_s"] += dur
                if name in durations:
                    durations[name].append(dur)
        empty = _empty_stats()
        out: dict[str, float] = {}
        for name, stats in CACHE_STATS.items():
            a = agg.get(name, empty)
            for stat in stats:
                if stat == "hit_ratio":
                    warm = a["calls"] - a["cold_calls"]
                    out[f"{name}.{stat}"] = warm / a["calls"] if a["calls"] else 0.0
                else:
                    out[f"{name}.{stat}"] = a[stat]
        for name, stats in SELF_STATS.items():
            a = agg.get(name, empty)
            for stat in stats:
                out[f"{name}.{stat}"] = a["op_calls"] if stat == "calls" else a[stat]
        walk = agg.get("gtpaths.sample_gt_path", empty)
        out["gtpaths.paths_per_s"] = (
            walk["op_calls"] / walk["total_s"] if walk["total_s"] > 0 else 0.0
        )
        out["gtpaths.GtPath.constructed"] = self.paths_constructed
        for name in P50_SPANS:
            vals = durations[name]
            out[f"{name}.p50_ms"] = 1e3 * statistics.median(vals) if vals else 0.0
        return out

    def write(self, path) -> None:
        """All spans as gzipped JSON, times in seconds from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            [n, s - t0, e - t0, p, o]
            for n, s, e, p, o in zip(self.names, self.starts, self.ends, self.parents, self.ops)
        ]
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": spans}, fh)
