"""Checks of the benchmark's own oracles, tracer and metric table.

Run from the repository root:  PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import json
from math import comb, factorial
from pathlib import Path

import numpy as np
import pytest

import oracles as O
import run
import tracer as T


@pytest.mark.parametrize("m,d", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3), (5, 3)])
def test_coset_average_equals_full_permutation_average(m, d):
    rng = np.random.default_rng(m * 10 + d)
    A = rng.standard_normal((d**m, d**m)) + 1j * rng.standard_normal((d**m, d**m))
    assert np.linalg.norm(O.symmetrize_oracle(A, m, d) - O.symmetrize_brute(A, m, d)) < 1e-12


@pytest.mark.parametrize("n,d", [(3, 2), (4, 3)])
def test_symmetric_projector(n, d):
    P = O.symmetric_projector(n, d)
    assert np.linalg.norm(P @ P - P) < 1e-12
    assert np.isclose(np.trace(P), comb(n + d - 1, d - 1))
    X = np.random.default_rng(0).standard_normal((d**n, d**n))
    assert np.linalg.norm(O.symmetrize_oracle(P @ X @ P, n, d) - P @ X @ P) < 1e-12


def test_werner_clone_is_a_state():
    psi = O.random_vector(3, np.random.default_rng(1))
    out = O.werner_clone(psi, 2, 4, 3, O.symmetric_projector(4, 3))
    assert O.state_defect(out) < 1e-12


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_hook_dimensions_square_to_the_group_order(m):
    assert sum(O._hook_dim(lam) ** 2 for lam in O._partitions(m, m)) == factorial(m)


def test_sampling_rms_refuses_shared_content_sums():
    # (4,1,1) and (3,3) both have content sum 3
    with pytest.raises(ValueError):
        O.sampling_rms(np.eye(3**6) / 3**6, 6, 3)


def test_sampling_rms_of_a_symmetric_state_is_zero():
    # a state on the symmetric subspace has one path per label: nothing to sample
    P = O.symmetric_projector(4, 2)
    assert O.sampling_rms(P / np.trace(P), 4, 2) < 1e-6


def test_self_time_subtracts_children():
    tr = T.Tracer()
    tr.names = ["streaming.streamed_apply", "streaming.absorb", "streaming.emission"]
    tr.starts = [0.0, 1.0, 4.0]
    tr.ends = [10.0, 3.0, 9.0]
    tr.parents = [-1, 0, 0]
    assert tr.self_times() == [3.0, 2.0, 5.0]
    tr.check_phases()
    tr.ends[2] = 13.0
    with pytest.raises(T.TracerError):
        tr.check_phases()


def test_tracer_fails_loudly_on_a_missing_name(monkeypatch):
    monkeypatch.setitem(T.TARGETS, "streaming", ["streamed_apply", "_no_such_phase"])
    tr = T.Tracer()
    with pytest.raises(T.TracerError, match="_no_such_phase"):
        tr.install()
    tr.uninstall()


def test_tracer_wraps_imported_aliases_and_restores_them():
    import equichan.apps as apps
    import equichan.streaming as streaming

    before = streaming._absorb_phase
    tr = T.Tracer()
    tr.install()
    try:
        assert apps._absorb_phase is streaming._absorb_phase
        assert streaming._absorb_phase.__wrapped__ is before
    finally:
        tr.uninstall()
    assert streaming._absorb_phase is before and apps._absorb_phase is before


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert set(spec["paths"]) == {"perfbench"}
    assert [w["name"] for w in spec["workloads"]] == list(run.PLANS)
    layer_names = (
        set(T.Tracer().metrics())
        | {f"streaming.ledger.{name}" for name in run.LEDGER}
        | set(run.OVERHEAD)
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.unit_of(name) for name in layer_names
    }


def test_speed_factors_use_the_local_median_reference():
    refs = [run.REF_NOMINAL_S] * 20 + [2 * run.REF_NOMINAL_S] * 20
    factors = run.speed_factors(refs)
    assert len(factors) == len(refs)
    assert factors[0] == 1.0 and factors[-1] == 0.5
    # one slow reference among fast ones does not move the factor
    refs[5] = 50 * run.REF_NOMINAL_S
    assert run.speed_factors(refs)[5] == 1.0


def test_reference_kernel_times_itself():
    import worker

    ref = worker.Reference(np)
    assert 0.0 < ref.time() < 1.0
