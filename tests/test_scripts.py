"""Smoke tests: the scripts under scripts/ run to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import equichan

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(equichan.__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_resource_tables_runs():
    proc = run_script("resource_tables.py")
    assert proc.returncode == 0, proc.stderr
    assert "measured ledger" in proc.stdout


def test_extremal_sweep_stays_within_tolerance():
    proc = run_script("extremal_sweep.py", "--trials", "1")
    assert proc.returncode == 0, proc.stderr
    found = re.search(r"worst residual anywhere: (\S+)", proc.stdout)
    assert found, proc.stdout
    assert float(found.group(1)) <= 1e-8


# Runs the sweep on one shape with every factored channel scaled by
# 1 + 1e-6, so that its factored gap is far above the threshold.
PERTURBED_SWEEP = """
import runpy, sys
import equichan.channels as channels
import equichan.suites as suites
exact = channels.factored_channel
def perturbed(spec):
    F = exact(spec)
    return channels.ChoiMatrix(F.matrix * (1 + 1e-6), F.m, F.n, F.d)
channels.factored_channel = perturbed
suites.SWEEP_SHAPES = [(1, 1, 2)]
sys.argv = [sys.argv[1], "--trials", "1"]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def test_extremal_sweep_exits_1_above_tolerance():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PERTURBED_SWEEP, str(ROOT / "scripts" / "extremal_sweep.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    found = re.search(r"worst residual anywhere: (\S+)", proc.stdout)
    assert found, proc.stdout + proc.stderr
    assert float(found.group(1)) > 1e-8
    assert proc.returncode == 1, proc.stderr
