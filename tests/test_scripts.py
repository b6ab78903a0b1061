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
