"""Smoke test of the demos: each script runs to completion from a clean
working directory against this checkout's package, with RuntimeWarnings
raised as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    # A demo's scratch files go to a temp dir of its own, and it must
    # leave that dir as empty as it found it.  As in the suite, a numpy
    # overflow or invalid operation is an error, in the demo and in every
    # process it starts.
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = {
        **os.environ,
        "PYTHONPATH": str(ROOT / "src"),
        "TMPDIR": str(tmpdir),
        "PYTHONWARNINGS": "error::RuntimeWarning",
    }
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert list(tmpdir.iterdir()) == []
