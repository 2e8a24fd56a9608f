"""Each self-asserting script in demos/ and the benchmark's self-test run
to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_with_src(script):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo):
    proc = run_with_src(demo)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_selftest_exits_zero():
    # the benchmark reaches efrac.<name> as attributes, so a cut to the
    # package surface that breaks it fails here
    proc = run_with_src(ROOT / "bench" / "selftest.py")
    assert proc.returncode == 0, proc.stderr
