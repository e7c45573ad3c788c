"""Every worked example in demos/ runs to completion from the checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 7


def run_demo(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script):
    proc = run_demo(script)
    assert proc.returncode == 0, proc.stderr


def test_report_pipeline_prints_the_same_on_every_run():
    # its reports go to a fresh temp directory each run; the echoed commands
    # name the file relative to it
    script = ROOT / "demos" / "report_pipeline.py"
    first, second = run_demo(script), run_demo(script)
    assert first.returncode == second.returncode == 0, first.stderr + second.stderr
    assert first.stdout == second.stdout


def test_slice_census_prints_the_orbits_of_a5():
    proc = run_demo(ROOT / "demos" / "slice_census.py")
    assert proc.returncode == 0, proc.stderr
    assert ("  [2, 1, 3, 4, 5]\n  [2, 3, 4, 5, 1]\n"
            "  19 orbits among the 252 slices up to total degree 5\n"
            "  one slice ranked per orbit: 0 mismatches") in proc.stdout
