"""Every worked example in demos/ runs to completion from the checkout and
prints its pinned bytes."""

import hashlib
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


# sha256 of each demo's stdout (report_pipeline's stderr, its usage error, is not in it)
STDOUT_DIGESTS = {
    "geometry_probe": "9d2049407a2f182bf7b41a5bd39f9e909701060b18bdf67b7e1a677ed1ffb703",
    "groebner_walkthrough": "3d1eac61ea0d9b486a35398a8e99bf0d97e8cbe6eb63038f312faa3e66be308c",
    "koszul_tower": "fce4b2ddb89f335fde4f2f5a65381ed8b05560c296f486ec80e66d3386281940",
    "presentations_tour": "3d136eac38fe26d87723a33dca0499b3e3a12b037f35af22b8c634d924f93cbe",
    "report_pipeline": "3abb2a3e2e9d70396a173c5fc2b952ad295cf42e3ddfa6e80714802e238d1dff",
    "series_identities": "d59818b6c52813573609fcd7b2bcb21a7d668efef4e42ac1734b6b5c03c3eaa9",
    "slice_census": "cff0c228c0c478c82acb255d9381b4c7004cc8d75cdc0da15b452ff83906a499",
}


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script):
    proc = run_demo(script)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_DIGESTS[script.stem]
