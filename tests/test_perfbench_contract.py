"""The benchmark's tracer wraps psiring's layer functions by module and name;
installing it from the checkout fails fast when one of them is renamed or gone,
and a traced --threads 2 command must still match its serial baseline.  Every
command the benchmark records must still give its recorded bytes.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from psiring import cli

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = json.loads((ROOT / "perfbench" / "expected.json").read_text())


def run_with_tracer(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    return subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_tracer_installs_on_this_checkout():
    proc = run_with_tracer("from tracer import Tracer; Tracer().install()")
    assert proc.returncode == 0, proc.stderr


def test_traced_map_matches_its_serial_baseline():
    # what perfbench --trace 1 does to a --threads 2 workload command
    proc = run_with_tracer(
        "from tracer import Tracer\n"
        "from psiring import cli\n"
        "t = Tracer(serial_baseline=True)\n"
        "t.install()\n"
        "code = cli.main(['hilbert', 'verify', '--n', '4', '--max-total', '2',"
        " '--threads', '2'])\n"
        "assert code == 0, code\n"
        "assert len(t.map_pairs) == 1, t.map_pairs\n"
        "assert t.map_pairs[0][2], t.map_pairs\n"
    )
    assert proc.returncode == 0, proc.stderr


def _recorded_commands():
    """Each distinct recorded command once, with what it must reproduce."""
    seen = {}
    for entries in EXPECTED.values():
        for entry in entries:
            seen.setdefault(" ".join(entry["argv"]), entry)
    return list(seen.values())


@pytest.mark.parametrize("entry", _recorded_commands(), ids=lambda e: " ".join(e["argv"]))
def test_recorded_command_reproduces_its_bytes(entry, capsysbinary):
    code = cli.main(entry["argv"])
    captured = capsysbinary.readouterr()
    assert code == entry["exit"]
    assert captured.err.decode().strip() == entry["stderr"]
    if code == 0:
        assert hashlib.sha256(captured.out).hexdigest() == entry["sha256"]
