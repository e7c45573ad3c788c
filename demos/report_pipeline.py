"""Driving the command-line interface programmatically and reading reports.

Every subcommand renders a report (json, csv, or md) whose bytes are
reproducible for a fixed seed and configuration, at any thread count.

Run:  python3 demos/report_pipeline.py
"""

import json
import tempfile
from pathlib import Path

from psiring import cli


def run(argv):
    """Run one command, echoing a Path argument (a file in the temp directory) by its name."""
    print(f"$ psiring {' '.join(a.name if isinstance(a, Path) else a for a in argv)}")
    code = cli.main([str(a) for a in argv])
    print(f"  -> exit {code}")
    return code


def main():
    with tempfile.TemporaryDirectory() as td:
        out = Path(td) / "report.json"

        run(["verify-theorem-a", "--n", "4", "--max-total", "4",
             "--format", "json", "--out", out])
        d = json.loads(out.read_text())
        print(f"  overall: {d['overall']}")
        for c in d["checks"]:
            print(f"    {c['name']}: {c['status']} ({c['anchor']})")

        print()
        run(["sample", "--n", "4", "--count", "3", "--seed", "5",
             "--format", "json", "--out", out])
        d = json.loads(out.read_text())
        pt = d["payload"]["points"][0]
        print(f"  first sampled point: z = {pt['z']}, vanishing = {pt['vanishing']}")

        print()
        print("byte determinism across thread counts:")
        blobs = []
        for threads in ("1", "8"):
            run(["hilbert", "verify", "--n", "4", "--max-total", "4",
                 "--threads", threads, "--format", "json", "--out", out])
            blobs.append(out.read_bytes())
        print(f"  identical bytes: {blobs[0] == blobs[1]}")

        print()
        print("usage errors exit 2 and print a reason on stderr:")
        run(["hilbert", "lee", "--n", "2", "--kind", "an"])


if __name__ == "__main__":
    main()
