"""Record the outputs every benchmark check compares against.

    python3 perfbench/record_expected.py

Runs each workload's seed-0 commands once and writes expected.json: exit
code, report sha256, tables sha256, check statuses and stderr per command.
Run it only on a commit whose reports are known good; the benchmark then
counts any byte drift from them as a failed operation.
"""

from __future__ import annotations

import json
import sys

from worker import EXPECTED, import_cli, run_cli, sha256, tables_digest
from workloads import WORKLOADS, commands_for


def main() -> int:
    cli = import_cli()
    expected = {}
    for workload in WORKLOADS:
        entries = []
        for cmd in commands_for(workload, 0):
            res = run_cli(cli.main, cmd["argv"])
            if res["rc"] != cmd["exit"]:
                raise SystemExit(f"{cmd['argv']} exited {res['rc']}, not {cmd['exit']}")
            entry = {"argv": cmd["argv"], "exit": res["rc"], "stderr": res["err"].strip()}
            if res["rc"] == 0:
                report = json.loads(res["out"])
                entry.update(sha256=sha256(res["out"]),
                             tables_sha256=tables_digest(report) if "tables" in report else None,
                             checks=[[c["name"], c["status"]] for c in report["checks"]])
            entries.append(entry)
            print(workload, " ".join(cmd["argv"]), res["rc"], f"{res['seconds']:.2f}s")
        expected[workload] = entries
    EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
