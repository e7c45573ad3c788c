"""One pass over a workload in a fresh interpreter.

Started by run.py, once per pass, so every pass pays what a CLI user pays on
every invocation: interpreter start, imports, and cold lru caches.  It runs
the workload's commands back to back, in-process through psiring.cli.main,
checks every output, and prints one JSON object on stdout.

    python3 perfbench/worker.py --workload W --seed N --t0 T --mode plain|traced|memory

T is time.monotonic() taken by the parent just before it started this process
(CLOCK_MONOTONIC is system-wide on Linux), so setup_s covers interpreter start.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import io
import json
import re
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np  # imported before setup_s is taken, so part of what it measures

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"


def import_cli():
    """psiring.cli from this checkout's src/, never from an installed copy."""
    if not (SRC / "psiring" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no psiring sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from psiring import cli

    if Path(cli.__file__).resolve().parent != SRC / "psiring":
        raise SystemExit(f"perfbench: imported psiring from {cli.__file__}, not {SRC}")
    return cli


def run_cli(main, argv: list[str]) -> dict:
    """Run one command in-process; capture report bytes, stderr, exit code and time."""
    out = io.BytesIO()
    sink = io.TextIOWrapper(out, encoding="utf-8")
    err = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = sink, err
    crash = None
    t = time.perf_counter()
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        rc = exc.code
    except Exception:  # a crash is a failed operation, not the end of the benchmark
        rc, crash = None, traceback.format_exc()
    finally:
        seconds = time.perf_counter() - t
        sys.stdout, sys.stderr = saved
    sink.flush()
    return {"rc": rc, "seconds": seconds, "out": out.getvalue(),
            "err": err.getvalue(), "crash": crash}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tables_digest(report: dict) -> str:
    return sha256(json.dumps(report.get("tables"), sort_keys=True).encode())


def check(cmd: dict, want: dict, res: dict) -> str | None:
    """None when the output is right, else the reason it is wrong.

    Every command must exit as expected.  A report must pass overall and carry
    the recorded check statuses.  Its bytes must equal the recorded ones when
    the argv is the recorded one; a seed-drawn argv must still reproduce the
    recorded tables (slice tables do not depend on the pivot).  A budget
    refusal must carry its estimate, which exceeds the stated budget.
    """
    if res["crash"]:
        return "crashed: " + res["crash"].strip().splitlines()[-1]
    if res["rc"] != cmd["exit"]:
        return f"exit {res['rc']}, expected {cmd['exit']}: {res['err'].strip()[:200]}"
    if cmd["exit"] == 2:
        msg = res["err"].strip()
        if want["stderr"].startswith("psiring: refused:"):
            budget = re.search(r"budget (\d+)", msg)
            nums = [int(x) for x in re.findall(r"\d+", msg)]
            if not (msg.startswith("psiring: refused:") and budget
                    and any(x > int(budget.group(1)) for x in nums)):
                return f"refusal without an estimate above the budget: {msg[:200]}"
        elif not msg.startswith("psiring: error:"):
            return f"expected a usage error, got: {msg[:200]}"
        return None
    try:
        report = json.loads(res["out"])
    except ValueError:
        return "report is not JSON"
    if report.get("overall") != "pass":
        return f"overall {report.get('overall')!r}"
    checks = [[c["name"], c["status"]] for c in report.get("checks", [])]
    if checks != want["checks"]:
        return f"checks {checks} != recorded {want['checks']}"
    if cmd["argv"] == want["argv"]:
        if sha256(res["out"]) != want["sha256"]:
            return "report bytes differ from the recorded ones"
    elif want.get("tables_sha256") and tables_digest(report) != want["tables_sha256"]:
        return "report tables differ from the recorded ones"
    return None


# Seconds the reference loop takes at the reference speed (its typical best on
# the reference box, 2 shared vCPUs); every timing is scaled to this speed.
REFERENCE_S = 0.03


@functools.cache
def _reference_buffers() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reference matrix and two work buffers of its shape, 8 MiB each.

    Made on first use, so that a memory pass never holds them, and reused, so
    that the loop never allocates: its time must not depend on the state
    psiring's own allocations left the allocator in.
    """
    matrix = np.random.default_rng(0).integers(0, 32003, size=(1024, 1024)).astype(float)
    return matrix, np.empty_like(matrix), np.empty_like(matrix)


def reference_seconds() -> float:
    """Best of two runs of a fixed loop: the host's speed of the moment.

    About half of the loop is pure Python like psiring's hot paths (tuple
    keys, dict updates, int arithmetic), half is numpy like its dense lanes
    (one step of row elimination mod p on an 8 MiB float64 matrix, larger
    than the L2 cache, so that it feels the memory contention the dense lanes
    feel; no BLAS).  It touches no psiring code, so no change to psiring
    moves it; the garbage collector is off meanwhile, because a full
    collection would cost in proportion to the objects psiring keeps alive.
    """
    matrix, a, t = _reference_buffers()
    best = float("inf")
    gc.disable()
    try:
        for _ in range(2):
            start = time.perf_counter()
            acc: dict[tuple[int, int], int] = {}
            for i in range(40_000):
                key = (i % 97, i % 89)
                acc[key] = acc.get(key, 0) + i * i % 1_000_003
            np.copyto(a, matrix)
            np.multiply(a[1:, :1], a[:1], out=t[1:])
            np.subtract(a[1:], t[1:], out=a[1:])
            np.divide(a, 32003.0, out=t)
            np.floor(t, out=t)
            np.multiply(t, 32003.0, out=t)
            np.subtract(a, t, out=a)
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def schedule(cmds: list[dict]) -> list[list[int]]:
    """Command indices in run order, in slots of one command that should exit 0 each.

    The commands that should exit 0 run in their listed order.  A refusal
    probe's repeats are spread over the pass, an equal share in the slot of
    each of them (the remainder in the last ones): host speed on a shared box
    drifts within seconds, and a probe of milliseconds run in one burst would
    measure the drift rather than the probe.
    """
    work = [i for i, c in enumerate(cmds) if c["exit"] == 0]
    probes = [i for i, c in enumerate(cmds) if c["exit"] != 0]
    slots = []
    for slot, i in enumerate(work):
        order = [i]
        for j in probes:
            reps = cmds[j]["repeat"]
            share = reps // len(work) + (slot >= len(work) - reps % len(work))
            order += [j] * share
        slots.append(order)
    return slots


def run_pass(main, cmds: list[dict], expected: list[dict], tracer=None,
             reference=reference_seconds) -> tuple[list[dict], list[float]]:
    """Run every slot; return per-command results and the reference times.

    The reference loop runs before the first slot and after each one.  A
    command's scaled time is its time times REFERENCE_S over the mean of the
    reference times on either side of its slot.
    """
    results = [{"argv": c["argv"], "exit": c["exit"], "times": [], "scaled": [],
                "failures": [], "digest": None} for c in cmds]
    refs = [reference()]
    for slot in schedule(cmds):
        raw = []
        for idx in slot:
            if tracer is not None:
                tracer.run_id = idx
            res = run_cli(main, cmds[idx]["argv"])
            raw.append((idx, res["seconds"]))
            out = results[idx]
            why = check(cmds[idx], expected[idx], res)
            if why:
                out["failures"].append(why)
            out["digest"] = out["digest"] or sha256(res["out"] + res["err"].encode())
        refs.append(reference())
        scale = REFERENCE_S / ((refs[-2] + refs[-1]) / 2)
        for idx, seconds in raw:
            results[idx]["times"].append(seconds)
            results[idx]["scaled"].append(seconds * scale)
    return results, refs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--mode", choices=["plain", "traced", "memory"], required=True,
                    help="memory: no reference loop, so that peak_rss_mib is psiring's own")
    ap.add_argument("--serial-baseline", action="store_true",
                    help="traced mode: rerun each threaded map at --threads 1 first")
    ap.add_argument("--spans", default=None, help="traced mode: write spans here (JSON lines)")
    args = ap.parse_args()

    cli = import_cli()
    from workloads import commands_for

    cmds = commands_for(args.workload, args.seed)
    expected = json.loads(EXPECTED.read_text())[args.workload]
    if len(expected) != len(cmds):
        raise SystemExit("perfbench: expected.json does not match the workload's commands")
    out = {"setup_s": time.monotonic() - args.t0}

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer(serial_baseline=args.serial_baseline)
        tracer.install()
    # the reference loop's buffers (24 MiB) would add to the peak
    reference = (lambda: REFERENCE_S) if args.mode == "memory" else reference_seconds
    out["commands"], out["reference_s"] = run_pass(cli.main, cmds, expected, tracer, reference)
    out["setup_scaled_s"] = out["setup_s"] * REFERENCE_S / out["reference_s"][0]
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["serial_equal"] = all(eq for _, _, eq in tracer.map_pairs)
        if args.spans:
            tracer.write(args.spans)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
