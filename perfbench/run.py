"""psiring benchmark: closed loop, one client, fresh interpreter per pass.

    python3 perfbench/run.py --workload slice_sweep --seed 0 --seconds 35 --trace 0

Each pass starts worker.py in a fresh interpreter, which runs the workload's
CLI commands back to back, in-process through psiring.cli.main, and checks
every output.  Passes repeat until --seconds have passed (at least three).

--trace 0 prints the end-to-end metrics: setup_s (interpreter start until
psiring, numpy and the workload's inputs and expected outputs are ready;
median over the passes), wall_s (the commands that should exit 0, each at
its median over the passes), refuse_s (the refusal probes, which should exit
2, each at its median over every repeat in the run) and peak_rss_mib (peak
resident memory of the run's first pass, which runs without the reference
loop below and is not timed).  fail_frac, the share of commands whose output
was wrong, is printed above the result line.

Every timing is in seconds at the reference speed.  The speed of a shared
host drifts by a quarter and more over minutes, the same for every command,
so each pass also times a fixed reference loop (worker.reference_seconds)
before its first command and after each command that should exit 0 with the
probe repeats that follow it, and scales each time by REFERENCE_S over the
loop's time around it (set-up by the loop's time just after it).  The raw
seconds are printed beside the scaled ones.

--trace 1 alternates traced and untraced passes and prints the per-layer
metrics from the traced ones (see tracer.py): timings as medians, counts,
which must repeat exactly between traced passes, and trace.overhead_s, the
traced minus the untraced wall_s.  The first traced pass also runs each
threaded map once at --threads 1 for util.parallel_speedup, so it is left
out of trace.overhead_s.

Every pass of one run must produce the same report bytes, traced or not.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import LAYER_UNITS  # noqa: E402
from worker import REFERENCE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "refuse_s": "s", "peak_rss_mib": "MiB"}
MIN_PASSES = 3
DEADLINE_S = 165  # a run must exit within 180 s
# one BLAS thread, so that BLAS work tracks the single-threaded reference loop
# (worker.reference_seconds); --threads is each command's own flag
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Run:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.start = time.monotonic()
        self.errors: list[str] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def worker(self, mode: str, *extra: str) -> dict | None:
        """One fresh interpreter; None (and an error) if it crashed or timed out."""
        env = dict(os.environ, **ENV)
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--t0", repr(t0), "--mode", mode, *extra]
        timeout = max(5.0, DEADLINE_S + 10 - self.elapsed())
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                                  timeout=timeout, cwd=ROOT)
        except subprocess.TimeoutExpired:
            self.errors.append(f"{mode} pass timed out after {timeout:.0f} s")
            return None
        if proc.returncode != 0:
            self.errors.append(f"{mode} pass exited {proc.returncode}: "
                               + proc.stderr.strip()[-500:])
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])


def wall_seconds(res: dict) -> float:
    """Seconds of one pass's commands that should exit 0, at the reference speed."""
    return sum(sum(c["scaled"]) for c in res["commands"] if c["exit"] == 0)


def command_times(passes: list[dict], key: str = "scaled"
                  ) -> list[tuple[list[str], int, list[float]]]:
    """(argv, expected exit, every timing in every pass) per command.

    key "scaled" gives the times at the reference speed, "times" the raw ones.
    """
    return [(c["argv"], c["exit"], [t for p in passes for t in p["commands"][i][key]])
            for i, c in enumerate(passes[0]["commands"])]


def total(passes: list[dict], refusals: bool, pick, key: str = "scaled") -> float:
    """Sum over the work commands (or the refusal probes) of pick(each one's times)."""
    return sum(pick(ts) for _, code, ts in command_times(passes, key) if bool(code) == refusals)


def tally(passes: list[dict]) -> tuple[int, list[str]]:
    """(commands attempted, failure messages), and byte identity across passes."""
    attempted, failures = 0, []
    for res in passes:
        for c in res["commands"]:
            attempted += len(c["times"])
            failures += [f"{' '.join(c['argv'])}: {why}" for why in c["failures"]]
    for idx, first in enumerate(passes[0]["commands"]):
        if any(res["commands"][idx]["digest"] != first["digest"] for res in passes[1:]):
            failures.append(f"{' '.join(first['argv'])}: output differs between passes")
            attempted += 1
    return attempted, failures


def describe(name: str, values: list[float], unit: str) -> str:
    med = statistics.median(values)
    return (f"  {name:<14} {med:10.4f} {unit:<4} median of {len(values)}"
            f" (min {min(values):.4f}, max {max(values):.4f})")


def measure(run: Run, seconds: float) -> tuple[dict, list[dict]]:
    memory = run.worker("memory")
    if memory is None:
        return {}, []
    passes: list[dict] = []
    longest = 0.0
    while len(passes) < MIN_PASSES or run.elapsed() < seconds:
        if run.elapsed() + 1.5 * longest > DEADLINE_S:
            break
        t = time.monotonic()
        res = run.worker("plain")
        if res is None:
            break
        longest = max(longest, time.monotonic() - t)
        passes.append(res)
    if not passes:
        return {}, [memory]
    samples = {"setup_s": [p["setup_scaled_s"] for p in passes]}
    refs = [r for p in passes for r in p["reference_s"]]
    print(f"{run.workload} seed={run.seed}: {len(passes)} passes; reference loop"
          f" {statistics.median(refs):.4f} s median, {min(refs):.4f} to {max(refs):.4f}"
          f" (scaled to {REFERENCE_S} s)")
    raw = {tuple(argv): ts for argv, _, ts in command_times(passes, "times")}
    for argv, code, ts in command_times(passes):
        print(f"    {statistics.median(ts):9.4f} s median of {len(ts):<4} (raw"
              f" {statistics.median(raw[tuple(argv)]):.4f} s)  {' '.join(argv)}"
              f"{'  (refusal probe)' if code else ''}")
    metrics = {n: statistics.median(v) for n, v in samples.items()}
    metrics["wall_s"] = total(passes, False, statistics.median)
    metrics["refuse_s"] = total(passes, True, statistics.median)
    metrics["peak_rss_mib"] = memory["peak_rss_mib"]
    for name, refusals in (("wall_s", False), ("refuse_s", True)):
        print(f"  {name:<14} {metrics[name]:10.4f} s    sum of the medians above (raw"
              f" {total(passes, refusals, statistics.median, 'times'):.4f} s)")
    print(describe("setup_s", samples["setup_s"], "s")
          + f" (raw {statistics.median(p['setup_s'] for p in passes):.4f} s)")
    print(f"  {'peak_rss_mib':<14} {metrics['peak_rss_mib']:10.4f} MiB  of the first pass,"
          f" which runs without the reference loop")
    return metrics, [memory] + passes


def measure_traced(run: Run, seconds: float) -> tuple[dict, list[dict]]:
    OUT.mkdir(exist_ok=True)
    traced: list[dict] = []
    plain: list[dict] = []
    longest = 0.0
    while len(traced) < 2 or not plain or run.elapsed() < seconds:
        if run.elapsed() + 1.5 * longest > DEADLINE_S:
            break
        t = time.monotonic()
        if len(plain) < len(traced):
            res = run.worker("plain")
            if res is None:
                break
            plain.append(res)
        else:
            spans = OUT / f"spans-{run.workload}-{run.seed}-{len(traced)}.jsonl"
            extra = ["--spans", str(spans)] + (["--serial-baseline"] if not traced else [])
            res = run.worker("traced", *extra)
            if res is None:
                break
            traced.append(res)
        longest = max(longest, time.monotonic() - t)
    if len(traced) < 2 or not plain:
        run.errors.append("too few passes for a traced run")
        return {}, traced + plain
    first = traced[0]["layers"]
    for res in traced[1:]:
        for name, value in res["layers"].items():
            if LAYER_UNITS[name] != "s" and name != "util.parallel_speedup" \
                    and value != first[name]:
                run.errors.append(f"{name} differs between traced passes:"
                                  f" {first[name]} != {value}")
    if not traced[0]["serial_equal"]:
        run.errors.append("threaded map results differ from the --threads 1 baseline")
    metrics = {}
    for name in LAYER_UNITS:
        if name == "trace.overhead_s":
            continue
        if LAYER_UNITS[name] == "s":
            metrics[name] = statistics.median(r["layers"][name] for r in traced)
        else:
            metrics[name] = first[name]
    # the first traced pass also ran the serial baseline inside its commands: leave it out
    traced_wall = [wall_seconds(r) for r in traced[1:]]
    plain_wall = [wall_seconds(r) for r in plain]
    metrics["trace.overhead_s"] = (total(traced[1:], False, statistics.median)
                                   - total(plain, False, statistics.median))
    print(f"{run.workload} seed={run.seed}: {len(traced)} traced, {len(plain)} untraced passes;"
          f" spans in {OUT.relative_to(ROOT)}")
    print(describe("wall_s traced", traced_wall, "s"))
    print(describe("wall_s plain", plain_wall, "s"))
    return metrics, traced + plain


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "psiring" / "cli.py").is_file():
        print(f"perfbench: no psiring sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    if args.trace:
        metrics, passes = measure_traced(run, args.seconds)
        units = LAYER_UNITS
    else:
        metrics, passes = measure(run, args.seconds)
        units = END_TO_END_UNITS
    if not metrics:
        for e in run.errors:
            print(f"perfbench: {e}", file=sys.stderr)
        return 1
    attempted, failures = tally(passes)
    attempted += len(run.errors)  # a pass that crashed outside any command
    failures += run.errors
    failed = len(failures)
    for why in failures:
        print(f"  FAILED {why}")
    print(f"  {'fail_frac':<14} {failed / attempted:10.4f} 1    ({failed} of {attempted} commands)")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
