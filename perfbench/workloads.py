"""The benchmark's workloads: fixed lists of psiring CLI commands, and the seed rule.

Each workload times one of the three independent exact routes, so that a
speed-up of one route cannot hide a slowdown of another.

Seed rule.  Seed 0 runs every command exactly as listed: cyclic pivot and the
CLI's default --seed, so numbers line up with the ROADMAP baseline.  Any other
seed draws, in command order, a custom pivot derangement for every command
marked ``pivot`` and a --seed for every command marked ``seeded``.  The
commands that dominate a workload's wall_s or refuse_s keep the cyclic pivot
on every seed: the pivot changes how much work they do (``gb run --n 5`` took
0.16 to 0.22 s over four pivots, ``gb run --n 6`` 6.7 to 12.4 s), so a
seed-drawn pivot there would measure the draw rather than the code.
"""

from __future__ import annotations

import random

WORKLOADS: dict[str, dict] = {
    "slice_sweep": {
        "why": "slice ranks against the product formula (A(5), B(3,2), B(3,3)), narrow slices"
               " confirmed rationally, wide at a second prime; slices, exactla, series, util",
        "commands": [
            # --threads 1: on two shared vCPUs the thread pool measures the neighbours
            {"argv": ["hilbert", "verify", "--n", "5", "--max-total", "5", "--threads", "1"]},
            {"argv": ["hilbert", "verify", "--kind", "bnm", "--n", "3", "--m", "2",
                      "--max-total", "6", "--threads", "1"]},
            # six slices wider than RATIONAL_VERIFY_MAX_COLS, confirmed at a second prime
            {"argv": ["hilbert", "verify", "--kind", "bnm", "--n", "3", "--m", "3",
                      "--max-total", "5", "--threads", "1"]},
            # the threaded map, where process sharding would show
            {"argv": ["hilbert", "verify", "--n", "5", "--max-total", "4", "--threads", "2"],
             "pivot": True},
            # hilbert has no budget yet, so its only refusal is of bad input; the probe
            # is a few milliseconds, hence the repeats
            {"argv": ["hilbert", "verify", "--n", "5", "--max-total", "-1"],
             "exit": 2, "repeat": 60},
        ],
    },
    "groebner": {
        "why": "Buchberger and normal_form dominate (gb run, singular via minors);"
               " sample exercises geometry; exactla, slices and koszul sit idle",
        "commands": [
            {"argv": ["gb", "run", "--n", "5"]},
            {"argv": ["gb", "run", "--n", "5"], "pivot": True},
            {"argv": ["singular", "--n", "4"]},
            {"argv": ["sample", "--n", "5", "--count", "200"], "pivot": True, "seeded": True},
            {"argv": ["singular", "--n", "5"], "exit": 2, "repeat": 4},
        ],
    },
    "koszul_tower": {
        "why": "dense float64 panel lane and BLAS mod_matmul build the dual tower; memory peaks"
               " here and the probe shows how late the budget check fires",
        # koszul ignores --pivot (a known defect), so no input here depends on the seed
        "commands": [
            {"argv": ["koszul", "--n", "5", "--kmax", "3"]},
            {"argv": ["koszul", "--n", "4", "--kmax", "4"]},
            {"argv": ["koszul", "--n", "5", "--kmax", "4"], "exit": 2},
        ],
    },
}


def _derangement(n: int, rng: random.Random) -> list[int]:
    """A uniformly drawn permutation of 1..n without fixed points (p(i) != i)."""
    while True:
        perm = list(range(1, n + 1))
        for i in range(n - 1, 0, -1):
            j = rng.randrange(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        if all(p != i for i, p in enumerate(perm, start=1)):
            return perm


def commands_for(workload: str, seed: int) -> list[dict]:
    """The workload's commands for this seed: argv, expected exit code, repeats."""
    rng = random.Random(seed)
    out = []
    for spec in WORKLOADS[workload]["commands"]:
        argv = list(spec["argv"])
        if seed and spec.get("pivot"):
            n = int(argv[argv.index("--n") + 1])
            argv += ["--pivot", "custom:" + ",".join(map(str, _derangement(n, rng)))]
        if seed and spec.get("seeded"):
            argv += ["--seed", str(rng.randrange(1, 1 << 32))]
        out.append({"argv": argv, "exit": spec.get("exit", 0), "repeat": spec.get("repeat", 1)})
    return out
