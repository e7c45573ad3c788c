"""Acceptance gate: nine quantitative criteria, each printing one verdict line.

Every comparison is exact (integer or rational equality, byte equality for
the determinism criterion).  Criterion 8 downgrades a dual-dimension mismatch
to INFORMATIVE as long as the structural quadratic count holds; everything
else is a hard pass/fail.
"""

import time
from functools import lru_cache

from psiring import cli
from psiring.geometry import (
    alpha_values,
    channels_consistent,
    jacobian_rank_at,
    pole_table,
    sample_config,
    singular_locus_dim,
    verify_vanishing,
)
from psiring.groebner import groebner_for, krull_dimension
from psiring.koszul import b2_structural, dual_tower, koszul_prediction
from psiring.rng import SplitMix64
from psiring.series import (
    curve_module_series,
    degree_grid,
    lee_series,
    lee_series_restricted,
)
from psiring.slices import slice_dimension, standard_monomial_count
from psiring.util import parallel_map
from conftest import cached_an, cached_bnm, record_acceptance

GF = 32003
SEED = 20260819

# the grids of criterion 1, shared verbatim by criterion 5
GRIDS = {4: 6, 5: 5, 6: 3}


def emit(num, desc, ok, informative=False):
    status = "PASS" if ok else ("INFORMATIVE" if informative else "FAIL")
    line = f"criterion {num}: {status} - {desc}"
    print(line)
    record_acceptance(line)
    return ok or informative


@lru_cache(maxsize=None)
def slice_dims(n, limit):
    """(degree -> slice dimension) for A_n over the full grid |a| <= limit."""
    spec = cached_an(n)
    grid = degree_grid(n, limit)
    reps = parallel_map(lambda a: slice_dimension(spec, a), grid, threads=8)
    return dict(zip(grid, (r.dimension for r in reps)))


@lru_cache(maxsize=None)
def config_seeds(count):
    rng = SplitMix64(SEED)
    return tuple(rng.next_u64() for _ in range(count))


def test_criterion_1_slice_dimensions_match_series():
    t0 = time.perf_counter()
    bad = []
    for n, limit in GRIDS.items():
        series = lee_series(n, limit)
        for a, dim in slice_dims(n, limit).items():
            if dim != series[a]:
                bad.append((n, a, dim, series[a]))
    npoints = sum(len(slice_dims(n, l)) for n, l in GRIDS.items())
    ok = emit(1, f"graded slice dimension equals the series coefficient at "
                 f"{npoints} multidegrees, n in {sorted(GRIDS)} "
                 f"({time.perf_counter() - t0:.1f}s)", not bad)
    assert ok, bad[:5]


def test_criterion_2_pointwise_anchors():
    bad = []
    for n in range(3, 8):
        s = lee_series(n, 2)
        for i in range(n):
            e = tuple(1 if t == i else 0 for t in range(n))
            if s[e] != n - 2:
                bad.append((n, e))
            for j in range(i + 1, n):
                p = tuple(1 if t in (i, j) else 0 for t in range(n))
                if s[p] != (n - 2) ** 2 - (n - 3):
                    bad.append((n, p))
    s3 = lee_series(3, 8)
    bad += [(3, a) for a in s3 if s3[a] != 1]
    ok = emit(2, "unit and pair anchors for 3 <= n <= 7; all-ones table at n = 3",
              not bad)
    assert ok, bad[:5]


def test_criterion_3_restricted_family_dimensions():
    t0 = time.perf_counter()
    bad = []
    for n, m in [(2, 2), (3, 1), (3, 2), (4, 1)]:
        spec = cached_bnm(n, m)
        series = lee_series_restricted(n, m, 5)
        grid = degree_grid(n, 5)
        reps = parallel_map(lambda a: slice_dimension(spec, a), grid, threads=8)
        for a, rep in zip(grid, reps):
            if rep.dimension != series[a]:
                bad.append((n, m, a))
    conifold = lee_series_restricted(2, 2, 5)
    bad += [("conifold", a) for a in conifold
            if conifold[a] != a[0] + a[1] + 1]
    ok = emit(3, "restricted-family slices match the series for four (n, m) "
                 f"pairs at |a| <= 5; conifold is a+b+1 "
                 f"({time.perf_counter() - t0:.1f}s)", not bad)
    assert ok, bad[:5]


def test_criterion_4_curve_module_factorization():
    bad = []
    for n in (4, 5):
        cm = curve_module_series(n, 6)
        rs = lee_series_restricted(n - 1, 1, 6)
        for a in cm:
            if cm[a] != rs[a]:
                bad.append((n, a))
    ok = emit(4, "curve-module series factors through the one-extra-point "
                 "series for n = 4, 5 at |a| <= 6", not bad)
    assert ok, bad[:5]


def test_criterion_5_groebner_triple_agreement():
    t0 = time.perf_counter()
    bad = []
    for n in (4, 5):
        limit = GRIDS[n]
        spec = cached_an(n, GF)
        gb = groebner_for(spec)
        series = lee_series(n, limit)
        dims = slice_dims(n, limit)
        for a in degree_grid(n, limit):
            std = standard_monomial_count(gb, spec, a)
            if not (std == dims[a] == series[a]):
                bad.append((n, a, std, dims[a], series[a]))
    krull = {
        "A4": krull_dimension(groebner_for(cached_an(4, GF))),
        "A5": krull_dimension(groebner_for(cached_an(5, GF))),
        "B22": krull_dimension(groebner_for(cached_bnm(2, 2, GF))),
    }
    if krull != {"A4": 5, "A5": 7, "B22": 3}:
        bad.append(("krull", krull))
    ok = emit(5, "standard monomials == slice dimension == series coefficient "
                 f"on the criterion-1 grids; Krull dimensions 5/7/3 "
                 f"({time.perf_counter() - t0:.1f}s)", not bad)
    assert ok, bad[:5]


def test_criterion_6_vanishing_oracle():
    t0 = time.perf_counter()
    bad = []
    families = [("A4", cached_an(4)), ("A5", cached_an(5)),
                ("B31", cached_bnm(3, 1)), ("B22", cached_bnm(2, 2))]
    seeds = config_seeds(100)

    for label, spec in families:
        def check(seed, spec=spec, label=label):
            den, poles = pole_table(sample_config(spec.n, spec.m, seed))
            vals = alpha_values(spec, (den, poles))
            errs = []
            if verify_vanishing(spec, vals):
                errs.append((label, seed, "vanishing"))
            if spec.m == 0 and not channels_consistent(poles):
                errs.append((label, seed, "channels"))
            return errs
        for errs in parallel_map(check, list(seeds), threads=8):
            bad.extend(errs)

    # random integer points must fail: five per family, twenty in all
    rng = SplitMix64(SEED + 1)
    for label, spec in families:
        for _ in range(5):
            vals = [rng.randint(-9, 9) for _ in range(spec.nvars)]
            if not verify_vanishing(spec, (1, vals)):
                bad.append((label, "off-variety point satisfied all relations"))

    ok = emit(6, "100 sampled configurations vanish per family with channel "
                 "consistency; 20 off-variety points fail "
                 f"({time.perf_counter() - t0:.1f}s)", not bad)
    assert ok, bad[:5]


def test_criterion_7_smoothness():
    t0 = time.perf_counter()
    bad = []
    for n in (4, 5):
        spec = cached_an(n)
        want = (n - 1) * (n - 3)
        def rank_of(seed, spec=spec):
            table = pole_table(sample_config(spec.n, 0, seed))
            return jacobian_rank_at(spec, alpha_values(spec, table))
        for seed, rank in zip(config_seeds(100),
                              parallel_map(rank_of, list(config_seeds(100)), threads=8)):
            if rank != want:
                bad.append((n, seed, rank, want))
    s22 = singular_locus_dim(cached_bnm(2, 2, GF))
    if s22.singular_dim != 0:
        bad.append(("B22 singular dim", s22.singular_dim))
    s4 = singular_locus_dim(cached_an(4, GF))
    if s4.singular_dim > 0:
        bad.append(("A4 singular dim", s4.singular_dim))
    ok = emit(7, "Jacobian rank is (n-1)(n-3) at all sampled points; singular "
                 "locus dimensions 0 (conifold) and <= 0 (four points) "
                 f"({time.perf_counter() - t0:.1f}s)", not bad)
    assert ok, bad[:5]


def test_criterion_8_dual_dimension_tower():
    # a tower mismatch is a reportable finding, not a failure, as long as
    # the structural quadratic count holds; a broken count is a hard failure
    t0 = time.perf_counter()
    b2_bad = [n for n in range(3, 9) if b2_structural(n) != koszul_prediction(n, 2)[2]]
    mismatches = []
    for n, kmax in [(4, 4), (5, 3)]:
        tower = dual_tower(n, kmax)
        pred = koszul_prediction(n, kmax)
        if tower != pred:
            mismatches.append((n, tower, pred))
    ok = emit(8, "quadratic count holds for 3 <= n <= 8; dual dimensions match "
                 "the inverted series for n = 4 (k <= 4) and n = 5 (k <= 3) "
                 f"({time.perf_counter() - t0:.1f}s)",
              not b2_bad and not mismatches, informative=not b2_bad)
    assert ok, (b2_bad, mismatches)


def test_criterion_9_thread_count_invariance(tmp_path):
    t0 = time.perf_counter()
    battery = [
        ["hilbert", "verify", "--n", "4", "--max-total", "4"],
        ["hilbert", "verify", "--kind", "bnm", "--n", "2", "--m", "2", "--max-total", "4"],
        ["verify-theorem-a", "--n", "4", "--max-total", "4"],
        ["sample", "--n", "4", "--count", "20"],
        ["sample", "--kind", "bnm", "--n", "2", "--m", "2", "--count", "10"],
        ["singular", "--n", "4"],
        ["koszul", "--n", "4", "--kmax", "3"],
        ["gb", "run", "--n", "4"],
    ]
    bad = []
    for i, argv in enumerate(battery):
        blobs = []
        for threads in ("1", "8"):
            out = tmp_path / f"r{i}_{threads}.json"
            code = cli.main(argv + ["--seed", str(SEED), "--threads", threads,
                                    "--format", "json", "--out", str(out)])
            if code != 0:
                bad.append((argv, "exit", code))
            blobs.append(out.read_bytes())
        if blobs[0] != blobs[1]:
            bad.append((argv, "bytes differ"))
    ok = emit(9, f"{len(battery)} report commands byte-identical at --threads "
                 f"1 and 8 ({time.perf_counter() - t0:.1f}s)", not bad)
    assert ok, bad
