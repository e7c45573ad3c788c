"""Pole-value points on the varieties: vanishing, the torus action, channel
independence, Jacobian ranks, and singular-locus dimension bounds.
"""

import hashlib
from fractions import Fraction
from math import lcm

import pytest

from psiring import cli, geometry
from psiring.errors import BudgetError, UsageError
from psiring.geometry import (
    PointConfig,
    alpha_values,
    channels_consistent,
    cij_values,
    jacobian_rank_at,
    pole_table,
    sample_config,
    singular_locus_dim,
    singular_minors,
    verify_vanishing,
)
from psiring.presentation import relation_polys
from psiring.rng import SplitMix64
from conftest import cached_an, cached_bnm, poly_derivative, poly_evaluate

GF = 32003


def pole_value(cfg, i, j):
    """The reference pole value in Fraction arithmetic: atilde(i,j) = lam_i /
    (p_j - z_i), 1-based indices, p the points z followed by q."""
    return cfg.lam[i - 1] / ((cfg.z + cfg.q)[j - 1] - cfg.z[i - 1])


def sampled_point(spec, seed):
    return alpha_values(spec, pole_table(sample_config(spec.n, spec.m, seed)))


def fractions(point):
    """The coordinates of a point (den, numerators)."""
    den, nums = point
    return [Fraction(x, den) for x in nums]


def cleared(values):
    """The point with these rational coordinates, as (den, numerators)."""
    den = lcm(*(Fraction(v).denominator for v in values))
    return den, [int(Fraction(v) * den) for v in values]


def test_worked_configuration():
    cfg = PointConfig(z=(Fraction(0), Fraction(1), Fraction(2), Fraction(3)),
                      q=(), lam=(Fraction(1),) * 4)
    spec = cached_an(4)
    point = alpha_values(spec, pole_table(cfg))
    vals = dict(zip(spec.var_names(), fractions(point)))
    # atilde(1,3) = 1/(z3 - z1) = 1/2; pivot of 1 is 2, atilde(1,2) = 1
    assert pole_value(cfg, 1, 3) == Fraction(1, 2)
    assert vals["a[1,3]"] == Fraction(1, 2) - Fraction(1, 1)
    assert verify_vanishing(spec, point) == []
    assert verify_vanishing(spec, cleared(vals.values())) == []


@pytest.mark.parametrize("build,seeds", [
    (lambda: cached_an(4), (1, 2, 3)),
    (lambda: cached_an(5), (4, 5)),
    (lambda: cached_bnm(3, 1), (6, 7)),
    (lambda: cached_bnm(2, 2), (8, 9)),
    (lambda: cached_bnm(3, 2), (10,)),
])
def test_sampled_points_vanish(build, seeds):
    spec = build()
    for seed in seeds:
        vals = sampled_point(spec, seed)
        assert verify_vanishing(spec, vals) == [], (spec.name(), seed)


def test_off_variety_points_fail():
    spec = cached_an(4)
    rng = SplitMix64(0xDEAD)
    hits = 0
    for _ in range(20):
        vals = [rng.randint(-9, 9) for _ in range(spec.nvars)]
        if verify_vanishing(spec, (1, vals)):
            hits += 1
    assert hits == 20  # random integer points essentially never satisfy all quadrics


def test_vanishing_requires_rationals():
    spec = cached_an(4, GF)
    with pytest.raises(UsageError):
        verify_vanishing(spec, (1, [1] * spec.nvars))


def test_torus_scaling_stays_on_variety():
    spec = cached_an(5)
    vals = fractions(sampled_point(spec, 77))
    t = (Fraction(3, 2), Fraction(-1), Fraction(2), Fraction(1, 7), Fraction(5))
    # the torus multiplies each variable by the factor of its block; the
    # relations are multihomogeneous, so the orbit stays on the variety
    scaled = [v * t[b] for v, b in zip(vals, spec.blocks)]
    assert scaled != vals
    assert verify_vanishing(spec, cleared(scaled)) == []


@pytest.mark.parametrize("n", [4, 5, 6])
def test_channel_independence(n):
    rng = SplitMix64(123)
    for _ in range(4):
        assert channels_consistent(pole_table(sample_config(n, 0, rng.next_u64()))[1])


@pytest.mark.parametrize("n", [4, 5])
def test_channel_witness_detects_perturbation(n):
    den, poles = pole_table(sample_config(n, 0, 9))
    assert channels_consistent(poles)
    poles[1, 2] += den  # adds 1 to atilde(1,2)
    assert not channels_consistent(poles)


@pytest.mark.parametrize("z,lam,match", [
    ((0, 1, 1, 3), (1, 1, 1, 1), "pairwise distinct"),
    ((0, 1, 2, 3), (1, 0, 1, 1), "nonzero"),
    ((0, 1, 2, 3), (1, 1, 1), "one weight per marked point"),
], ids=["repeated-point", "zero-weight", "missing-weight"])
def test_invalid_configuration_is_refused(z, lam, match):
    # a repeated point divides by zero in the pole table, a zero weight
    # zeroes a row of it, and a missing weight leaves a row without one, so
    # all are refused before any pole value is read; the coordinates and the
    # channel check read only a built table
    cfg = PointConfig(z=tuple(map(Fraction, z)), q=(), lam=tuple(map(Fraction, lam)))
    with pytest.raises(UsageError, match=match):
        pole_table(cfg)


def rational_config(n, m, rng):
    """Distinct fractional points and fractional weights of either sign."""
    pts = []
    while len(pts) < n + m:
        x = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        if x not in pts:
            pts.append(x)
    lam = tuple(Fraction(rng.nonzero_int(20), rng.randint(1, 9)) for _ in range(n))
    return PointConfig(z=tuple(pts[:n]), q=tuple(pts[n:]), lam=lam)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_pole_table_matches_the_fraction_formula_on_rational_points(m):
    rng = SplitMix64(0x9013 + m)
    cfgs = [rational_config(n, m, rng) for n in (3, 4, 5, 6) for _ in range(10)]
    assert any(x.denominator > 1 for cfg in cfgs for x in cfg.z + cfg.q)
    assert any(x < 0 for cfg in cfgs for x in cfg.lam)
    for cfg in cfgs:
        n, npts = len(cfg.z), len(cfg.z) + len(cfg.q)
        want = {(i, j): pole_value(cfg, i, j)
                for i in range(1, n + 1) for j in range(1, npts + 1) if i != j}
        den, poles = pole_table(cfg)
        assert den == lcm(*(v.denominator for v in want.values()))
        assert poles == {key: v.numerator * (den // v.denominator) for key, v in want.items()}


@pytest.mark.parametrize("n,m", [(4, 0), (5, 0), (3, 1), (4, 2)])
def test_alpha_values_refuses_a_table_of_the_wrong_shape(n, m):
    # a UsageError (exit 2), not the KeyError of reading a missing pole value
    table = pole_table(sample_config(n, m, 5))
    for spec in (cached_an(4), cached_an(5), cached_bnm(3, 1), cached_bnm(4, 2)):
        if (spec.n, spec.m) == (n, m):
            assert len(alpha_values(spec, table)[1]) == spec.nvars
            continue
        with pytest.raises(UsageError, match=f"pole table has \\({n},{m}\\) points,"
                                             f" spec needs \\({spec.n},{spec.m}\\)"):
            alpha_values(spec, table)


def reference_vanishing(spec, vals):
    return [t for t, r in enumerate(relation_polys(spec)) if poly_evaluate(r, vals) != 0]


def off_variety_points(nvars, seed):
    rng = SplitMix64(seed)
    rationals = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(nvars)]
                 for _ in range(4)]
    ints = [[rng.randint(-5, 5) for _ in range(nvars)] for _ in range(3)]
    return rationals + ints + [[0] * nvars]


@pytest.mark.parametrize("build,seeds", [
    (lambda: cached_an(4), (1, 2)),
    (lambda: cached_an(5), (3, 4)),
    (lambda: cached_bnm(3, 2), (5, 6)),
])
def test_vanishing_matches_poly_evaluate(build, seeds):
    spec = build()
    points = [fractions(sampled_point(spec, s)) for s in seeds]
    for vals in points + off_variety_points(spec.nvars, seeds[0]):
        assert verify_vanishing(spec, cleared(vals)) == reference_vanishing(spec, vals)


def test_vanishing_refuses_a_point_of_the_wrong_length():
    spec = cached_an(4)
    den, vals = sampled_point(spec, 3)
    for bad in (vals + [0] * 3, vals[:-1], []):
        with pytest.raises(UsageError, match=f"point has {len(bad)} coordinates.*"
                                             f" {spec.nvars} variables"):
            verify_vanishing(spec, (den, bad))
        with pytest.raises(UsageError, match=f"point has {len(bad)} coordinates"):
            jacobian_rank_at(spec, (den, bad))


def fraction_cij(cfg, pole, i, j):
    """The pair products of cij_values from Fraction pole values, k increasing."""
    n = len(cfg.z)
    return [pole(cfg, i, k) * pole(cfg, j, k) - pole(cfg, i, j) * pole(cfg, j, k)
            - pole(cfg, j, i) * pole(cfg, i, k) for k in range(1, n + 1) if k not in (i, j)]


def fraction_channels(cfg, pole):
    n = len(cfg.z)
    return all(len(set(fraction_cij(cfg, pole, i, j))) == 1
               for i in range(1, n + 1) for j in range(i + 1, n + 1))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_channels_consistent_matches_the_fraction_formula(n):
    rng = SplitMix64(500 + n)
    for _ in range(4):
        cfg = sample_config(n, 0, rng.next_u64())
        den, poles = pole_table(cfg)
        assert fraction_channels(cfg, pole_value)
        assert channels_consistent(poles)
        # a perturbed pole value breaks independence for the pairs that read it
        i, j = 1 + rng.randint(0, n - 1), 1 + rng.randint(0, n - 2)
        j += j >= i
        bump = rng.nonzero_int(5)
        perturbed = lambda c, a, b: pole_value(c, a, b) + Fraction(bump * ((a, b) == (i, j)), 3)
        # the same perturbation on the table, over the denominator 3 * den
        bumped = {key: 3 * v for key, v in poles.items()}
        bumped[i, j] += bump * den
        assert channels_consistent(bumped) == fraction_channels(cfg, perturbed)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_cij_values_are_the_fraction_values_over_den_squared(n):
    cfg = sample_config(n, 0, 40 + n)
    den, poles = pole_table(cfg)
    assert set(poles) == {(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
    assert all(Fraction(v, den) == pole_value(cfg, *key) for key, v in poles.items())
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            want = [x * den ** 2 for x in fraction_cij(cfg, pole_value, i, j)]
            assert cij_values(poles, i, j, n) == want


@pytest.mark.parametrize("argv", [
    "sample --n 5 --count 3",
    "sample --n 4 --count 3 --threads 2",
    "sample --kind bnm --n 3 --m 2 --count 3",
])
def test_sample_builds_one_pole_table_per_configuration(argv, monkeypatch, capsys):
    calls = []
    exact = geometry.pole_table

    def spy(cfg):
        calls.append(cfg)
        return exact(cfg)

    monkeypatch.setattr(geometry, "pole_table", spy)
    monkeypatch.setattr(cli, "pole_table", spy)
    assert cli.main(argv.split()) == 0
    assert len(calls) == 3


# sample reports outside the benchmark's recorded commands, pinned byte for byte
SAMPLE_PINS = [
    (["sample", "--n", "6", "--count", "50", "--pivot", "custom:2,3,4,5,6,1", "--seed", "99"],
     "d124b9b5d58507430d2add1b57751c7670a7f32894511b7b85ae01c05bb29f0c"),
    (["sample", "--kind", "bnm", "--n", "3", "--m", "2", "--count", "50"],
     "d825cd8b8943090df0c7a74b133c1d803f2772d15d7477d7befbecbceabafaae"),
    (["sample", "--n", "4", "--count", "20", "--format", "md"],
     "4f672eb6e42359b8dc05595153334f859e3a931dd5552da7844a847035f60253"),
    (["sample", "--n", "7", "--count", "10"],
     "6a941d7b3027f5b335731a93a78c93b23a6bc4b4a3220ba482fd9e2207dd481d"),
]


@pytest.mark.parametrize("argv,digest", SAMPLE_PINS, ids=[" ".join(a) for a, _ in SAMPLE_PINS])
def test_sample_report_is_pinned(argv, digest, capsysbinary):
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == digest


def test_jacobian_shape_and_entries():
    # each entry is the integer linear form of the reference derivative over
    # Z, whatever the spec's field
    for spec in (cached_an(4), cached_bnm(3, 2), cached_an(4, GF)):
        J = geometry._jacobian(spec)
        assert len(J) == len(spec.relations)
        assert {len(row) for row in J} == {spec.nvars}
        unit = [tuple(int(v == w) for v in range(spec.nvars)) for w in range(spec.nvars)]
        for rel, row in zip(relation_polys(spec), J):
            for v, form in enumerate(row):
                got = {unit[w]: c for w, c in form.items()}
                assert got == poly_derivative(rel, v, 0)


@pytest.mark.parametrize("build,want", [
    (lambda: cached_an(4), 3),     # (n-1)(n-3)
    (lambda: cached_an(5), 8),
    (lambda: cached_bnm(2, 2), 1),
])
def test_jacobian_rank_at_smooth_points(build, want):
    spec = build()
    for seed in (11, 22):
        vals = sampled_point(spec, seed)
        assert jacobian_rank_at(spec, vals) == want


def test_jacobian_rank_refuses_off_variety():
    spec = cached_an(4)
    with pytest.raises(UsageError):
        jacobian_rank_at(spec, (1, [1] * spec.nvars))


def test_singular_minors_budget():
    spec = cached_an(5, GF)
    with pytest.raises(BudgetError):
        singular_minors(spec, 8, budget=10)


def test_singular_locus_refuses_before_the_groebner_basis(monkeypatch):
    # A_5's predicted codimension is 15 - 7 = 8: C(20,8) * C(15,8) minors
    calls = []
    monkeypatch.setattr(geometry, "groebner_for", lambda *a, **k: calls.append(a))
    with pytest.raises(BudgetError) as info:
        singular_locus_dim(cached_an(5, GF))
    assert calls == []
    assert info.value.estimate == 810_616_950
    assert str(info.value) == "810616950 minors of size 8 exceed the budget 20000"


def test_singular_locus_conifold_is_origin():
    r = singular_locus_dim(cached_bnm(2, 2, GF))
    assert r.variety_dim == 3
    assert r.codim == 1
    assert r.singular_dim == 0
    assert r.bound_met


def test_singular_locus_a4_is_origin():
    r = singular_locus_dim(cached_an(4, GF))
    assert r.variety_dim == 5
    assert r.singular_dim == 0
    assert r.bound_met


def test_singular_locus_a3_is_empty():
    # smooth: no relations, no minors, unit ideal convention gives -1
    r = singular_locus_dim(cached_an(3, GF))
    assert r.singular_dim == -1
    assert r.bound_met


def test_sample_config_distinctness():
    for seed in range(5):
        cfg = sample_config(5, 2, seed)
        pts = cfg.z + cfg.q
        assert len(set(pts)) == len(pts)
        assert all(l != 0 for l in cfg.lam)
        cfg.validate()
