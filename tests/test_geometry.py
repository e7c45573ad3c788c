"""Pole-value points on the varieties: vanishing, the torus action, channel
independence, Jacobian ranks, and singular-locus dimension bounds.
"""

from fractions import Fraction

import pytest

from psiring import geometry
from psiring.errors import BudgetError, UsageError
from psiring.fields import PrimeField
from psiring.geometry import (
    PointConfig,
    alpha_values,
    channels_consistent,
    jacobian,
    jacobian_rank_at,
    pole_value,
    sample_config,
    singular_locus_dim,
    singular_minors,
    verify_vanishing,
)
from psiring.rng import SplitMix64
from conftest import cached_an, cached_bnm

GF = PrimeField(32003)


def sampled_point(spec, seed):
    return alpha_values(spec, sample_config(spec.n, spec.m, seed))


def test_worked_configuration():
    cfg = PointConfig(z=(Fraction(0), Fraction(1), Fraction(2), Fraction(3)),
                      q=(), lam=(Fraction(1),) * 4)
    spec = cached_an(4)
    vals = dict(zip(spec.var_names(), alpha_values(spec, cfg)))
    # atilde(1,3) = 1/(z3 - z1) = 1/2; pivot of 1 is 2, atilde(1,2) = 1
    assert pole_value(cfg, 1, 3) == Fraction(1, 2)
    assert vals["a[1,3]"] == Fraction(1, 2) - Fraction(1, 1)
    assert verify_vanishing(spec, alpha_values(spec, cfg)) == []


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
        vals = [Fraction(rng.randint(-9, 9)) for _ in range(spec.nvars)]
        if verify_vanishing(spec, vals):
            hits += 1
    assert hits == 20  # random integer points essentially never satisfy all quadrics


def test_vanishing_requires_rationals():
    spec = cached_an(4, GF)
    with pytest.raises(UsageError):
        verify_vanishing(spec, [GF.one()] * spec.nvars)


def test_torus_scaling_stays_on_variety():
    spec = cached_an(5)
    vals = sampled_point(spec, 77)
    t = (Fraction(3, 2), Fraction(-1), Fraction(2), Fraction(1, 7), Fraction(5))
    # the torus multiplies each variable by the factor of its block; the
    # relations are multihomogeneous, so the orbit stays on the variety
    scaled = [v * t[b] for v, b in zip(vals, spec.blocks)]
    assert scaled != vals
    assert verify_vanishing(spec, scaled) == []


@pytest.mark.parametrize("n", [4, 5, 6])
def test_channel_independence(n):
    rng = SplitMix64(123)
    for _ in range(4):
        assert channels_consistent(sample_config(n, 0, rng.next_u64()))


@pytest.mark.parametrize("n", [4, 5])
def test_channel_witness_detects_perturbation(n, monkeypatch):
    cfg = sample_config(n, 0, 9)
    assert channels_consistent(cfg)
    exact = geometry.pole_value
    monkeypatch.setattr(geometry, "pole_value",
                        lambda c, i, j: exact(c, i, j) + (1 if (i, j) == (1, 2) else 0))
    assert not channels_consistent(cfg)


def test_jacobian_shape_and_entries():
    spec = cached_an(4)
    J = jacobian(spec)
    assert len(J) == len(spec.relations)
    assert len(J[0]) == spec.nvars
    # entries of a quadric Jacobian are linear or zero
    assert all(e.is_zero() or {sum(x) for x in e.terms} == {1} for row in J for e in row)


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
        jacobian_rank_at(spec, [Fraction(1)] * spec.nvars)


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
