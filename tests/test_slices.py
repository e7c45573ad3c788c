"""Graded-slice dimensions from monomial enumeration and relation-row rank,
cross-checked against the closed-form series coefficients.
"""

import pytest

from psiring.errors import UsageError
from psiring.fields import QQ
from psiring.poly import multidegree
from psiring.series import TotalBound, lee_series, lee_series_restricted
from psiring.slices import (
    count_monomials,
    degree_grid,
    enumerate_monomials,
    slice_dimension,
    sweep_dimensions,
)
from conftest import cached_an, cached_bnm


def test_grid_is_sorted_and_complete():
    g = degree_grid(3, 2)
    assert g[0] == (0, 0, 0)
    assert len(g) == 10
    assert g == sorted(g, key=lambda a: (sum(a), a))


def test_enumerate_monomials_counts():
    spec = cached_an(4)
    for a in degree_grid(4, 3):
        mons = enumerate_monomials(spec, a)
        assert len(mons) == count_monomials(spec, a)
        assert len(set(mons)) == len(mons)
        for e in mons:
            assert multidegree(e, spec.blocks, spec.nblocks) == a


def test_monomial_count_is_a_product_of_compositions():
    from math import comb
    spec = cached_an(5)  # three generators per point block
    a = (2, 1, 0, 3, 0)
    want = 1
    for d in a:
        want *= comb(d + 2, 2)
    assert count_monomials(spec, a) == want


@pytest.mark.parametrize("method", ["rational", "modular", "auto"])
def test_slice_methods_agree_on_a4(method):
    spec = cached_an(4)
    s = lee_series(4, TotalBound(3))
    for a in degree_grid(4, 3):
        rep = slice_dimension(spec, a, method=method)
        assert rep.dimension == s.coefficient(a)
        assert rep.matches


def test_a4_full_sweep_to_degree_five():
    spec = cached_an(4)
    s = lee_series(4, TotalBound(5))
    reports = sweep_dimensions(spec, 5)
    assert len(reports) == len(degree_grid(4, 5))
    for rep in reports:
        assert rep.dimension == s.coefficient(rep.multidegree) == rep.predicted


def test_a5_spot_degrees():
    spec = cached_an(5)
    s = lee_series(5, TotalBound(4))
    for a in [(1, 1, 1, 0, 0), (2, 0, 1, 0, 1), (1, 1, 1, 1, 0), (2, 2, 0, 0, 0)]:
        assert slice_dimension(spec, a).dimension == s.coefficient(a)


@pytest.mark.parametrize("n,m,limit", [(2, 2, 5), (3, 1, 4), (4, 1, 3)])
def test_b_family_sweeps(n, m, limit):
    spec = cached_bnm(n, m)
    s = lee_series_restricted(n, m, TotalBound(limit))
    for rep in sweep_dimensions(spec, limit):
        assert rep.dimension == s.coefficient(rep.multidegree), rep.multidegree


def test_report_carries_audit_fields():
    rep = slice_dimension(cached_an(4), (1, 1, 0, 0))
    assert rep.monomials == 4  # two vars in each of two blocks
    assert rep.monomials - rep.rank == rep.dimension
    # the auto lane names every stage it used
    assert "modular" in rep.method or rep.method == "rational"


def test_sweep_is_deterministic():
    spec = cached_bnm(3, 1)
    a = [tuple(r.__dict__.items()) for r in sweep_dimensions(spec, 3)]
    b = [tuple(r.__dict__.items()) for r in sweep_dimensions(spec, 3)]
    assert a == b


def test_negative_degree_rejected():
    with pytest.raises(UsageError):
        slice_dimension(cached_an(4), (-1, 0, 0, 0))
    with pytest.raises(UsageError):
        slice_dimension(cached_an(4), (1, 0, 0))  # wrong arity


def test_rational_method_respects_field():
    spec = cached_an(4, QQ)
    rep = slice_dimension(spec, (2, 1, 0, 0), method="rational")
    assert rep.method == "rational"
