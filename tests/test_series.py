"""Truncated multivariate series: the closed-form coefficients, the product
formula, diagonal sums, and the frozen inverse-series tables.
"""

import pytest

from psiring import series
from psiring.errors import UsageError
from psiring.series import (
    TruncatedSeries,
    curve_module_series,
    degree_grid,
    invert_unit_series,
    lee_coefficient,
    lee_series,
    lee_series_restricted,
    psi_series,
    total_hilbert,
)

# inverse-series coefficient tables, frozen from the truncated-series pipeline
INVERSE_N4 = [1, 8, 34, 112, 341, 1024]
INVERSE_N5 = [1, 15, 125, 795, 4395, 22461]


def test_anchor_single_unit():
    for n in range(3, 8):
        s = lee_series(n, 1)
        for i in range(n):
            a = tuple(1 if j == i else 0 for j in range(n))
            assert s[a] == n - 2


def test_anchor_unit_pairs():
    for n in range(3, 8):
        s = lee_series(n, 2)
        for i in range(n):
            for j in range(i + 1, n):
                a = tuple(1 if t in (i, j) else 0 for t in range(n))
                assert s[a] == (n - 2) ** 2 - (n - 3)


def test_three_points_all_ones():
    s = lee_series(3, 6)
    assert all(s[a] == 1 for a in s)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_closed_form_matches_expansion(n):
    s = lee_series(n, 4)
    for a in s:
        assert lee_coefficient(n, a) == s[a], a


def test_restricted_closed_form_matches_expansion():
    for n, m in [(2, 2), (3, 1), (3, 2), (4, 1)]:
        s = lee_series_restricted(n, m, 4)
        for a in s:
            assert lee_coefficient(n, a, m=m) == s[a], (n, m, a)


def test_conifold_coefficients_linear():
    s = lee_series_restricted(2, 2, 8)
    for a, b in s:
        assert s[a, b] == a + b + 1


def test_diagonal_sums_match_single_variable_series():
    for n in range(3, 8):
        s = lee_series(n, 4)
        sums = [0] * 5
        for a, c in s.items():
            sums[sum(a)] += c
        assert sums == total_hilbert(n, 4), n


def test_total_hilbert_quadratic_coefficient():
    # t^1: the variable count; t^2: symmetric square minus relation count
    from math import comb
    for n in range(3, 9):
        h = total_hilbert(n, 2)
        nv = n * (n - 2)
        assert h[1] == nv
        assert h[2] == comb(nv + 1, 2) - comb(n, 2) * (n - 3)


@pytest.mark.parametrize("n,table", [(4, INVERSE_N4), (5, INVERSE_N5)])
def test_frozen_inverse_series(n, table):
    # the table is 1/h(-t): substitute -t, then invert
    h = total_hilbert(n, len(table) - 1)
    hm = [(-1) ** k * c for k, c in enumerate(h)]
    assert invert_unit_series(hm) == table


def test_inverse_series_identity():
    for n in (4, 5, 6):
        h = total_hilbert(n, 6)
        b = invert_unit_series(h)
        for d in range(7):
            acc = sum(b[k] * h[d - k] for k in range(d + 1))
            assert acc == (1 if d == 0 else 0)


def test_curve_module_factorization():
    for n in (4, 5, 6):
        assert curve_module_series(n, 5) == \
            lee_series_restricted(n - 1, 1, 5)


def test_curve_module_factorization_catches_a_wrong_multiplication(monkeypatch):
    # the two sides take separate routes, so a fault in the series arithmetic's
    # multiplication by 1 + sum_i q_i/(1-q_i) shows as a difference
    real = series._times_one_plus_shifts

    def corrupt(c, steps):
        out = real(c, steps)
        out[-1] += 1
        return out

    monkeypatch.setattr(series, "_times_one_plus_shifts", corrupt)
    for n in (4, 5):
        assert curve_module_series(n, 5) != lee_series_restricted(n - 1, 1, 5)


def test_series_arithmetic():
    # exponent 0: 1/(1 - x0) in one variable, 1/((1-x0)(1-x1)) in two, all ones
    assert all(psi_series(1, 0, 3)[a] == 1 for a in degree_grid(1, 3))
    prod = psi_series(2, 0, 3)
    assert all(prod[a] == 1 for a in degree_grid(2, 3))
    # times 1 + x0/(1-x0) + x1/(1-x1): the coefficient of x0^a x1^b is 1 + a + b
    once = psi_series(2, 1, 3)
    assert all(once[a] == 1 + sum(a) for a in degree_grid(2, 3))
    assert psi_series(2, 1, 3) == once != prod
    assert psi_series(2, 0, 3) != psi_series(2, 0, 4)  # another truncation limit
    assert isinstance(once, TruncatedSeries)
    with pytest.raises(UsageError):
        psi_series(2, -1, 3)


def test_series_arithmetic_matches_the_closed_form_at_seven_points():
    # (nvars, exponent, limit) = (7, 4, 6): A(7)'s series, 1716 coefficients
    s = psi_series(7, 4, 6)
    assert len(degree_grid(7, 6)) == 1716
    for a in degree_grid(7, 6):
        assert s[a] == lee_coefficient(7, a), a


def test_out_of_bound_coefficient_rejected():
    # above the limit, negative, or of the wrong length: outside the degree grid
    s = lee_series(4, 3)
    for a in [(4, 0, 0, 0), (1, -1, 0, 0), (1, 0, 0)]:
        with pytest.raises(UsageError):
            s[a]


def test_small_n_rejected():
    with pytest.raises(UsageError):
        lee_series(2, 2)
    with pytest.raises(UsageError):
        lee_series_restricted(1, 1, 2)
    with pytest.raises(UsageError):
        curve_module_series(3, 2)
