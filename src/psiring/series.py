"""Truncated multivariate power series and the closed-form Hilbert series.

The multigraded Hilbert series of A_n is

    h_n(q) = (1 + sum_i q_i/(1-q_i))^(n-3) / prod_i (1-q_i)

and adjoining m extra evaluation points raises the exponent to n+m-3 while
keeping only the first n variables.  Two independent evaluators are kept:
series arithmetic truncated at one limit on the total degree, and a
per-coefficient closed form via multinomials; the tests check them against
each other.

The series arithmetic runs on a list of Python ints, one per multidegree of
degree_grid(nvars, limit), through that grid's steps: for each axis, the
index pairs (i, j) with grid[j] = grid[i] + e_axis, in ascending i, built
once per (nvars, limit).  Dividing by 1 - q_axis is a prefix sum along the
axis, c[j] += c[i] over the axis's pairs in order: the grid runs by total
degree, so c[i] is final before it is read.  Multiplying by
1 + sum_i q_i/(1-q_i) uses q_i/(1-q_i) = 1/(1-q_i) - 1: it is the sum over
the axes of the prefix sums, minus nvars - 1 times the series.

A TruncatedSeries pairs that list with its grid: a dict from every
multidegree of degree_grid(nvars, limit), zeros included, to its
coefficient, in grid order, which is report order.  It is the one table the
reports read; a multidegree outside the grid raises.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from .errors import UsageError


# -- the degree grid -------------------------------------------------------------

@lru_cache(maxsize=None)
def compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """Every tuple of `parts` non-negative integers summing to total, in ascending lex order."""
    if parts == 0:
        return ((),) if total == 0 else ()
    return tuple((v,) + rest for v in range(total + 1)
                 for rest in compositions(total - v, parts - 1))


@lru_cache(maxsize=None)
def degree_grid(nblocks: int, limit: int) -> tuple[tuple[int, ...], ...]:
    """Every multidegree with total degree <= limit, in report order (total, then lex).

    The one degree enumerator: series arithmetic, slice sweeps and report
    tables all walk it, so none of them sorts.
    """
    return tuple(a for d in range(limit + 1) for a in compositions(d, nblocks))


@lru_cache(maxsize=None)
def _grid_steps(nvars: int, limit: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per axis, the index pairs (i, j) of degree_grid(nvars, limit) with
    grid[j] = grid[i] + e_axis, in ascending i."""
    grid = degree_grid(nvars, limit)
    index = {a: k for k, a in enumerate(grid)}
    below = grid[:len(degree_grid(nvars, limit - 1))]  # the points with a step up
    return tuple(tuple((i, index[a[:axis] + (a[axis] + 1,) + a[axis + 1:]])
                       for i, a in enumerate(below))
                 for axis in range(nvars))


def _times_one_plus_shifts(c: list[int], steps) -> list[int]:
    """c times (1 + sum_i q_i/(1-q_i)), as the sum over the axes of c/(1-q_i),
    minus nvars - 1 times c."""
    out = [(1 - len(steps)) * x for x in c]
    for pairs in steps:
        g = c[:]
        for i, j in pairs:
            g[j] += g[i]
        out = [x + y for x, y in zip(out, g)]
    return out


def _psi_values(nvars: int, exponent: int, limit: int) -> list[int]:
    """psi_series' coefficients, one per multidegree of degree_grid(nvars, limit)."""
    if exponent < 0:
        raise UsageError(f"negative exponent {exponent}")
    steps = _grid_steps(nvars, limit)
    c = [1] + [0] * (len(degree_grid(nvars, limit)) - 1)
    for pairs in steps:
        for i, j in pairs:
            c[j] += c[i]
    for _ in range(exponent):
        c = _times_one_plus_shifts(c, steps)
    return c


# -- the series type -------------------------------------------------------------

class TruncatedSeries(dict):
    """Integer-coefficient series kept to total degree at most a limit: a dict
    from every multidegree of degree_grid(nvars, limit) to its coefficient,
    zeros included, in grid order.

    Asking for a multidegree outside the grid (above the limit, negative, or
    of another length) raises: truncation is always explicit, never silent.
    """

    def __missing__(self, a):
        raise UsageError(f"degree {a} is outside the series' degree grid")


# -- the Hilbert series builders --------------------------------------------------

def psi_series(nvars: int, exponent: int, limit: int) -> TruncatedSeries:
    """(1 + sum g_i)^exponent / prod(1 - q_i) with g_i = q_i/(1-q_i), truncated."""
    return TruncatedSeries(zip(degree_grid(nvars, limit), _psi_values(nvars, exponent, limit)))


def lee_series(n: int, limit: int) -> TruncatedSeries:
    """Multigraded Hilbert series of A_n to total degree limit."""
    if n < 3:
        raise UsageError(f"lee_series needs n >= 3, got {n}")
    return psi_series(n, n - 3, limit)


def lee_series_restricted(n: int, m: int, limit: int) -> TruncatedSeries:
    """Hilbert series of B_{n,m} in the n marked-point gradings."""
    if n < 2 or m < 0 or n + m < 3:
        raise UsageError(f"lee_series_restricted needs n >= 2, m >= 0, n+m >= 3; got ({n},{m})")
    return psi_series(n, n + m - 3, limit)


def curve_module_series(n: int, limit: int) -> TruncatedSeries:
    """Series of the universal-curve coordinate ring over A_{n-1}:
    (1 + sum_{i<n} q_i/(1-q_i)) * lee_series(n-1), an (n-1)-variable series.

    Built from that definition by an explicit convolution, out[a] = S[a] +
    sum_i sum_{k=1..a_i} S[a - k e_i] with S = lee_series(n-1), not by the
    grid-step multiplication that lee_series_restricted(n-1, 1) applies once
    more: the curve-module factorization compares two routes.
    """
    if n < 4:
        raise UsageError(f"curve_module_series needs n >= 4, got {n}")
    S = lee_series(n - 1, limit)
    return TruncatedSeries((a, S[a] + sum(S[a[:i] + (ai - k,) + a[i + 1:]]
                                          for i, ai in enumerate(a) for k in range(1, ai + 1)))
                           for a in S)


def lee_coefficient(n: int, a: tuple[int, ...], m: int = 0) -> int:
    """Closed-form coefficient of q^a: sum over k of multinomial(N; k, N-|k|) * prod C(a_i, k_i),
    with N = n+m-3.  Independent of the series-arithmetic evaluator."""
    if len(a) != n:
        raise UsageError(f"degree vector length {len(a)} != n = {n}")
    if any(x < 0 for x in a):
        return 0
    N = n + m - 3
    if N < 0:
        raise UsageError(f"lee_coefficient needs n+m >= 3, got ({n},{m})")
    fN = factorial(N)
    total = 0
    stack = [(0, N, 1, 1)]  # (index, budget left, prod C(a_i,k_i), prod k_i!)
    while stack:
        i, left, prod_c, prod_f = stack.pop()
        if i == n:
            total += prod_c * (fN // (prod_f * factorial(left)))
            continue
        for k in range(min(left, a[i]) + 1):
            stack.append((i + 1, left - k, prod_c * comb(a[i], k), prod_f * factorial(k)))
    return total


def total_hilbert(n: int, limit: int) -> list[int]:
    """Total-degree Hilbert function of A_n via (1+(n-1)t)^(n-3) / (1-t)^(2n-3)."""
    if n < 3:
        raise UsageError(f"total_hilbert needs n >= 3, got {n}")
    num = [comb(n - 3, j) * (n - 1) ** j for j in range(n - 2)]
    out = []
    for d in range(limit + 1):
        s = sum(num[j] * comb(d - j + 2 * n - 4, 2 * n - 4) for j in range(min(d, n - 3) + 1))
        out.append(s)
    return out


def invert_unit_series(h: list[int]) -> list[int]:
    """Coefficients of 1/h(t) up to the same truncation; h[0] must be 1."""
    if not h or h[0] != 1:
        raise UsageError("series inversion needs constant term 1")
    out = [1]
    for d in range(1, len(h)):
        out.append(-sum(out[j] * h[d - j] for j in range(d)))
    return out
