"""Truncated multivariate power series and the closed-form Hilbert series.

The multigraded Hilbert series of A_n is

    h_n(q) = (1 + sum_i q_i/(1-q_i))^(n-3) / prod_i (1-q_i)

and adjoining m extra evaluation points raises the exponent to n+m-3 while
keeping only the first n variables.  Two independent evaluators are kept:
series arithmetic truncated at one limit on the total degree, and a
per-coefficient closed form via multinomials; the tests check them against
each other.
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


# -- the series type -------------------------------------------------------------

class TruncatedSeries:
    """Integer-coefficient series kept to total degree at most limit.

    Coefficients above the limit are not stored and asking for one raises:
    truncation is always explicit, never silent.
    """

    __slots__ = ("nvars", "limit", "coeffs")

    def __init__(self, nvars: int, limit: int, coeffs: dict | None = None):
        self.nvars = nvars
        self.limit = limit
        self.coeffs = coeffs if coeffs is not None else {}

    @staticmethod
    def one(nvars: int, limit: int) -> "TruncatedSeries":
        return TruncatedSeries(nvars, limit, {(0,) * nvars: 1})

    def coefficient(self, a: tuple[int, ...]) -> int:
        if len(a) != self.nvars:
            raise UsageError(f"degree vector length {len(a)} != {self.nvars} variables")
        if sum(a) > self.limit:
            raise UsageError(f"degree {a} above the truncation limit {self.limit}")
        return self.coeffs.get(tuple(a), 0)

    def add(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.nvars != other.nvars or self.limit != other.limit:
            raise UsageError("series limits or variable counts differ")
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            v = out.get(a, 0) + c
            if v:
                out[a] = v
            else:
                out.pop(a, None)
        return TruncatedSeries(self.nvars, self.limit, out)

    def mul_geometric(self, axis: int) -> "TruncatedSeries":
        """Multiply by 1/(1-q_axis): a prefix sum along the axis, linear time."""
        out: dict = {}
        for a in degree_grid(self.nvars, self.limit):  # by total degree: a - e_axis comes first
            below = out.get(_dec(a, axis), 0) if a[axis] else 0
            v = self.coeffs.get(a, 0) + below
            if v:
                out[a] = v
        return TruncatedSeries(self.nvars, self.limit, out)

    def mul_shift_geometric(self, axis: int) -> "TruncatedSeries":
        """Multiply by q_axis/(1-q_axis)."""
        geom = self.mul_geometric(axis)
        out: dict = {}
        for a, c in geom.coeffs.items():
            up = list(a)
            up[axis] += 1
            if sum(up) <= self.limit:
                out[tuple(up)] = c
        return TruncatedSeries(self.nvars, self.limit, out)

    def mul_one_plus_all_shift_geometric(self) -> "TruncatedSeries":
        """Multiply by (1 + sum_i q_i/(1-q_i)) in one pass over the axes."""
        out = self
        for axis in range(self.nvars):
            out = out.add(self.mul_shift_geometric(axis))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.nvars == other.nvars
            and self.limit == other.limit
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"TruncatedSeries({self.nvars} vars, {len(self.coeffs)} terms, limit {self.limit})"


def _dec(a: tuple[int, ...], axis: int) -> tuple[int, ...]:
    out = list(a)
    out[axis] -= 1
    return tuple(out)


# -- the Hilbert series builders --------------------------------------------------

def psi_series(nvars: int, exponent: int, limit: int) -> TruncatedSeries:
    """(1 + sum g_i)^exponent / prod(1 - q_i) with g_i = q_i/(1-q_i), truncated."""
    if exponent < 0:
        raise UsageError(f"negative exponent {exponent}")
    s = TruncatedSeries.one(nvars, limit)
    for axis in range(nvars):
        s = s.mul_geometric(axis)
    for _ in range(exponent):
        s = s.mul_one_plus_all_shift_geometric()
    return s


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
    (1 + sum_{i<n} q_i/(1-q_i)) * lee_series(n-1), an (n-1)-variable series."""
    if n < 4:
        raise UsageError(f"curve_module_series needs n >= 4, got {n}")
    return lee_series(n - 1, limit).mul_one_plus_all_shift_geometric()


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
