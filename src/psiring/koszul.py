"""Koszul-dual dimension tower for the A_n quadratic algebras.

The degree-k component of the quadratic dual is, up to vector space duality,

    W_k = intersection over s of  V^s (x) R (x) V^(k-2-s)   inside V^(x)k,

where R in V(x)V spans the commutators plus one lift of each pair relation.
If the algebra is Koszul these dimensions must match the coefficients b_k of
1/h(-t), h the total-degree Hilbert series.  The tower is computed two ways:
iteratively (W_j = (W_(j-1) (x) V) intersect (V^(j-2) (x) R), small matrices)
and stacked (one big constraint system, used as the small-case cross-check).

Arithmetic runs over a prime just below 2^20 so the BLAS float64 lane stays
exact; intersection dimensions over a prime field can only exceed the
rational ones, so agreement at two primes is strong one-sided evidence.
Work is refused with a BudgetError when the matrices would exceed the element
budget; the refusal carries the estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import BudgetError, UsageError
from .exactla import echelon_mod_p, mod_matmul, nullspace_mod_p, rank_mod_p, rows_to_dense
from .fields import TENSOR_PRIME, TENSOR_RETRY_PRIMES
from .presentation import PivotScheme, tensor_relation_space
from .series import invert_unit_series, total_hilbert

# refuse any stage whose main matrix would exceed this many entries
DEFAULT_ELEMENT_BUDGET = 200_000_000


def koszul_prediction(n: int, kmax: int) -> list[int]:
    """b_0..b_kmax: coefficients of 1/h(-t) for the total Hilbert series of A_n."""
    h = total_hilbert(n, kmax)
    return invert_unit_series([(-1) ** d * c for d, c in enumerate(h)])


def b2_structural(n: int) -> int:
    """Independent count of dim R: commutators plus lifted pair relations."""
    v = n * (n - 2)
    return comb(v, 2) + comb(n, 2) * (n - 3)


def relation_space_matrices(
    n: int, prime: int = TENSOR_PRIME, pivot: PivotScheme | None = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """(N2, C, v): a row basis of R in V(x)V and its membership-check matrix.

    x lies in R exactly when C @ x == 0 mod the prime; N2 has dim(R) rows.
    """
    trs = tensor_relation_space(n, pivot)
    v = trs.dim_v
    M = rows_to_dense(list(trs.rows), v * v, prime)
    U, pivots = echelon_mod_p(M, prime)
    N2 = np.ascontiguousarray(U[: len(pivots)])
    C = np.ascontiguousarray(nullspace_mod_p(M, prime).T)
    assert N2.shape[0] + C.shape[0] == v * v
    return N2, C, v


def dual_tower(
    n: int,
    kmax: int,
    prime: int = TENSOR_PRIME,
    budget: int = DEFAULT_ELEMENT_BUDGET,
    pivot: PivotScheme | None = None,
) -> list[int]:
    """[dim W_0, ..., dim W_kmax] computed iteratively mod the prime.

    Raises BudgetError before any stage whose matrices would exceed the budget.
    """
    if n < 3:
        raise UsageError(f"dual tower needs n >= 3, got {n}")
    if kmax < 0:
        raise UsageError(f"negative degree {kmax}")
    v = n * (n - 2)
    dims = [1]
    if kmax >= 1:
        dims.append(v)
    if kmax < 2:
        return dims
    N, C, _ = relation_space_matrices(n, prime, pivot)
    dims.append(N.shape[0])
    RR = C.shape[0]
    for j in range(3, kmax + 1):
        U = N.shape[0]
        A = v ** (j - 2)
        est = A * RR * U * v
        if est > budget:
            raise BudgetError(
                f"stage k={j} for n={n} needs a {A * RR} x {U * v} matrix"
                f" ({est} entries > budget {budget})",
                estimate=est, budget=budget,
            )
        # M[(a,r),(u,b)] = sum_c N[u,(a,c)] * C[r,(c,b)]
        left = np.ascontiguousarray(N.reshape(U, A, v).transpose(1, 0, 2)).reshape(A * U, v)
        right = np.ascontiguousarray(C.reshape(RR, v, v).transpose(1, 0, 2)).reshape(v, RR * v)
        prod = mod_matmul(left, right, prime)  # [(a,u),(r,b)]
        M = np.ascontiguousarray(
            prod.reshape(A, U, RR, v).transpose(0, 2, 1, 3)
        ).reshape(A * RR, U * v)
        Y = nullspace_mod_p(M, prime)  # (U*v, W)
        W = Y.shape[1]
        dims.append(W)
        if j < kmax:
            if W * (v ** j) > budget:
                raise BudgetError(
                    f"basis for k={j} needs {W} x {v ** j} entries > budget {budget}",
                    estimate=W * v ** j, budget=budget,
                )
            P = v ** (j - 1)
            flat = mod_matmul(N.T.copy(), Y.reshape(U, v * W), prime)  # (P, v*W)
            N = np.ascontiguousarray(
                flat.reshape(P, v, W).transpose(2, 0, 1)
            ).reshape(W, P * v)
    return dims


def dual_dimension_stacked(
    n: int,
    k: int,
    prime: int = TENSOR_PRIME,
    budget: int = DEFAULT_ELEMENT_BUDGET,
    pivot: PivotScheme | None = None,
) -> int:
    """Same dimension from one stacked constraint system on all of V^(x)k.

    Exponentially larger than the iterative route; it exists as the
    independent cross-check on small cases.
    """
    if n < 3 or k < 0:
        raise UsageError(f"bad stacked-dual arguments n={n}, k={k}")
    v = n * (n - 2)
    if k == 0:
        return 1
    if k == 1:
        return v
    _, C, _ = relation_space_matrices(n, prime, pivot)
    RR = C.shape[0]
    unknowns = v ** k
    nrows = (k - 1) * RR * v ** (k - 2)
    est = nrows * unknowns
    if est > budget:
        raise BudgetError(
            f"stacked system is {nrows} x {unknowns} ({est} entries > budget {budget})",
            estimate=est, budget=budget,
        )
    big = np.zeros((nrows, unknowns), dtype=np.int64)
    stride = np.arange(v * v)
    row = 0
    for s in range(k - 1):
        L, Rn = v ** s, v ** (k - 2 - s)
        for i1 in range(L):
            for i2 in range(Rn):
                colbase = (i1 * v * v) * Rn + i2
                big[row: row + RR, colbase + Rn * stride] = C
                row += RR
    assert row == nrows
    return unknowns - rank_mod_p(big, prime)


@dataclass(frozen=True)
class KoszulStage:
    k: int
    dual_dim: int
    predicted: int

    @property
    def matches(self) -> bool:
        return self.dual_dim == self.predicted


@dataclass(frozen=True)
class KoszulSummary:
    """Dual dimensions against the series prediction, with the primes used."""

    n: int
    kmax: int
    primes: tuple[int, ...]
    stages: tuple[KoszulStage, ...]

    @property
    def all_match(self) -> bool:
        return all(s.matches for s in self.stages)

    @property
    def verdict(self) -> str:
        return "match" if self.all_match else "informative"


def koszul_summary(
    n: int,
    kmax: int,
    prime: int = TENSOR_PRIME,
    budget: int = DEFAULT_ELEMENT_BUDGET,
    pivot: PivotScheme | None = None,
) -> KoszulSummary:
    """Compute the tower, compare to the prediction, retry on a second prime.

    A mismatch confirmed at two primes is reported as-is ('informative');
    a mismatch that vanishes at the retry prime keeps the retry values.
    """
    dims = dual_tower(n, kmax, prime, budget, pivot)
    pred = koszul_prediction(n, kmax)
    primes = [prime]
    if any(d != p for d, p in zip(dims, pred)):
        retry = next(q for q in (TENSOR_RETRY_PRIMES + (TENSOR_PRIME,)) if q != prime)
        dims2 = dual_tower(n, kmax, retry, budget, pivot)
        primes.append(retry)
        if dims2 != dims:
            dims = [min(a, b) for a, b in zip(dims, dims2)]  # mod-p dims only inflate
        else:
            dims = dims2
    stages = tuple(KoszulStage(k, dims[k], pred[k]) for k in range(kmax + 1))
    return KoszulSummary(n=n, kmax=kmax, primes=tuple(primes), stages=stages)
