"""Exact rank and nullspace computations.

Two elimination lanes, used as independent routes and cross-checked in the
tests, where a fraction-free Bareiss elimination is the reference over Z:

  * the sparse lane: sparse_echelon, one echelon insertion over sparse integer
    rows, over Z only.  A dict maps each leading column to its pivot row; an
    incoming row is reduced by the pivot at its leading column until it
    claims a new column or vanishes, and has its content stripped, which
    gives the rank over Q exactly.  rank_sparse_rational ranks there and,
    given a prime p, also certifies that the rank mod p is the same (the
    lucky-prime argument), so one elimination stands in for both.  The slices
    and the Jacobian at a rational point rank there, and the slices read the
    rows that vanished as linear syzygies.  singular's linear preprocessing
    (groebner.linear_interreduce) ranks the integer relations and minors as
    they are and keeps the primitive pivot rows as integer polynomials,
    certified at the characteristic over a prime field.

  * the int64 lane: sparse echelon insertion mod a prime p, for any p with
    2 <= p and (p-1)^2 < 2^63, because its outputs are int64; every routine
    refuses another modulus before it reads a matrix.  It reads a matrix's
    nonzero entries into rows {col: residue}, inserts them sparsest row
    first, and reduces each by the monic pivot at its leading column, on
    Python ints, until it claims a new column or vanishes.  rank_mod_p counts
    the pivots; echelon_mod_p clears them upward to the reduced echelon form,
    which depends on the row space alone, and so does not depend on the
    order of insertion; nullspace_mod_p and echelon_nullspace read the kernel
    basis with the identity on the free columns off that form.  The Koszul
    tower's blocks, its relation space's included, are a few percent dense,
    and inserting their sparsest rows first keeps the pivots sparse.
    mod_matmul sums at most _chunk(p) products of residues between
    reductions, so no int64 sum overflows.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import gcd

import numpy as np

from .errors import UsageError

# No psiring code reads this; only perfbench/tracer.py imports it, to label lanes.
FLOAT_LANE_MAX_PRIME = 1 << 20


# -- sparse lane ----------------------------------------------------------------

def rank_sparse_rational(rows: list[dict], p: int | None = None) -> tuple[int, bool]:
    """Rank over Q of a matrix given as sparse integer rows {col: coeff}, and
    whether the elimination certifies that the rank mod the prime p is the
    same (never without p).

    Row operations over Z; every reduced row has its content stripped, apart
    from its factors p.  Each reduction step is then row <- (a*row - b*pivot)/g
    with g a unit mod p, so by induction every pivot row is, mod p, a
    combination of the input rows.  When every pivot's leading entry is
    nonzero mod p, the pivots mod p are in echelon form with nonzero leads and
    independent: rank mod p >= #pivots = rank over Q, and rank mod p never
    exceeds the rank over Q.  A row that kept a factor p is zero mod p, so it
    fails the check if it becomes a pivot; the multipliers a need no check.
    """
    pivots, _ = sparse_echelon(rows, p)
    lucky = p is not None and all(prow[lead] % p for lead, prow in pivots.items())
    return len(pivots), lucky


def sparse_echelon(rows: list[dict],
                   lucky: int | None = None) -> tuple[dict[int, dict], list[int]]:
    """Echelon insertion of sparse integer rows over Z.

    Returns the dict from each leading column to the one pivot row that starts
    there, and the indices, ascending, of the input rows that vanished.  Each
    incoming row is reduced by the pivot at its leading column until it claims
    a column of its own or vanishes.  Every pivot row is a combination of the
    rows inserted before it, so a vanished row is one over Q.  The pivot rows
    are primitive integer rows (content stripped), except that factors of the
    prime lucky stay in.  Zero entries are dropped.
    """
    pivots: dict[int, dict] = {}
    vanished: list[int] = []
    for i, row in enumerate(rows):
        row = {c: v for c, v in row.items() if v}
        _strip_content(row, lucky)
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = row
                break
            _reduce_z(row, prow, lead, lucky)
        else:
            vanished.append(i)
    return pivots, vanished


def _reduce_z(row: dict, prow: dict, lead: int, lucky: int | None) -> None:
    """row <- (pv/g)*row - (rv/g)*prow in place, pv and rv the entries at lead
    and g their gcd, then the content is stripped but for its factors lucky.
    row loses column lead."""
    pv, rv = prow[lead], row[lead]
    g = gcd(pv, rv)
    pv, rv = pv // g, rv // g
    if pv != 1:
        for c in row:
            row[c] *= pv
    for c, x in prow.items():
        v = row.get(c, 0) - rv * x
        if v:
            row[c] = v
        else:
            del row[c]
    _strip_content(row, lucky)


def _strip_content(row: dict, keep: int | None) -> None:
    """Divide row by the gcd of its entries, with every factor keep left in."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    while keep and g > 1 and g % keep == 0:
        g //= keep
    if g > 1:
        for c in row:
            row[c] //= g


# -- modular lanes --------------------------------------------------------------

def rows_to_dense(rows: list[dict], ncols: int, p: int) -> np.ndarray:
    """Materialize sparse integer rows as a dense int64 array reduced mod p."""
    out = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        for c, v in row.items():
            out[i, c] = v % p
    return out


def echelon_mod_p(a, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p, by sparse echelon insertion.

    Returns (U, pivot columns), U int64 of a's shape: pivot t sits at row t
    with entry 1 at its column, every other pivot column is zero in it, and
    rows below the last pivot are zero.  The form is canonical: it depends on
    the row space alone.  Refuses p outside the int64 lane before it reads a.
    """
    _chunk(p)  # the lane check
    A = np.asarray(a)
    pivots = _insert_mod_p(A, p)
    _clear_upward(pivots, p)
    leads = sorted(pivots)
    U = np.zeros(A.shape, dtype=np.int64)
    for t, lead in enumerate(leads):
        row = pivots[lead]
        U[t, list(row)] = list(row.values())
    return U, leads


def rank_mod_p(a, p: int) -> int:
    """Rank mod p: the number of pivot rows the echelon insertion keeps."""
    _chunk(p)  # the lane check
    return len(_insert_mod_p(np.asarray(a), p))


def nullspace_mod_p(a, p: int) -> np.ndarray:
    """Columns form a basis of the right kernel mod p (int64, shape ncols x
    nullity), the one with the identity on the free columns."""
    _chunk(p)  # the lane check
    A = np.asarray(a)
    pivots = _insert_mod_p(A, p)
    _clear_upward(pivots, p)
    return _kernel(pivots, A.shape[1], p)


def echelon_nullspace(U: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """nullspace_mod_p on an echelon form (U, pivots) with unit pivots, pivot t
    at row t, so a caller holding one does not eliminate again.

    Clears each pivot column above its pivot, which leaves the reduced echelon
    form R; the kernel vector of free column f is 1 at f, 0 at the other free
    columns and -R[:, f] at the pivots.  That basis is the only one with the
    identity on the free columns.  U is left as it was.
    """
    _chunk(p)  # the lane check
    U = np.asarray(U)
    rows = dict(zip(pivots, _sparse_rows(U[: len(pivots)], p)))
    _clear_upward(rows, p)
    return _kernel(rows, U.shape[1], p)


def _sparse_rows(A: np.ndarray, p: int) -> list[dict[int, int]]:
    """The rows of A as {col: residue mod p}, with the zero residues left out."""
    r, c = np.nonzero(A)
    v = A[r, c] % p
    keep = v != 0
    cols, vals = c[keep].tolist(), v[keep].tolist()
    rows, s = [], 0
    for e in np.cumsum(np.bincount(r[keep], minlength=A.shape[0])).tolist():
        rows.append(dict(zip(cols[s:e], vals[s:e])))
        s = e
    return rows


def _insert_mod_p(A: np.ndarray, p: int) -> dict[int, dict[int, int]]:
    """Echelon insertion of A's rows mod p, sparsest row first.

    Returns the dict from each leading column to the one monic pivot row that
    starts there.  An incoming row is reduced by the pivot at its leading
    column until it claims a new column or vanishes.  The leading columns,
    and the reduced form _clear_upward makes of the pivots, depend on the row
    space alone, not on the order of insertion; inserting sparse rows first
    keeps the pivots, and so every later reduction, sparse.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted(_sparse_rows(A, p), key=len):
        heap = sorted(row)  # the row's columns, and each column filled in later
        while heap:
            lead = heappop(heap)
            f = row.get(lead)
            if f is None:  # cancelled since it was pushed
                continue
            prow = pivots.get(lead)
            if prow is None:
                if f != 1:
                    inv = pow(f, -1, p)
                    row = {c: v * inv % p for c, v in row.items()}
                pivots[lead] = row
                break
            for c, x in prow.items():
                v = row.get(c)
                if v is None:
                    row[c] = -f * x % p  # nonzero, p being prime
                    heappush(heap, c)
                elif v := (v - f * x) % p:
                    row[c] = v
                else:
                    del row[c]
    return pivots


def _clear_upward(pivots: dict[int, dict[int, int]], p: int) -> None:
    """Reduce monic pivot rows {lead: row}, each zero left of its lead, in
    place to the reduced echelon form: every pivot column is cleared from the
    other rows, last pivot first.  A cleared row has no pivot column but its
    own, so subtracting it brings no pivot column into another row."""
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for c in [c for c in row if c != lead and c in pivots]:
            f = row[c]
            for k, x in pivots[c].items():
                v = (row.get(k, 0) - f * x) % p
                if v:
                    row[k] = v
                else:
                    del row[k]


def _kernel(pivots: dict[int, dict[int, int]], ncols: int, p: int) -> np.ndarray:
    """The kernel basis with the identity on the free columns, from the rows
    {lead: row} of a reduced echelon form mod p."""
    free = [c for c in range(ncols) if c not in pivots]
    at = {f: k for k, f in enumerate(free)}
    N = np.zeros((ncols, len(free)), dtype=np.int64)
    N[free, range(len(free))] = 1
    r, c, v = [], [], []
    for lead, row in pivots.items():
        for col, x in row.items():
            if col != lead:
                r.append(lead)
                c.append(at[col])
                v.append(p - x)
    N[r, c] = v
    return N


def mod_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) % p for int64 inputs with entries in [0, p), in int64,
    reduced mod p after every _chunk(p) inner terms."""
    step = _chunk(p)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise UsageError(f"shape mismatch in mod_matmul: {a.shape} x {b.shape}")
    out = a[:, :step] @ b[:step] % p
    for s in range(step, b.shape[0], step):
        out = (out + a[:, s:s + step] @ b[s:s + step]) % p
    return out


def _chunk(p: int) -> int:
    """How many products of residues mod p an int64 sum holds on top of a
    residue: (2^63 - p) // (p-1)^2, 8,388,672 at TENSOR_PRIME and 2 at
    DEFAULT_PRIME.  The lane check of every dense routine: refuses p unless
    2 <= p and (p-1)^2 < 2^63, which leaves the chunk at least 1.
    """
    if not (2 <= p and (p - 1) ** 2 < 1 << 63):
        raise UsageError(f"modulus {p} outside the int64 lane (2 <= p, (p-1)^2 < 2^63)")
    return ((1 << 63) - p) // (p - 1) ** 2
