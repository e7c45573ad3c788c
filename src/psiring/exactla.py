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

  * the mod-p lane: sparse echelon insertion over rows {col: residue} mod a
    prime p, on Python ints.  Rows are inserted sparsest row first, and each
    is reduced by the monic pivot at its leading column until it claims a new
    column or vanishes.  rank_rows_mod_p counts the pivots; echelon_rows_mod_p
    clears them upward to the reduced echelon form, which depends on the row
    space alone, and so does not depend on the order of insertion;
    kernel_rows_mod_p reads the kernel basis with the identity on the free
    columns off that form, and nullspace_rows_mod_p does both.  The Koszul
    tower builds its blocks as such rows, a few percent dense, and inserting
    their sparsest rows first keeps the pivots sparse.  The dense entry
    points, echelon_mod_p, rank_mod_p, nullspace_mod_p and echelon_nullspace,
    read a 2-d array's nonzero entries into rows and run the same insertion;
    their outputs are int64, so they take any p with 2 <= p and
    (p-1)^2 < 2^63 and refuse another modulus before they read a matrix.
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


def rank_rows_mod_p(rows: list[dict[int, int]], ncols: int, p: int) -> int:
    """Rank mod p of the matrix of ncols columns with these rows {col: residue}:
    the number of pivot rows the echelon insertion keeps."""
    return len(_insert_mod_p(rows, ncols, p))


def echelon_rows_mod_p(rows: list[dict[int, int]], ncols: int,
                       p: int) -> dict[int, dict[int, int]]:
    """The reduced row echelon form mod p of the matrix of ncols columns with
    these rows {col: residue}, as {pivot column: monic row}; every other pivot
    column is zero in each row.  It depends on the row space alone."""
    pivots = _insert_mod_p(rows, ncols, p)
    _clear_upward(pivots, p)
    return pivots


def kernel_rows_mod_p(echelon: dict[int, dict[int, int]], ncols: int,
                      p: int) -> list[dict[int, int]]:
    """The right kernel mod p of a reduced echelon form {pivot column: monic
    row} over ncols columns: one vector {col: residue} per free column f,
    ascending, 1 at f, 0 at the other free columns and -row[f] at each pivot.
    That basis is the only one with the identity on the free columns."""
    kernel = {f: {f: 1} for f in range(ncols) if f not in echelon}
    for lead, row in echelon.items():
        for col, x in row.items():
            if col != lead:
                kernel[col][lead] = p - x
    return list(kernel.values())


def nullspace_rows_mod_p(rows: list[dict[int, int]], ncols: int,
                         p: int) -> list[dict[int, int]]:
    """kernel_rows_mod_p of the reduced echelon form of these rows."""
    return kernel_rows_mod_p(echelon_rows_mod_p(rows, ncols, p), ncols, p)


def echelon_mod_p(a, p: int) -> tuple[np.ndarray, list[int]]:
    """echelon_rows_mod_p of a 2-d array, as (U, pivot columns), U int64 of
    a's shape: pivot t sits at row t with entry 1 at its column, every other
    pivot column is zero in it, and rows below the last pivot are zero.
    Refuses p outside the int64 lane before it reads a."""
    _chunk(p)  # the lane check
    A = np.asarray(a)
    pivots = echelon_rows_mod_p(_sparse_rows(A, p), A.shape[1], p)
    leads = sorted(pivots)
    U = np.zeros(A.shape, dtype=np.int64)
    for t, lead in enumerate(leads):
        row = pivots[lead]
        U[t, list(row)] = list(row.values())
    return U, leads


def rank_mod_p(a, p: int) -> int:
    """rank_rows_mod_p of a 2-d array."""
    _chunk(p)  # the lane check
    A = np.asarray(a)
    return rank_rows_mod_p(_sparse_rows(A, p), A.shape[1], p)


def nullspace_mod_p(a, p: int) -> np.ndarray:
    """nullspace_rows_mod_p of a 2-d array, the vectors as the columns of an
    int64 array of shape ncols x nullity."""
    _chunk(p)  # the lane check
    A = np.asarray(a)
    return _columns(nullspace_rows_mod_p(_sparse_rows(A, p), A.shape[1], p), A.shape[1])


def echelon_nullspace(U: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """nullspace_mod_p on an echelon form (U, pivots) with unit pivots, pivot t
    at row t, so a caller holding one does not eliminate again.

    Clears each pivot column above its pivot, which leaves the reduced echelon
    form, and reads kernel_rows_mod_p off it.  U is left as it was.
    """
    _chunk(p)  # the lane check
    U = np.asarray(U)
    rows = dict(zip(pivots, _sparse_rows(U[: len(pivots)], p)))
    _clear_upward(rows, p)
    return _columns(kernel_rows_mod_p(rows, U.shape[1], p), U.shape[1])


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


def _columns(vectors: list[dict[int, int]], nrows: int) -> np.ndarray:
    """The sparse vectors as the columns of a dense int64 nrows x len(vectors) array."""
    out = np.zeros((nrows, len(vectors)), dtype=np.int64)
    for j, vec in enumerate(vectors):
        out[list(vec), j] = list(vec.values())
    return out


def _insert_mod_p(rows: list[dict[int, int]], ncols: int, p: int) -> dict[int, dict[int, int]]:
    """Echelon insertion of rows {col: residue} mod p, sparsest row first,
    over ncols columns; the rows are left as they were.

    Returns the dict from each leading column to the one monic pivot row that
    starts there.  An incoming row is reduced by the pivot at its leading
    column until it claims a new column or vanishes; once every column is a
    pivot's, every later row vanishes, and none is read.  The leading columns,
    and the reduced form _clear_upward makes of the pivots, depend on the row
    space alone, not on the order of insertion; inserting sparse rows first
    keeps the pivots, and so every later reduction, sparse.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted(rows, key=len):
        if len(pivots) == ncols:
            break
        row = dict(row)
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
