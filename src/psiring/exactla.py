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

  * the int64 lane: dense linear algebra mod p, for any p with 2 <= p and
    (p-1)^2 < 2^63, so that no product of two residues overflows; every
    routine refuses another modulus before it reads a matrix.  echelon_mod_p
    eliminates forward, one pivot at a time, behind rank_mod_p;
    echelon_nullspace clears the pivot columns upward with the same update
    and reads the kernel off the reduced form, behind nullspace_mod_p.  The
    Koszul tower's blocks, its relation space's included, are a few percent
    dense, and each update touches only the rows that are nonzero in the
    pivot column.  mod_matmul sums at most _chunk(p) products of residues
    between reductions, so no int64 sum overflows.
"""

from __future__ import annotations

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
    """Row echelon form mod p with pivot entries scaled to 1, by per-pivot
    forward elimination in int64.

    Returns (U, pivot columns); pivot t sits at row t.  Rows below the last
    pivot are zero.  Each pivot updates only the rows below it that are
    nonzero in its column, which keeps the sparse matrices psiring eliminates
    cheap.  Refuses p outside the int64 lane before it reads a.
    """
    _chunk(p)  # the lane check
    A = np.asarray(a).astype(np.int64, copy=True)
    np.mod(A, p, out=A)
    nrows, ncols = A.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        inv = pow(int(A[r, c]), -1, p)
        A[r] = (A[r] * inv) % p
        _clear(A, r, c, r + 1, nrows, p)
        pivots.append(c)
        r += 1
    return A, pivots


def _clear(A: np.ndarray, t: int, c: int, lo: int, hi: int, p: int) -> None:
    """Zero column c in rows lo..hi-1 of A by subtracting multiples of row t,
    whose entry in column c is 1; only the rows nonzero in column c change."""
    idx = lo + np.nonzero(A[lo:hi, c])[0]
    if idx.size:
        A[idx] = (A[idx] - np.outer(A[idx, c], A[t])) % p


def rank_mod_p(a, p: int) -> int:
    return len(echelon_mod_p(a, p)[1])


def nullspace_mod_p(a, p: int) -> np.ndarray:
    """Columns form a basis of the right kernel mod p (int64, shape ncols x nullity)."""
    return echelon_nullspace(*echelon_mod_p(a, p), p)


def echelon_nullspace(U: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """nullspace_mod_p on an echelon form (U, pivots) as echelon_mod_p returns
    it, so a caller holding one does not eliminate twice.

    Clears each pivot column above its pivot, last pivot first, which leaves
    the reduced echelon form R; the kernel vector of free column f is 1 at f,
    0 at the other free columns and -R[:, f] at the pivots.  That basis is the
    only one with the identity on the free columns.  U is left as it was.
    """
    _chunk(p)  # the lane check
    r, ncols = len(pivots), U.shape[1]
    R = np.array(U[:r], dtype=np.int64)
    for t in range(r - 1, 0, -1):
        _clear(R, t, pivots[t], 0, t, p)
    pivset = set(pivots)
    free = np.array([c for c in range(ncols) if c not in pivset], dtype=np.intp)
    N = np.zeros((ncols, free.size), dtype=np.int64)
    N[free, np.arange(free.size)] = 1
    N[pivots] = (-R[:, free]) % p
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
