"""Exact rank and nullspace computations.

Three lanes, used as independent routes and cross-checked in the tests,
where a fraction-free Bareiss elimination is the reference over Z:

  * the sparse lane: sparse_echelon, one echelon insertion over sparse integer
    rows, over Z only.  A dict maps each leading column to its pivot row; an
    incoming row is reduced by the pivot at its leading column until it
    claims a new column or vanishes, and has its content stripped, which
    gives the rank over Q exactly.  rank_sparse_rational ranks there and,
    given a prime p, also certifies that the rank mod p is the same (the
    lucky-prime argument), so one elimination stands in for both.  The slices
    and the Jacobian at a rational point rank there.  singular's linear
    preprocessing (groebner.linear_interreduce) reads the pivot rows back as
    polynomials, certified at the characteristic over a prime field.

  * the int64 lane: dense per-pivot elimination mod p, reached only through
    echelon_mod_p.  Requires (p-1)^2 < 2^63.

  * the float64 lane: panel LU with BLAS Schur updates mod p, taken by
    echelon_mod_p for p below 2^20 on matrices at least 64 on each side.
    nullspace_mod_p's back-substitution (echelon_nullspace) and mod_matmul
    run in float64 only, and refuse p of 2^20 and above.  Every accumulated
    dot product stays below 2^53: the panel width bounds the elimination,
    and the products are reduced mod p after every _float_chunk(p) terms.
    This is what makes the big tensor ranks in the Koszul computations fast.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .errors import UsageError

FLOAT_LANE_MAX_PRIME = 1 << 20
_MANTISSA = 1 << 53
_PANEL = 128


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
    pivots = sparse_echelon(rows, p)
    lucky = p is not None and all(prow[lead] % p for lead, prow in pivots.items())
    return len(pivots), lucky


def sparse_echelon(rows: list[dict], lucky: int | None = None) -> dict[int, dict]:
    """Echelon insertion of sparse integer rows over Z.

    Returns the dict from each leading column to the one pivot row that starts
    there.  Each incoming row is reduced by the pivot at its leading column
    until it claims a column of its own or vanishes.  The pivot rows are
    primitive integer rows (content stripped), except that factors of the
    prime lucky stay in.  Zero entries are dropped.
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        _strip_content(row, lucky)
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = row
                break
            _reduce_z(row, prow, lead, lucky)
    return pivots


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

def as_mod_array(a, p: int) -> np.ndarray:
    """Copy input into an int64 array with entries reduced into [0, p)."""
    arr = np.asarray(a).astype(np.int64, copy=True)
    np.mod(arr, p, out=arr)
    return arr


def rows_to_dense(rows: list[dict], ncols: int, p: int) -> np.ndarray:
    """Materialize sparse integer rows as a dense int64 array reduced mod p."""
    out = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        for c, v in row.items():
            out[i, c] = v % p
    return out


def echelon_mod_p(a, p: int) -> tuple[np.ndarray, list[int]]:
    """Row echelon form mod p with pivot entries scaled to 1.

    Returns (U, pivot columns); pivot t sits at row t.  Rows below the last
    pivot are zero.  Dispatches to the float64 panel lane when profitable.
    """
    A = as_mod_array(a, p)
    if A.size == 0:
        return A, []
    if p < FLOAT_LANE_MAX_PRIME and min(A.shape) >= 64:
        U, piv = _echelon_float(A.astype(np.float64), p)
        return U.astype(np.int64), piv
    return _echelon_int(A, p)


def rank_mod_p(a, p: int) -> int:
    return len(echelon_mod_p(a, p)[1])


def nullspace_mod_p(a, p: int) -> np.ndarray:
    """Columns form a basis of the right kernel mod p (int64, shape ncols x nullity).

    p must be below FLOAT_LANE_MAX_PRIME: the back-substitution runs in float64.
    """
    _float_chunk(p)  # refuses a prime outside the float64 lane before eliminating
    return echelon_nullspace(*echelon_mod_p(a, p), p)


def echelon_nullspace(U: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """nullspace_mod_p's back-substitution, on an echelon form (U, pivots) as
    echelon_mod_p returns it, so a caller holding one does not eliminate twice."""
    step = _float_chunk(p)
    ncols = U.shape[1]
    r = len(pivots)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    N = np.zeros((ncols, len(free)), dtype=np.int64)
    if not free:
        return N
    for j, fc in enumerate(free):
        N[fc, j] = 1
    if r == 0:
        return N
    # back-substitution, vectorized across all free columns at once
    Uf = U[:r].astype(np.float64)
    X = np.zeros((r, len(free)), dtype=np.float64)
    freecols = np.array(free, dtype=np.intp)
    pivcols = np.array(pivots, dtype=np.intp)
    for t in range(r - 1, -1, -1):
        rhs = Uf[t, freecols]
        if t + 1 < r:
            rhs = rhs + _dot_mod(Uf[t, pivcols[t + 1:]], X[t + 1:], p, step)
        X[t] = (-rhs) % p
    for t, pc in enumerate(pivots):
        N[pc] = X[t]
    return N


def mod_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) % p for int64 inputs with entries in [0, p), p < FLOAT_LANE_MAX_PRIME.

    One float64 BLAS lane, exact for any inner size (see _dot_mod).
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise UsageError(f"shape mismatch in mod_matmul: {a.shape} x {b.shape}")
    step = _float_chunk(p)
    return _dot_mod(a.astype(np.float64), b.astype(np.float64), p, step).astype(np.int64)


def _float_chunk(p: int) -> int:
    """How many products of residues mod p one float64 dot product sums exactly.

    floor((2^53 - 1) / (p - 1)^2), 8192 at TENSOR_PRIME.  Refuses p outside
    [2, FLOAT_LANE_MAX_PRIME).
    """
    if not 2 <= p < FLOAT_LANE_MAX_PRIME:
        raise UsageError(f"modulus {p} outside the float64 lane (2 <= p < {FLOAT_LANE_MAX_PRIME})")
    return (_MANTISSA - 1) // (p - 1) ** 2


def _dot_mod(a: np.ndarray, b: np.ndarray, p: int, step: int) -> np.ndarray:
    """(a @ b) % p for float64 residues, reduced after every `step` inner terms."""
    out = a[..., :step] @ b[:step] % p
    for s in range(step, b.shape[0], step):
        out = (out + a[..., s:s + step] @ b[s:s + step] % p) % p
    return out


def _echelon_int(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Per-pivot forward elimination in int64.  Safe for p < 2^31.5."""
    if (p - 1) ** 2 >= (1 << 63):
        raise UsageError(f"prime {p} too large for the int64 lane")
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
        below = np.nonzero(A[r + 1:, c])[0]
        if below.size:
            idx = r + 1 + below
            A[idx] = (A[idx] - np.outer(A[idx, c], A[r])) % p
        pivots.append(c)
        r += 1
    return A, pivots


def _echelon_float(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Right-looking panel LU mod p in float64; pivot rows end up scaled to 1.

    Multipliers are stored in place below each pivot (classic LU storage), the
    trailing pivot-row blocks are brought up to date with a small triangular
    solve, and the rows below the panel get one BLAS Schur update per panel.
    """
    assert _PANEL * (p - 1) ** 2 < _MANTISSA, "panel too wide for exact float64"
    nrows, ncols = A.shape
    pivots: list[int] = []
    r = 0
    c0 = 0
    while c0 < ncols and r < nrows:
        c1 = min(c0 + _PANEL, ncols)
        ppiv: list[tuple[int, int]] = []  # (pivot row, pivot col) of this panel
        pinv: list[float] = []
        for c in range(c0, c1):
            rr = r + len(ppiv)
            if rr == nrows:
                break
            nz = np.nonzero(A[rr:, c])[0]
            if nz.size == 0:
                continue
            piv = rr + int(nz[0])
            if piv != rr:
                A[[rr, piv]] = A[[piv, rr]]
            inv = float(pow(int(A[rr, c]), -1, p))
            # scale the panel part of the pivot row to a unit pivot right away;
            # the trailing part is scaled in the triangular phase below
            A[rr, c:c1] = np.mod(A[rr, c:c1] * inv, p)
            below = np.nonzero(A[rr + 1:, c])[0]
            if below.size:
                idx = rr + 1 + below
                mult = A[idx, c].copy()  # multiplier w.r.t. the scaled pivot row
                if c + 1 < c1:
                    A[idx, c + 1:c1] = np.mod(A[idx, c + 1:c1] - np.outer(mult, A[rr, c + 1:c1]), p)
                A[idx, c] = mult
            ppiv.append((rr, c))
            pinv.append(inv)
        if ppiv:
            k = len(ppiv)
            prows = [pr for pr, _ in ppiv]
            pcols = [pc for _, pc in ppiv]
            # bring the pivot rows' trailing blocks up to date (unit triangular solve,
            # ascending so every row used is already final), then scale them
            for t in range(k):
                pr = prows[t]
                if c1 < ncols:
                    if t > 0:
                        coeffs = A[pr, pcols[:t]]
                        nzc = np.nonzero(coeffs)[0]
                        if nzc.size:
                            rows_used = [prows[s] for s in nzc]
                            A[pr, c1:] = np.mod(A[pr, c1:] - coeffs[nzc] @ A[rows_used, c1:], p)
                    A[pr, c1:] = np.mod(A[pr, c1:] * pinv[t], p)
                A[pr, pcols[:t]] = 0.0
            lo = prows[-1] + 1
            if lo < nrows:
                L = A[np.ix_(range(lo, nrows), pcols)]
                if c1 < ncols and np.any(L):
                    A[lo:, c1:] = np.mod(A[lo:, c1:] - L @ A[prows, c1:], p)
                A[np.ix_(range(lo, nrows), pcols)] = 0.0
            pivots.extend(pcols)
            r += k
        c0 = c1
    return A, pivots
