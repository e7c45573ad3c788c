"""Koszul-dual dimension tower for the A_n quadratic algebras.

The degree-k component of the quadratic dual is, up to vector space duality,

    W_k = intersection over s of  V^s (x) R (x) V^(k-2-s)   inside V^(x)k,

where R in V(x)V spans the commutators plus one lift of each pair relation.
If the algebra is Koszul these dimensions must match the coefficients b_k of
1/h(-t), h the total-degree Hilbert series.  The tower is computed two ways:
iteratively (W_j = (W_(j-1) (x) V) intersect (V^(j-2) (x) R), small matrices)
and stacked (one big constraint system, used as the small-case cross-check).

The iterative route never writes a vector of V^(x)k out in words.  It keeps
W_j's basis as its coefficients over W_(j-1) (x) V.  W_(j-2)'s basis is
independent, so membership in V^(j-2) (x) R is one check in R per basis
vector of W_(j-2): stage j has at most dim W_(j-2) * RR rows, RR the number
of check rows of R, where a basis over the words would need v^(j-2) * RR.

Every relation of A_n is multihomogeneous of degree e_i + e_j, so R and each
W_k split into independent blocks, one per Z^n-multidegree.  The iterative
route eliminates R block by block of V (x) V, and builds and solves each
stage's blocks on their own; the block dimensions match the coefficients of
the multigraded 1/h(-q).  The stacked route stays unblocked and
unsymmetrised, as an independent check: it alone eliminates R as one
v^2-wide matrix (relation_space_matrices).

Orbits at the last stage.  The last stage j = kmax needs only dimensions, so
each of its blocks is ranked, columns minus rank, with no nullspace.  Its
relabellings sigma of the points are those slices.block_symmetries
certifies at the tower's own prime (see Orbits in the slices docstring): a
linear substitution of V, invertible over Z, sending block i into block
sigma i, that maps the span of the relations mod the prime onto itself.  R
is spanned by the commutators and the relations' lifts, lifting is linear
up to commutators, and sigma (x) sigma sends a commutator
e_a (x) e_b - e_b (x) e_a to sigma e_a (x) sigma e_b - sigma e_b (x) sigma e_a,
again a combination of commutators, so sigma R = R.  So sigma^(x)k maps each
V^s (x) R (x) V^(k-2-s) onto itself and W_k onto W_k.  It is a linear map
from block to block, not a permutation of words: it maps the block W_k(d)
onto W_k(sigma.d), with inverse sigma^-1's, so the two have the same
dimension mod the prime.  The last stage builds and ranks only the first
block of each orbit (slices.orbit_representatives) and gives its dimension
to the rest of the orbit.  Earlier stages keep every block's nullspace: their kernel bases feed
the next stage, and a basis chosen by elimination is not sigma-equivariant,
so no basis is carried across an orbit.

Arithmetic runs mod TENSOR_PRIME, a prime just below 2^20, in exactla's
mod-p lane, on Python ints and with no numpy: in both routes every matrix,
basis and check row is kept as sparse rows {col: residue}, a few percent of
each tower block nonzero.  Each block's rows are built straight from the
sparse bases and check rows, and eliminated by sparse echelon insertion,
sparsest row first; the stacked system is ranked by the same insertion.
Intersection dimensions over a prime field can only exceed the rational
ones.  koszul_summary computes the tower at one prime and only on a mismatch
with the prediction at a second one, keeping the smaller value of each
stage; a match at one prime is one-sided evidence.

Work is refused with a BudgetError when the matrices would exceed the element
budget; the refusal carries the estimate.  The estimate is the dense bound on
the whole stage, A*RR x U*v with A = v^(j-2) words.  It over-counts the rows
actually built on purpose, so the refusal threshold does not depend on how a
stage is solved, nor on how many of its blocks are ranked, and it stays a
count of dense entries though the rows kept are sparse.
It is checked up front from the predicted dimensions, before any work, and
again per stage on the actual ones.  Stage 2, R itself, is checked first, on
the echelon and check rows its blocks of V (x) V keep when a stage 3
follows, width^2 entries each and n(2n-1)(n-2)^4 in all, though no block is
wider than 2(n-2)^2; at kmax = 2 every block is only ranked, under the same
check.  The up-front check expands the prediction only as far as the first
stage j with v^(j-1) > budget, which is refused whenever W_(j-1) is
nonzero; once a stage's dimension is 0 every later one is 0, and no further
stage is built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb

from .errors import BudgetError, UsageError
from .exactla import echelon_rows_mod_p, kernel_rows_mod_p, nullspace_rows_mod_p, rank_rows_mod_p
from .fields import TENSOR_PRIME, TENSOR_RETRY_PRIME
from .presentation import PivotScheme, PresentationSpec, build_an, tensor_relation_space
from .slices import block_symmetries, orbit_representatives

# refuse any stage whose main matrix would exceed this many entries
DEFAULT_ELEMENT_BUDGET = 200_000_000


def koszul_prediction(n: int, kmax: int) -> list[int]:
    """b_0..b_kmax: coefficients of 1/h(-t) for the total Hilbert series of A_n.

    h(t) = (1+(n-1)t)^(n-3) / (1-t)^(2n-3), so 1/h(-t) = (1+t)^(2n-3) / (1-(n-1)t)^(n-3)
    and b_k = sum_j C(2n-3, j) C(k-j+n-4, n-4) (n-1)^(k-j), which is C(3, k) at n = 3.
    The tests check it against series.invert_unit_series applied to total_hilbert.
    """
    if n < 3:
        raise UsageError(f"koszul_prediction needs n >= 3, got {n}")
    if kmax < 0:
        raise UsageError(f"negative degree {kmax}")
    d = 2 * n - 3
    if n == 3:
        return [comb(d, k) for k in range(kmax + 1)]
    return [sum(comb(d, j) * comb(k - j + n - 4, n - 4) * (n - 1) ** (k - j)
                for j in range(min(k, d) + 1))
            for k in range(kmax + 1)]


def b2_structural(n: int) -> int:
    """Independent count of dim R: commutators plus lifted pair relations."""
    v = n * (n - 2)
    return comb(v, 2) + comb(n, 2) * (n - 3)


def relation_space_matrices(spec: PresentationSpec) -> list[dict[int, int]]:
    """C, the membership check of spec's R in V(x)V mod TENSOR_PRIME, as rows
    {col: residue} over v^2 columns (x lies in R exactly when every row of C
    annihilates it), read off the reduced echelon form of R's spanning rows
    with no second elimination.  Only the stacked route builds it; the tower
    eliminates R one block at a time."""
    ncols, p = spec.nvars ** 2, TENSOR_PRIME
    rows = [{k: r for k, c in row.items() if (r := c % p)} for row in tensor_relation_space(spec)]
    return nullspace_rows_mod_p(rows, ncols, p)


def dual_tower(
    n: int,
    kmax: int,
    prime: int = TENSOR_PRIME,
    budget: int = DEFAULT_ELEMENT_BUDGET,
    pivot: PivotScheme | None = None,
) -> list[int]:
    """[dim W_0, ..., dim W_kmax] computed iteratively mod the prime.

    Raises BudgetError when a stage's matrices would exceed the budget: before
    any work on the predicted dimensions, and per stage on the actual ones.
    """
    if n < 3:
        raise UsageError(f"dual tower needs n >= 3, got {n}")
    if kmax < 0:
        raise UsageError(f"negative degree {kmax}")
    dims = [1, n * (n - 2)][: kmax + 1]
    if kmax >= 2:
        dims += [sum(blocks.values()) for blocks in _dual_blocks(n, kmax, prime, budget, pivot)]
    return dims


def _refuse(what: str, est: int, budget: int) -> None:
    """BudgetError, carrying the estimate, when what needs est > budget entries."""
    if est > budget:
        raise BudgetError(f"{what} ({est} entries > budget {budget})", estimate=est, budget=budget)


def _refuse_stage(n: int, j: int, v: int, U: int, RR: int, budget: int) -> None:
    """BudgetError when stage j's dense bound, A*RR x U*v with A = v^(j-2), is too big."""
    A = v ** (j - 2)
    _refuse(f"stage k={j} for n={n} needs a {A * RR} x {U * v} matrix", A * RR * U * v, budget)


def _shift(d: tuple[int, ...], t: int, by: int) -> tuple[int, ...]:
    """The multidegree d + by * e_t."""
    return d[:t] + (d[t] + by,) + d[t + 1:]


def _layout(dims: dict[tuple[int, ...], int], size: list[int]) -> tuple[dict, Counter]:
    """The columns (u, b) of W (x) V per block, from dim W per multidegree: block
    d gets one chunk (beta, t) of dims[beta] * size[t] columns, u-major, for each
    beta + e_t = d.  Returns each chunk's first column and each block's width."""
    start: dict[tuple, int] = {}
    width: Counter = Counter()
    for beta, k in dims.items():
        for t in range(len(size)):
            d = _shift(beta, t, 1)
            start[beta, t] = width[d]
            width[d] += k * size[t]
    return start, width


def _dual_blocks(
    n: int, kmax: int, prime: int, budget: int, pivot: PivotScheme | None
) -> list[dict[tuple[int, ...], int]]:
    """dim W_k per Z^n-multidegree, for k = 2..kmax, one block at a time.

    Every matrix and basis is kept as sparse rows {col: residue} mod the prime.
    Each W_j is kept per block d as its basis Y_d, vectors over W_(j-1) (x) V:
    entry (u, b) of a vector is its coefficient of w_u (x) e_b, laid out by
    _layout.  W_2 = R: the rows of tensor_relation_space are grouped by their
    degree e_s + e_t (a row that mixes degrees is refused), and each block of
    V (x) V = W_1 (x) V is eliminated on its own.  At kmax = 2 the blocks are
    only ranked.  Otherwise their reduced echelon rows are Y_rho, and their
    kernel (exactla.kernel_rows_mod_p) gives the check rows C_rho: x lies in
    R exactly when C_rho x_rho == 0 for every block rho (the identity where
    no row spans).

    At stage j the basis w_p of W_(j-2) is independent and W_(j-1) lies in
    W_(j-2) (x) V, so sum y[u,b] w_u (x) e_b lies in V^(j-2) (x) R exactly
    when every slice z_p[c,b] = sum_u N[u,(p,c)] y[u,b] lies in R, N[u,(p,c)]
    the coefficient of w_p (x) e_c in w_u: the stage matrix is
    M[(p,r),(u,b)] = sum_c N[u,(p,c)] C[r,(c,b)], its rows indexed by the
    basis of W_(j-2), not by the words of V^(x)(j-2).  For w_u in
    W_(j-1)(beta) and c in block t, N[u,(p,c)] lies in the chunk
    (beta - e_t, t) of w_u.  M only couples a row and a column of one
    multidegree d = deg p + deg r = deg u + e_b, and each block d gets its own
    nullspace, the next Y_d; at the last stage only the first block of each
    orbit is built, and only ranked (see Orbits at the last stage in the
    module docstring).  The rows are built from each w_u's nonzeros, walked
    once: an entry x at (p, c) of chunk t meets, for every block t2 of b, the
    check rows r of R's block e_t + e_t2 with an entry y at some (c, b), and
    adds x * y at column (u, b) of row (p, r) of block deg u + e_t2.  The sums
    run on ints and each row is reduced mod the prime once.
    """
    v = n * (n - 2)
    # stage 2 keeps width^2 entries per block of V (x) V: 2(n-2)^2 wide for the
    # C(n,2) blocks e_s + e_t, s != t, and (n-2)^2 for the n blocks 2e_s
    _refuse(f"stage k=2 for n={n} keeps the echelon and check rows of its blocks",
            n * (2 * n - 1) * (n - 2) ** 4, budget)
    # refuse before any work, on the predicted dimensions, up to the first
    # stage j with v^(j-1) > budget: it and every later stage are refused
    # unless W_(j-1) = 0, and the checks in the loop cover that case
    top = 3
    while top < kmax and v ** (top - 1) <= budget:
        top += 1
    pred = koszul_prediction(n, top)
    for j in range(3, min(top, kmax) + 1):
        _refuse_stage(n, j, v, pred[j - 1], v * v - pred[2], budget)
    spec = build_an(n, pivot)
    blocks, positions = spec.blocks, spec.block_positions()
    size = [len(ps) for ps in positions]
    place = {a: i for ps in positions for i, a in enumerate(ps)}  # within its block
    e = [_shift((0,) * n, t, 1) for t in range(n)]
    p_dims = dict(zip(e, size))  # W_1 = V, block e_t spanned by the variables of block t
    r_at, width = _layout(p_dims, size)
    spans: dict[tuple[int, ...], list[dict]] = {d: [] for d in width}
    for i, row in enumerate(tensor_relation_space(spec)):
        cells: dict[tuple[int, ...], dict] = {}
        for k, c in row.items():
            a, b = divmod(k, v)
            s, t = blocks[a], blocks[b]
            cells.setdefault(_shift(e[s], t, 1), {})[
                r_at[e[s], t] + place[a] * size[t] + place[b]] = c
        if len(cells) != 1:
            raise AssertionError(f"relation-space row {i} is zero or not multihomogeneous")
        (d, cols), = cells.items()
        spans[d].append({k: r for k, c in cols.items() if (r := c % prime)})
    if kmax == 2:  # the last stage: ranked, with no basis or check rows kept
        return [{d: k for d, rows in spans.items()
                 if (k := rank_rows_mod_p(rows, width[d], prime))}]
    W: dict[tuple[int, ...], list[dict]] = {}  # per block: the last W's basis Y_d
    C: dict[tuple[int, ...], list[dict]] = {}  # and R's check rows
    for d, rows in spans.items():
        B = echelon_rows_mod_p(rows, width[d], prime)
        W[d] = [B[lead] for lead in sorted(B)]
        C[d] = kernel_rows_mod_p(B, width[d], prime)
    RR = sum(len(c) for c in C.values())
    # checks[t, t2] = (rho, by_c): R's block rho = e_t + e_t2 and, for each c of
    # block t, (r, [(b, y), ...]) for each check row r with entries y at (c, b)
    checks: dict[tuple[int, int], tuple] = {}
    for t in range(n):
        for t2 in range(n):
            rho, r0, nb = _shift(e[t], t2, 1), r_at[e[t], t2], size[t2]
            by_c: list[list] = [[] for _ in range(size[t])]
            for r, crow in enumerate(C[rho]):
                at_c: dict[int, list] = {}
                for k, y in crow.items():
                    if r0 <= k < r0 + size[t] * nb:
                        c, b = divmod(k - r0, nb)
                        at_c.setdefault(c, []).append((b, y))
                for c, ents in at_c.items():
                    by_c[c].append((r, ents))
            checks[t, t2] = rho, by_c
    out = [{d: len(Y) for d, Y in W.items() if Y}]
    at = r_at  # W_(j-1)'s layout; p_dims is dim W_(j-2) per block
    for j in range(3, kmax + 1):
        W = {d: Y for d, Y in W.items() if Y}
        u_dims = {d: len(Y) for d, Y in W.items()}
        U = sum(u_dims.values())
        if U == 0:  # W_(j-1) = 0, so W_k = 0 for every k >= j-1
            out += [{} for _ in range(j, kmax + 1)]
            break
        _refuse_stage(n, j, v, U, RR, budget)
        col_at, ncols = _layout(u_dims, size)
        # each block's representative: at the last stage the first block of its
        # orbit under the certified symmetries, which alone is built and ranked
        last = j == kmax
        grid = list(ncols)
        reps = dict(zip(grid, orbit_representatives(
            block_symmetries(spec, prime) if last else (), grid)))
        ranked = {d for d, rep in reps.items() if rep == d}
        # each ranked block's rows, one dict per R's block rho = deg r (deg p is
        # d - rho), the row (p, r) keyed by p * nr + r, nr = len(C[rho])
        chunks: dict[tuple[int, ...], dict[tuple[int, ...], dict[int, dict]]] = {
            d: {} for d in ranked}
        for beta, Y in W.items():
            up = [_shift(beta, t2, 1) for t2 in range(n)]
            where: dict[int, tuple[int, int, int]] = {}  # column of Y_beta -> (t, p, c)
            targets: list[list] = [[] for _ in range(n)]  # per t: what a c of block t meets
            for t in range(n):
                alpha = _shift(beta, t, -1)
                if (alpha, t) not in at:
                    continue
                c0, nc = at[alpha, t], size[t]
                for k in range(p_dims[alpha] * nc):
                    where[c0 + k] = (t, *divmod(k, nc))
                for t2, d in enumerate(up):
                    rho, by_c = checks[t, t2]
                    if d in ranked and C[rho]:
                        targets[t].append((chunks[d].setdefault(rho, {}), len(C[rho]),
                                           col_at[beta, t2], size[t2], by_c))
            for u, w in enumerate(Y):
                for col, x in w.items():
                    t, p, c = where[col]
                    for chunk, nr, c0, nb, by_c in targets[t]:
                        base, pr = c0 + u * nb, p * nr
                        for r, ents in by_c[c]:
                            row = chunk.get(pr + r)
                            if row is None:
                                row = chunk[pr + r] = {}
                            for b, y in ents:
                                k = base + b
                                row[k] = row.get(k, 0) + x * y
        dims: dict[tuple[int, ...], int] = {}
        nxt: dict[tuple[int, ...], list[dict]] = {}
        for d, rep in reps.items():
            if rep != d:  # ranked earlier, as its representative
                dims[d] = dims[rep]
                continue
            M = [red for chunk in chunks.pop(d).values() for row in chunk.values()
                 if (red := {k: r for k, x in row.items() if (r := x % prime)})]
            if last:
                dims[d] = ncols[d] - rank_rows_mod_p(M, ncols[d], prime)
            else:
                nxt[d] = nullspace_rows_mod_p(M, ncols[d], prime)
                dims[d] = len(nxt[d])
        out.append({d: k for d, k in dims.items() if k})
        p_dims, at, W = u_dims, col_at, nxt
    return out


def _refuse_dense(what: str, nrows: int, ncols: int) -> None:
    """BudgetError when an nrows x ncols matrix, counted dense, exceeds
    DEFAULT_ELEMENT_BUDGET entries."""
    _refuse(f"{what} is {nrows} x {ncols}", nrows * ncols, DEFAULT_ELEMENT_BUDGET)


def dual_dimension_stacked(n: int, k: int) -> int:
    """Same dimension from one stacked constraint system on all of V^(x)k,
    mod TENSOR_PRIME under the cyclic pivot.

    Exponentially larger than the iterative route; it exists as the
    independent cross-check on small cases.  The system is kept as sparse
    rows, each row of C shifted into every slot V^s (x) R (x) V^(k-2-s), and
    ranked by the tower's own echelon insertion, but it is refused when its
    dense size would exceed DEFAULT_ELEMENT_BUDGET entries, as the tower's
    stages are.  The refusals come before A_n is built: on the stacked
    system's (k-1) * RR * v^(k-2) rows, with RR = v^2 - b2_structural(n)
    check rows, a lower bound that is exact when the relations are
    independent, and on the relation space's b2_structural(n) spanning rows
    over v^2 columns.  The actual RR is checked again after.
    """
    if n < 3 or k < 0:
        raise UsageError(f"bad stacked-dual arguments n={n}, k={k}")
    v = n * (n - 2)
    if k == 0:
        return 1
    if k == 1:
        return v
    b2, unknowns = b2_structural(n), v ** k
    _refuse_dense("stacked system", (k - 1) * (v * v - b2) * v ** (k - 2), unknowns)
    _refuse_dense("relation space", b2, v * v)
    C = relation_space_matrices(build_an(n))
    nrows = (k - 1) * len(C) * v ** (k - 2)
    _refuse_dense("stacked system", nrows, unknowns)
    rows = []
    for s in range(k - 1):
        L, Rn = v ** s, v ** (k - 2 - s)
        for i1 in range(L):
            for i2 in range(Rn):
                colbase = (i1 * v * v) * Rn + i2
                rows += ({colbase + Rn * c: x for c, x in crow.items()} for crow in C)
    assert len(rows) == nrows
    return unknowns - rank_rows_mod_p(rows, unknowns, TENSOR_PRIME)


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
    budget: int = DEFAULT_ELEMENT_BUDGET,
    pivot: PivotScheme | None = None,
) -> KoszulSummary:
    """Compute the tower at TENSOR_PRIME, compare to the prediction, and on a
    mismatch recompute at TENSOR_RETRY_PRIME.

    Dimensions mod p can only exceed the rational ones, so each stage keeps
    the smaller of its two values.  A mismatch that survives is reported
    as-is ('informative').
    """
    dims = dual_tower(n, kmax, TENSOR_PRIME, budget, pivot)
    pred = koszul_prediction(n, kmax)
    primes = [TENSOR_PRIME]
    if any(d != p for d, p in zip(dims, pred)):
        dims2 = dual_tower(n, kmax, TENSOR_RETRY_PRIME, budget, pivot)
        primes.append(TENSOR_RETRY_PRIME)
        dims = [min(a, b) for a, b in zip(dims, dims2)]
    stages = tuple(KoszulStage(k, dims[k], pred[k]) for k in range(kmax + 1))
    return KoszulSummary(n=n, kmax=kmax, primes=tuple(primes), stages=stages)
