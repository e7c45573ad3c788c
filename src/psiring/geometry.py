"""Rational point configurations and the geometry-side checks.

A point of the variety comes from a configuration: distinct points z_1..z_n
(plus extra points q_1..q_m for the B family) on the affine line and nonzero
weights lam_1..lam_n.  The building block is the pole value

    atilde(i, j) = lam_i / (p_j - z_i),   p = (z_1..z_n, q_1..q_m)

and the presentation variables are differences of these against the pivot
channel (the last extra point for the B family), so every relation vanishes
at every configuration: that is the point-sampling side of presentation
correctness, checked in exact integer arithmetic after clearing denominators.
Each configuration of either family gets one pole table, built in integers:
numerators over a common denominator (pole_table).  That one table feeds the
coordinates (every coordinate is a difference of two of its entries, kept
over the table's denominator, and the vanishing test reads those integers)
and the channel check.

The pole values give the channel-independence check: each pair product
takes one value whatever third point k it is measured through (cij_values,
channels_consistent).

The same values drive the local analysis: Jacobian rank at sampled smooth
points, and the singular locus as the vanishing of the relations plus the
codimension-sized minors of the Jacobian, expanded on packed codes over Z.
Every check reads the relations as the spec stores them, integer quadratic
forms: the vanishing test is a sum of c * x_a * x_b over the cleared
coordinates, and the Jacobian is one integer linear form per entry,
evaluated for the rank and expanded for the minors.  The minors are integer
polynomials whatever the spec's field, like the relations
(relation_polys); the singular locus's Groebner run reads both mod p, over
a prime field, as it packs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm

from .errors import BudgetError, UsageError
from .exactla import rank_sparse_rational
from .groebner import buchberger, groebner_for, krull_dimension, linear_interreduce
from .orders import Packing
from .presentation import PresentationSpec, presentation_size, relation_polys
from .rng import SplitMix64
from .symbols import Alpha

DEFAULT_MINOR_BUDGET = 20_000


@dataclass(frozen=True)
class PointConfig:
    """Distinct marked points, extra points, and nonzero weights, all rational."""

    z: tuple[Fraction, ...]
    q: tuple[Fraction, ...]
    lam: tuple[Fraction, ...]

    def validate(self):
        pts = list(self.z) + list(self.q)
        if len(set(pts)) != len(pts):
            raise UsageError("marked and extra points must be pairwise distinct")
        if any(l == 0 for l in self.lam):
            raise UsageError("weights must be nonzero")
        if len(self.lam) != len(self.z):
            raise UsageError("need one weight per marked point")


def sample_config(n: int, m: int, seed: int) -> PointConfig:
    """Deterministic small-integer configuration: distinct points, nonzero weights."""
    rng = SplitMix64(seed)
    pts = rng.distinct_ints(n + m, -50, 50)
    lam = tuple(Fraction(rng.nonzero_int(20)) for _ in range(n))
    return PointConfig(
        z=tuple(Fraction(v) for v in pts[:n]),
        q=tuple(Fraction(v) for v in pts[n:]),
        lam=lam,
    )


def pole_table(cfg: PointConfig) -> tuple[int, dict[tuple[int, int], int]]:
    """(den, {(i, j): den * atilde(i,j)}) for every marked point i and every
    other point j, extra point r at j = n + r; den the lcm of the pole values'
    denominators.  Refuses an invalid configuration before any division.

    Integer arithmetic throughout: with P (scale) the lcm of the points'
    denominators, atilde(i,j) = (lam_i.num * P) / (lam_i.den * (P p_j - P z_i)),
    reduced by one gcd.  A negative reduced denominator needs no sign flip:
    lcm ignores signs, and den // b carries b's sign into the entry.
    """
    cfg.validate()
    pts = cfg.z + cfg.q
    scale = lcm(*(x.denominator for x in pts))
    cleared = [x.numerator * (scale // x.denominator) for x in pts]
    reduced = {}
    for i, (zi, lam) in enumerate(zip(cleared, cfg.lam), start=1):
        top = lam.numerator * scale
        for j, pj in enumerate(cleared, start=1):
            if j != i:
                bottom = lam.denominator * (pj - zi)
                g = gcd(top, bottom)
                reduced[i, j] = (top // g, bottom // g)
    den = lcm(*(b for _, b in reduced.values()))
    return den, {key: a * (den // b) for key, (a, b) in reduced.items()}


def _table_points(poles: dict[tuple[int, int], int]) -> tuple[int, int]:
    """(n, n + m) of a pole table: its marked points and all its points."""
    return max((i for i, _ in poles), default=0), max((j for _, j in poles), default=0)


def alpha_values(spec: PresentationSpec,
                 table: tuple[int, dict[tuple[int, int], int]]) -> tuple[int, list[int]]:
    """Coordinates of a configuration's point, one value per presentation
    variable, read from the configuration's pole table and left over its den:
    (den, numerators), the point cleared to integers.

    Each variable is a pole-table difference atilde(i,j) - atilde(i,base):
    A_n measures against the pivot p(i), B_(n,m) against the last extra point,
    and phi[r,i] reads extra point r as j = n + r.
    """
    den, poles = table
    n, npts = _table_points(poles)
    if (n, npts) != (spec.n, spec.n + spec.m):
        raise UsageError(
            f"pole table has ({n},{npts - n}) points, spec needs ({spec.n},{spec.m})"
        )
    out: list[int] = []
    for var in spec.variables:
        i, j = (var.i, var.j) if isinstance(var, Alpha) else (var.i, spec.n + var.r)
        base = spec.pivot.pivot_of(i, spec.n) or spec.n + spec.m
        out.append(poles[i, j] - poles[i, base])
    return den, out


def verify_vanishing(spec: PresentationSpec, point: tuple[int, list[int]]) -> list[int]:
    """Indices of relations that fail to vanish at the point (empty = all vanish).

    The point comes cleared to integers, (den, numerators) as alpha_values
    gives it, den nonzero.  Each relation is an integer quadratic form, and
    its value at the numerators is den^2 times its value at the point: the
    same zero test.
    """
    if spec.field:
        raise UsageError("vanishing checks run in exact rational arithmetic")
    _, x = point
    if len(x) != spec.nvars:
        raise UsageError(f"point has {len(x)} coordinates, {spec.name()}"
                         f" has {spec.nvars} variables")
    return [t for t, terms in enumerate(spec.relations)
            if sum(c * x[a] * x[b] for a, b, c in terms)]


# -- consistency of the pair products across channels ------------------------------

def cij_values(poles: dict[tuple[int, int], int], i: int, j: int, npts: int) -> list[int]:
    """For each point k <= npts outside {i,j}, in increasing order:
    atilde(i,k)atilde(j,k) - atilde(i,j)atilde(j,k) - atilde(j,i)atilde(i,k),
    read from a pole table, so scaled by its den^2.  Channel independence
    means one common value."""
    aij, aji = poles[i, j], poles[j, i]
    return [poles[i, k] * poles[j, k] - aij * poles[j, k] - aji * poles[i, k]
            for k in range(1, npts + 1) if k != i and k != j]


def channels_consistent(poles: dict[tuple[int, int], int]) -> bool:
    """Channel independence at one configuration, from its pole table: every
    pair i < j of marked points has a single value in cij_values."""
    n, npts = _table_points(poles)
    return all(len(set(cij_values(poles, i, j, npts))) == 1
               for i in range(1, n + 1) for j in range(i + 1, n + 1))


# -- Jacobian and the singular locus ----------------------------------------------

def _jacobian(spec: PresentationSpec) -> list[list[dict[int, int]]]:
    """Rows per relation, columns per variable; each entry the integer linear
    form {variable: coefficient} of the relation's derivative there."""
    rows = []
    for terms in spec.relations:
        row: list[dict[int, int]] = [{} for _ in range(spec.nvars)]
        for a, b, c in terms:
            if a == b:
                row[a][a] = 2 * c
            else:
                row[a][b] = row[b][a] = c
        rows.append(row)
    return rows


def jacobian_rank_at(spec: PresentationSpec, point: tuple[int, list[int]]) -> int:
    """Rank of the Jacobian at a point of the variety, over Q; the point is
    (den, numerators) as verify_vanishing takes it.

    The linear forms evaluated at the numerators give den times the Jacobian
    at the point, integer rows of the same rank for rank_sparse_rational.
    Refuses points off the variety: rank there says nothing about smoothness.
    """
    bad = verify_vanishing(spec, point)
    if bad:
        raise UsageError(f"point is not on the variety (relations {bad} do not vanish)")
    x = point[1]
    rows = [{v: s for v, form in enumerate(row) if (s := sum(c * x[w] for w, c in form.items()))}
            for row in _jacobian(spec)]
    return rank_sparse_rational(rows)[0]


def singular_minors(spec: PresentationSpec, c: int,
                    budget: int = DEFAULT_MINOR_BUDGET) -> list[dict]:
    """All nonzero c x c minors of the Jacobian over Z, as integer
    polynomials {exponent: int}; c = 0 yields the unit (empty locus).

    Cofactor expansion along the first row, on packed codes.  memo holds
    every sub-determinant already expanded, so minors that share their lower
    rows share the work.
    """
    if c < 0:
        raise UsageError(f"negative minor size {c}")
    nrel, nv = len(spec.relations), spec.nvars
    if c == 0:
        return [{(0,) * nv: 1}]
    _refuse_minors(nrel, nv, c, budget)
    packing = Packing.fitting(nv, c)
    unit = [packing.pack((1,), (v,)) for v in range(nv)]
    cells = [[{unit[w]: k for w, k in form.items()} for form in row] for row in _jacobian(spec)]
    # (rows, cols) -> the determinant there, seeded with the entries
    memo: dict = {((r,), (k,)): cells[r][k] for r in range(nrel) for k in range(nv)}

    def minor(rows: tuple[int, ...], cols: tuple[int, ...]) -> dict:
        out = memo.get((rows, cols))
        if out is not None:
            return out
        out = {}
        first = cells[rows[0]]
        for k, col in enumerate(cols):
            entry = first[col]
            if not entry:
                continue
            rest = minor(rows[1:], cols[:k] + cols[k + 1:])
            term: dict = {}  # entry * rest, then added into out with its sign
            for e1, c1 in entry.items():
                for e2, c2 in rest.items():
                    e = e1 + e2
                    v = term.get(e, 0) + c1 * c2
                    if v:
                        term[e] = v
                    else:
                        del term[e]
            for e, v in term.items():
                v = out.get(e, 0) + (v if k % 2 == 0 else -v)
                if v:
                    out[e] = v
                else:
                    del out[e]
        if len(rows) < c:  # a full minor is never a sub-determinant of another
            memo[rows, cols] = out
        return out

    unpack = packing.unpack
    return [{unpack(e): v for e, v in d.items()} for rsel in combinations(range(nrel), c)
            for csel in combinations(range(nv), c) if (d := minor(rsel, csel))]


def _refuse_minors(nrels: int, nvars: int, c: int, budget: int) -> None:
    """BudgetError when the c x c minors of an nrels x nvars Jacobian would
    number more than the budget; c = 0 needs none (singular_minors returns
    the unit without expanding anything)."""
    count = comb(nrels, c) * comb(nvars, c) if c else 0
    if count > budget:
        raise BudgetError(
            f"{count} minors of size {c} exceed the budget {budget}",
            estimate=count, budget=budget,
        )


def check_singular_budget(n: int, m: int, budget: int) -> None:
    """The up-front budget check of singular_locus_dim on B_{n,m} (A_n at
    m = 0), from the closed-form sizes (presentation.presentation_size),
    without building the presentation: BudgetError when it would refuse."""
    nvars, nrels = presentation_size(n, m)
    _refuse_minors(nrels, nvars, nvars - (2 * n + m - 3), budget)


@dataclass(frozen=True)
class SingularReport:
    """Dimensions of the variety and of its singular locus (-1 = empty)."""

    algebra: str
    variety_dim: int
    codim: int
    minors: int
    singular_dim: int

    @property
    def bound_met(self) -> bool:
        # the locus must be a proper closed subset of positive codimension,
        # i.e. strictly smaller than the variety itself
        return self.singular_dim < self.variety_dim


def singular_locus_dim(spec: PresentationSpec,
                       budget: int = DEFAULT_MINOR_BUDGET) -> SingularReport:
    """Krull dimension of (relations + codim-sized Jacobian minors).

    Works over the spec's own field; a prime-field spec keeps the Groebner
    run cheap.  The relations and the minors are integer polynomials either
    way: linear_interreduce ranks them over Z, certified at the
    characteristic, and buchberger reads each one it keeps into the field as
    it packs it and reduces it as it joins.  minors counts the minors that
    are nonzero in the field.  The minor budget is checked before any work at
    the predicted codimension, nvars - (2n+m-3), and again by singular_minors
    at the actual one.
    """
    _refuse_minors(len(spec.relations), spec.nvars,
                   spec.nvars - (2 * spec.n + spec.m - 3), budget)
    dim = krull_dimension(groebner_for(spec))
    c = spec.nvars - dim
    minors = singular_minors(spec, c, budget=budget)
    p = spec.field
    order = spec.default_order()
    gens = linear_interreduce(relation_polys(spec) + minors, order, p)
    sdim = krull_dimension(buchberger(gens, p, order))
    return SingularReport(
        algebra=spec.name(),
        variety_dim=dim,
        codim=c,
        minors=sum(1 for d in minors if not p or any(v % p for v in d.values())),
        singular_dim=sdim,
    )
