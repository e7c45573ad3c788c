"""Exact dimensions of single multigraded slices of a quadratic quotient.

In multidegree a the ideal slice is spanned by relation * monomial products,
so the quotient dimension is  #monomials(a) - rank(product rows)  and the rank
is plain linear algebra: no Groebner basis is involved.  Every slice is
ranked once, by exact elimination over Z, which also certifies the rank at
the word size prime DEFAULT_PRIME: every reduction divides a row only by a
unit mod p, so each pivot row is, mod p, a combination of the product rows,
and pivots whose leads are nonzero mod p are independent there, so rank mod
p >= rank over Q, while rank mod p <= rank over Q always (the lucky-prime
argument).  When the certificate fails the rank over Q stands alone.

Most products are redundant, and are dropped before ranking, by two rules.
Give each relation f_j its leading monomial L_j, the term of largest packed
code (the column its rows pivot on), and its leading coefficient c_j.  Order
the products m * f_k of a slice by (k, code of m) ascending.

  * Koszul: m * f_k is dropped when L_j divides m for some j < k.  With
    m = q * L_j the syzygy f_j * f_k = f_k * f_j gives

        c_j * m * f_k  =  (q * f_k) * f_j  -  (q * (f_j - c_j * L_j)) * f_k,

    products of the earlier relation f_j and products of f_k by monomials of
    smaller code than m.
  * Linear syzygy: past total degree 3, m * f_k is dropped when m = q * x for
    a variable x whose row x * f_k vanished when its slice of total degree 3
    was eliminated over Z, rows inserted in ascending (k, code).  A vanished
    row is a combination over Q of the rows inserted before it: x * f_k is a
    sum of products x' * f_j with j < k, or j = k and x' of smaller code
    than x.  Times q, codes add, so m * f_k is a sum of products before it in
    the order.

Each rule writes a dropped product through products before it, so by one
induction over (k, code of m) the kept rows span every product over Q, where
every c_j is a unit: rank_Q(kept) = rank_Q(all).  Both rules must point down
the same order.  The Koszul rule only ever steps to smaller codes, so the
degree 3 rows are inserted in ascending code; inserted in descending code, a
vanished row is a combination of larger codes, whose own Koszul rewriting can
lead back to it, and the argument breaks: A(5) then ranks its (0,1,0,1,2)
slice 33 instead of 34.  The syzygies come from the degree 3 slices alone,
once per presentation, so a slice's rows never depend on which slices ran
before.

The certificate covers all the products too, even when some c_j is divisible
by p, since kept rows are some of all the products and neither rule uses p: a
certified slice has rank_p(all) >= rank_p(kept) = rank_Q(kept) = rank_Q(all)
>= rank_p(all).  A report's row count still counts every product.

Orbits.  A permutation sigma of the blocks (the marked points) acts on the
variables by a[i,j] -> a[sigma i, sigma j] and phi[r,i] -> phi[r, sigma i],
and maps the monomials of slice a one to one onto those of slice sigma.a,
where (sigma.a)[sigma i] = a[i].  block_symmetries(spec, p) keeps a
candidate sigma only when it maps the variables onto themselves and ranking
the relations together with their images gives the rank of the relations
alone, both eliminations over Z certified at the prime p: DEFAULT_PRIME for
the slices, the tower's prime for koszul.  Then sigma maps the span of the
relations onto itself over Q and mod p, so it maps the ideal onto itself over
Q and mod p, and slice a onto slice sigma.a: the ranks of all products over Q
and mod p are the same in both, and with them the certificate's conclusion
rank_p = rank_Q and the method label, which names what the answer rests on.
The product count sum_k #monomials(a - deg f_k) is invariant too, since
sigma keeps the block sizes and block_symmetries also requires it to keep
the number of relations of each pair (i, j).  So orbit_sweep ranks the first
slice of each orbit and gives every other member the representative's report
under its own multidegree.

The Groebner route counts the same slice as its standard monomials: those not
divisible by any leading term.  Both routes walk one list of monomial codes
per slice, cached with the presentation.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from math import comb

from .errors import UsageError
from .exactla import rank_sparse_rational, sparse_echelon
from .fields import DEFAULT_PRIME
from .groebner import GroebnerBasis
from .orders import Packing
from .presentation import PresentationSpec, relation_degree_audit
from .series import compositions
from .symbols import Alpha, Phi
from .util import parallel_map


def count_monomials(spec: PresentationSpec, a: tuple[int, ...]) -> int:
    """Number of monomials of multidegree a: a product of stars-and-bars counts."""
    _check_degree(spec, a)
    out = 1
    for ai, size in zip(a, spec.block_sizes()):
        if ai and size == 0:
            return 0
        out *= comb(ai + size - 1, size - 1) if size else 1
    return out


def _check_degree(spec: PresentationSpec, a: tuple[int, ...]):
    if len(a) != spec.nblocks:
        raise UsageError(f"multidegree length {len(a)} != {spec.nblocks} blocks")
    if any(x < 0 for x in a):
        raise UsageError(f"negative multidegree {a}")


def relation_product_rows(spec: PresentationSpec,
                          a: tuple[int, ...]) -> tuple[list[dict[int, int]], int, int]:
    """Integer rows of the relation * monomial products landing in multidegree a
    that span all of them, one column per monomial of a, ascending in the
    presentation order.  Returns (rows, ncols, products); products counts every
    product, the dropped ones too.

    The product m * f_k is dropped when the leading monomial of an earlier
    relation divides m, or, from total degree 4 on, when m is a multiple of a
    variable x whose x * f_k is a linear syzygy: the two rules of the module
    docstring.
    """
    _check_degree(spec, a)
    plan = _RowPlan.of(spec, max(a, default=0))
    # up to total degree 3, m has degree at most 1: no lead divides it, and the
    # syzygy rule would drop only rows that vanish in this slice's own elimination
    drops = plan.drops(spec) if sum(a) > 3 else None
    rows, ncols, products, _ = _product_rows(spec, plan, tuple(a), drops)
    return rows, ncols, products


def _product_rows(spec: PresentationSpec, plan: "_RowPlan", a: tuple[int, ...],
                  drops: list | None):
    """relation_product_rows' rows, ncols and products, and the (k, code of m)
    of each kept row m * f_k.  Rows come in ascending (k, code of m), the order
    the soundness induction runs in.  drops is _RowPlan.drops, or None to keep
    every product."""
    basis = plan.monomials(spec, a)
    col = {m: i for i, m in enumerate(basis)}
    rows: list[dict[int, int]] = []
    labels: list[tuple[int, int]] = []
    products = 0
    for k, rdeg in enumerate(plan.degrees):
        rem = tuple(x - y for x, y in zip(a, rdeg))
        if any(x < 0 for x in rem):
            continue
        terms, _ = plan.terms(spec, k)
        mons = plan.monomials(spec, rem)
        products += len(mons)
        # the multiples of a code of degree d are code * (monomials of rem - d)
        dropped = set()
        for d, codes in drops[k] if drops else ():
            quot = tuple(x - y for x, y in zip(rem, d))
            if min(quot) >= 0:
                multiples = plan.monomials(spec, quot)
                for code in codes:
                    dropped.update(map(code.__add__, multiples))
        for mono in reversed(mons):
            if mono not in dropped:
                rows.append({col[exp + mono]: c for exp, c in terms})
                labels.append((k, mono))
    return rows, len(basis), products, labels


class _RowPlan:
    """What the slice rows and standard monomial counts need of a presentation,
    computed once per spec: relation degrees and codes, the monomial codes of
    each slice, and what each relation's products drop.

    Monomials are packed codes (orders.Packing), so a relation term times a
    monomial is the sum of their codes.  No exponent in slice a exceeds
    max(a), so a slice with max(a) >= 2^bits replaces the plan with a wider one.
    """

    def __init__(self, spec: PresentationSpec, top: int):
        self.packing = Packing.fitting(spec.nvars, top)
        self.degrees = []
        for rel in spec.relations:
            rdeg = rel.poly_multidegree(spec.blocks, spec.nblocks)
            assert rdeg is not None
            self.degrees.append(rdeg)
        self._terms: list[tuple | None] = [None] * len(spec.relations)
        self._monomials: dict[tuple[int, ...], list[int]] = {}
        self._drops: list | None = None

    @staticmethod
    def of(spec: PresentationSpec, top: int) -> "_RowPlan":
        plan = spec.cache.get("slice_rows")
        if plan is None or top >> plan.packing.bits:
            plan = spec.cache["slice_rows"] = _RowPlan(spec, top)
        return plan

    def monomials(self, spec: PresentationSpec, a: tuple[int, ...]) -> list[int]:
        """Codes of every monomial of multidegree a, ascending in the presentation order.

        Each code is a sum of one composition code per block.  All monomials of
        one slice share their multidegree, so the presentation order is grevlex
        there, and descending code is ascending grevlex.
        """
        codes = self._monomials.get(a)
        if codes is None:
            pack = self.packing.pack
            codes = [0]
            for ai, pos in zip(a, spec.block_positions()):
                block = [pack(c, pos) for c in compositions(ai, len(pos))]
                codes = [x + y for x in codes for y in block]
            codes.sort(reverse=True)
            self._monomials[a] = codes
        return codes

    def drops(self, spec: PresentationSpec) -> list[list[tuple[tuple[int, ...], list[int]]]]:
        """For each relation k, (multidegree, codes) pairs such that m * f_k is
        dropped when one of the codes divides m: the leads of the relations
        before k (the Koszul rule) and every variable x whose x * f_k is a
        linear syzygy, found where its row vanishes as its total degree 3 slice
        is eliminated, rows inserted in ascending (k, code).  Found once per
        plan."""
        if self._drops is None:
            syzygies: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in self.degrees]
            for a in compositions(3, spec.nblocks):
                # no lead, of degree 2, divides a variable: every product is a row
                rows, _, _, labels = _product_rows(spec, self, a, None)
                for i in sparse_echelon(rows)[1]:
                    k, x = labels[i]
                    syzygies[k].append((tuple(y - z for y, z in zip(a, self.degrees[k])), x))
            drops = []
            leads: dict[tuple[int, ...], list[int]] = {}  # of the relations before k
            for k, rdeg in enumerate(self.degrees):
                groups = {d: list(codes) for d, codes in leads.items()}
                for d, x in syzygies[k]:
                    groups.setdefault(d, []).append(x)
                drops.append(list(groups.items()))
                leads.setdefault(rdeg, []).append(self.terms(spec, k)[1])
            self._drops = drops
        return self._drops

    def terms(self, spec: PresentationSpec,
              k: int) -> tuple[tuple[tuple[int, int], ...], int]:
        """Relation k as (code, integer coefficient) pairs, and its leading code:
        the largest, which is the pivot column of its rows.  Refuses
        non-integer coefficients."""
        entry = self._terms[k]
        if entry is None:
            terms = tuple((self.packing.pack(exp), _as_int(c, spec))
                          for exp, c in spec.relations[k].terms.items())
            entry = self._terms[k] = (terms, max(terms)[0])
        return entry


def standard_monomial_count(gb: GroebnerBasis, spec: PresentationSpec,
                            a: tuple[int, ...]) -> int:
    """Monomials of multidegree a not divisible by any leading term of gb."""
    _check_degree(spec, a)
    if gb.cap is not None and sum(a) > gb.cap:
        raise UsageError(f"total degree {sum(a)} exceeds the truncation cap {gb.cap}")
    top = max(a, default=0)
    plan = _RowPlan.of(spec, top)
    pack, divides = plan.packing.pack, plan.packing.divides
    # no exponent in slice a exceeds max(a), so a larger one divides nothing here
    leads = [pack(e) for e in gb.leads if max(e, default=0) <= top]
    return sum(1 for m in plan.monomials(spec, tuple(a))
               if not any(divides(lt, m) for lt in leads))


def _as_int(coeff, spec: PresentationSpec) -> int:
    v = spec.field.to_int(coeff)
    if v is None:
        raise UsageError("slice ranks need integer relation coefficients")
    return v


@dataclass(frozen=True)
class SliceReport:
    """Outcome of one graded-slice dimension computation; rows counts every
    relation * monomial product, the ones dropped before ranking too."""

    multidegree: tuple[int, ...]
    monomials: int
    rows: int
    rank: int
    dimension: int
    method: str


def slice_dimension(spec: PresentationSpec, a: tuple[int, ...]) -> SliceReport:
    """Exact dimension of the multidegree-a slice of the quotient.

    The slice is ranked over Q by one elimination, which also certifies that
    the rank at DEFAULT_PRIME agrees (see exactla.rank_sparse_rational).
    method names every rank the answer rests on: modular(p)+rational when the
    certificate holds, rational(after-bad-prime) when p divides a pivot's
    leading entry.
    """
    rows, ncols, products = relation_product_rows(spec, a)
    nmon = count_monomials(spec, a)
    assert nmon == ncols
    if not rows:
        return SliceReport(tuple(a), nmon, 0, 0, nmon, "empty")
    rank, lucky = rank_sparse_rational(rows, DEFAULT_PRIME)
    how = f"modular({DEFAULT_PRIME})+rational" if lucky else "rational(after-bad-prime)"
    return SliceReport(tuple(a), nmon, products, rank, nmon - rank, how)


# -- block symmetries ------------------------------------------------------------

def block_symmetries(spec: PresentationSpec,
                     prime: int = DEFAULT_PRIME) -> tuple[tuple[int, ...], ...]:
    """The candidate block permutations that map the presentation onto itself
    over Q and mod the prime, each as its 0-based images (block b goes to
    perm[b]); cached with the spec, one entry per prime.

    The candidates come from the construction: for A(n) the pivot map, when
    it is a bijection (it commutes with itself, so it keeps the variables),
    and for B(n,m) the transposition (1 2) and the n-cycle, which generate
    S_n.  _is_automorphism certifies each one.
    """
    cache = spec.cache.setdefault("block_symmetries", {})
    if prime not in cache:
        cache[prime] = tuple(perm for perm in dict.fromkeys(_candidates(spec))
                             if _is_automorphism(spec, perm, prime))
    return cache[prime]


def _candidates(spec: PresentationSpec) -> list[tuple[int, ...]]:
    """The block permutations the construction offers, uncertified."""
    n = spec.n
    if spec.kind == "bnm":
        return [(1, 0) + tuple(range(2, n)), tuple((b + 1) % n for b in range(n))]
    pivots = [spec.pivot.pivot_of(i, n) for i in range(1, n + 1)]
    if sorted(pivots) != list(range(1, n + 1)):
        return []
    return [tuple(p - 1 for p in pivots)]


def _is_automorphism(spec: PresentationSpec, perm: tuple[int, ...], prime: int) -> bool:
    """Whether the block permutation perm, sending a[i,j] to a[perm i, perm j]
    and phi[r,i] to phi[r, perm i], maps the variables onto themselves, the
    span of the relations onto itself over Q and mod the prime (equal
    certified ranks of the relations with and without their images), and the
    relations of each pair (i, j) to as many of pair (perm i, perm j)."""
    pos = {v: k for k, v in enumerate(spec.variables)}
    img = [pos.get(Phi(v.r, perm[v.i - 1] + 1) if isinstance(v, Phi)
                   else Alpha(perm[v.i - 1] + 1, perm[v.j - 1] + 1)) for v in spec.variables]
    if None in img:
        return False
    cols: dict[tuple[int, ...], int] = {}

    def row(terms):
        return {cols.setdefault(e, len(cols)): _as_int(c, spec) for e, c in terms}

    def moved(e):
        out = [0] * spec.nvars
        for p, x in enumerate(e):
            out[img[p]] = x
        return tuple(out)

    rels = [row(rel.terms.items()) for rel in spec.relations]
    images = [row((moved(e), c) for e, c in rel.terms.items()) for rel in spec.relations]
    rank, lucky = rank_sparse_rational(rels, prime)
    both, both_lucky = rank_sparse_rational(rels + images, prime)
    if not (lucky and both_lucky and both == rank):
        return False
    counts = relation_degree_audit(spec)
    return all(counts.get(tuple(sorted((perm[i - 1] + 1, perm[j - 1] + 1)))) == c
               for (i, j), c in counts.items())


def orbit_representatives(gens: Sequence[tuple[int, ...]],
                          grid: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """For each multidegree of grid, its representative: the first multidegree
    of grid in its orbit under the block permutations gens.  A permutation
    moves a to the a' with a'[perm[b]] = a[b]."""
    rep: dict[tuple[int, ...], tuple[int, ...]] = {}
    for a in grid:
        if a in rep:
            continue
        rep[a] = a
        todo = [a]
        while todo:
            b = todo.pop()
            for perm in gens:
                moved = [0] * len(b)
                for i, x in enumerate(b):
                    moved[perm[i]] = x
                c = tuple(moved)
                if c not in rep:
                    rep[c] = a
                    todo.append(c)
    return [rep[a] for a in grid]


def orbit_sweep(spec: PresentationSpec, grid: tuple[tuple[int, ...], ...],
                threads: int) -> list[SliceReport]:
    """slice_dimension of every multidegree of grid, in order, ranking only the
    representatives (mapped through util.parallel_map); every other slice gets
    its representative's report under its own multidegree (see Orbits in the
    module docstring)."""
    reps = orbit_representatives(block_symmetries(spec), grid)
    firsts = list(dict.fromkeys(reps))
    ranked = dict(zip(firsts, parallel_map(lambda a: slice_dimension(spec, a), firsts, threads)))
    return [replace(ranked[r], multidegree=a) for a, r in zip(grid, reps)]
