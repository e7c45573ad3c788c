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
slice 33 instead of 34.

Only the Koszul rule's leads are known up front.  A variable x of degree e
divides a product m * f_k of slice a only when deg f_k + e <= a, so the
degree 3 slice b = deg f_k + e is eliminated, every product of it a row, when
a slice first reaches b, and once per b (per _RowPlan).  Its syzygies come
from b's own rows alone, so a slice's rows never depend on which slices ran
before, and a sweep eliminates only the degree 3 slices below the ones it
ranks: 15 of A(5)'s 35 to total degree 5.

The certificate covers all the products too, even when some c_j is divisible
by p, since kept rows are some of all the products and neither rule uses p: a
certified slice has rank_p(all) >= rank_p(kept) = rank_Q(kept) = rank_Q(all)
>= rank_p(all).  A report's row count still counts every product.

Orbits.  A permutation sigma of the marked points relabels the sections:
section i, normalized to vanish at p(i), becomes section sigma i normalized
at sigma p(i), and normalizing it at p(sigma i) instead subtracts its value
there.  So sigma acts on the variables by the substitution

    a[i,j] -> X[sigma i, sigma j] - X[sigma i, sigma p(i)],    phi[r,i] -> phi[r, sigma i],

where X[k,l] = a[k,l], and X[k,l] = 0 when l = p(k).  Under B(n,m)'s common
extra point the second term is 0, and the substitution permutes the
variables.  Every image lies in block sigma i and has coefficients +-1.
Read for every value X[k,l] with l != k, the rule also holds at l = p(k),
where both sides are 0.  So sigma's substitution followed by sigma^-1's
sends a[i,j] to X[i,j] - X[i,p(i)] = a[i,j]: sigma^-1's inverts sigma's
over Z, and sigma is invertible over Q and mod every prime.  It maps slice a
of the polynomial ring onto slice sigma.a, where (sigma.a)[sigma i] = a[i].

block_symmetries(spec, p) keeps a candidate sigma only when ranking the
relations together with their images (each image a product of two linear
forms, expanded) gives the rank of the relations alone, both eliminations
over Z certified at the prime p: DEFAULT_PRIME for the slices, the tower's
prime for koszul.  Then the images lie in the span of the relations over Q
and mod p, and since sigma is injective they span all of it: sigma maps the
span onto itself, so it maps the ideal I, generated by that span, onto
itself over Q and mod p, and I's slice a onto its slice sigma.a.  The ranks
of all products over Q and mod p are the same in both, and with them the
certificate's conclusion rank_p = rank_Q and the method label, which names
what the answer rests on.  The product count sum_k #monomials(a - deg f_k)
is invariant too, since sigma keeps the block sizes and block_symmetries
also requires it to keep the number of relations of each pair (i, j).  So
orbit_sweep ranks one slice of each orbit and gives every other member its
report under their own multidegree.  Any member would do; the rows each keeps
differ, since both drop rules depend on the order of the variables.  The
sweep ranks the last member in grid order, which keeps fewer rows than the
first as a rule: 729 against 757 over A(5)'s orbits to total degree 5, 49,251
against 52,429 over A(7)'s to total degree 6.

The Groebner route counts the same slice as its standard monomials: those not
divisible by any leading term.  Both routes walk one list of monomial codes
per slice, cached with the presentation; its length is the slice's monomial
count.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import add, sub

from .errors import UsageError
from .exactla import rank_sparse_rational, sparse_echelon
from .fields import DEFAULT_PRIME
from .groebner import GroebnerBasis
from .orders import Packing
from .presentation import PresentationSpec, quadric_degree, relation_degree_audit
from .series import compositions
from .symbols import Alpha, Phi
from .util import parallel_map


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
    rows, ncols, products, _ = _product_rows(spec, plan, tuple(a), sum(a) > 3)
    return rows, ncols, products


def _product_rows(spec: PresentationSpec, plan: "_RowPlan", a: tuple[int, ...], drop: bool):
    """relation_product_rows' rows, ncols and products, and the (k, code of m)
    of each kept row m * f_k.  Rows come in ascending (k, code of m), the order
    the soundness induction runs in.  With drop the two rules drop products;
    without, every product is a row."""
    basis = plan.monomials(spec, a)
    col = dict(zip(basis, range(len(basis))))
    rems = {}  # a - d for each distinct relation degree d that fits in a
    for d in plan.distinct:
        rem = tuple(map(sub, a, d))
        if min(rem) >= 0:
            rems[d] = rem
    if drop:
        # per remainder: the multiples of the leads of relations 0 .. upto[d] - 1,
        # and for each variable degree e <= rem, the syzygies of the degree 3
        # slice d + e with the monomials of rem - e, which their codes multiply
        koszul = {d: set() for d in rems}
        upto = dict.fromkeys(rems, 0)
        syzygies = {d: [(plan.syzygies(spec, tuple(map(add, d, e))),
                         plan.monomials(spec, tuple(map(sub, rem, e))))
                        for e, x in zip(plan.units, rem) if x]
                    for d, rem in rems.items()}
    rows: list[dict[int, int]] = []
    labels: list[tuple[int, int]] = []
    products = 0
    for k, rdeg in enumerate(plan.degrees):
        rem = rems.get(rdeg)
        if rem is None:
            continue
        mons = plan.monomials(spec, rem)
        products += len(mons)
        kept = mons[::-1]
        if drop:
            # the multiples of a code of degree d are code * (monomials of rem - d)
            dropped = koszul[rdeg]
            for d, lead in plan.leads[upto[rdeg]:k]:
                quot = tuple(map(sub, rem, d))
                if min(quot) >= 0:
                    dropped.update(map(lead.__add__, plan.monomials(spec, quot)))
            upto[rdeg] = k
            vanished = set()
            for table, multiples in syzygies[rdeg]:
                for x in table.get(k, ()):
                    vanished.update(map(x.__add__, multiples))
            kept = [m for m in kept if m not in dropped and m not in vanished]
        terms = plan.terms[k]
        rows += [{col[exp + m]: c for exp, c in terms} for m in kept]
        labels += [(k, m) for m in kept]
    return rows, len(basis), products, labels


class _RowPlan:
    """What the slice rows and standard monomial counts need of a presentation,
    computed once per spec: relation degrees, terms and leads, the monomial
    codes of each slice, and the linear syzygies of the total degree 3 slices
    a sweep reaches.

    Monomials are packed codes (orders.Packing), so a relation term times a
    monomial is the sum of their codes.  No exponent in slice a exceeds
    max(a), so a slice with max(a) >= 2^bits replaces the plan with a wider one.
    """

    def __init__(self, spec: PresentationSpec, top: int):
        self.packing = Packing.fitting(spec.nvars, top)
        pack = self.packing.pack
        self.degrees = [quadric_degree(spec, terms) for terms in spec.relations]
        assert None not in self.degrees
        self.distinct = list(dict.fromkeys(self.degrees))
        self.units = [tuple(int(b == c) for c in range(spec.nblocks)) for b in range(spec.nblocks)]
        # relation k as (code, integer coefficient) pairs; its lead, the largest
        # code, is the pivot column of its rows
        self.terms = [tuple((pack((1, 1), (a, b)), c) for a, b, c in rel)
                      for rel in spec.relations]
        # (degree, leading code) of each relation: all the Koszul rule reads
        self.leads = [(d, max(terms)[0]) for d, terms in zip(self.degrees, self.terms)]
        self._positions = spec.block_positions()
        self._blocks: dict[tuple[int, int], list[int]] = {}
        self._monomials: dict[tuple[int, ...], list[int]] = {}
        self._syzygies: dict[tuple[int, ...], dict[int, list[int]]] = {}

    @staticmethod
    def of(spec: PresentationSpec, top: int) -> "_RowPlan":
        plan = spec.cache.get("slice_rows")
        if plan is None or top >> plan.packing.bits:
            plan = spec.cache["slice_rows"] = _RowPlan(spec, top)
        return plan

    def monomials(self, spec: PresentationSpec, a: tuple[int, ...]) -> list[int]:
        """Codes of every monomial of multidegree a, ascending in the presentation order.

        Each code is a sum of one composition code per block, each block's
        codes packed once per degree.  All monomials of one slice share their
        multidegree, so the presentation order is grevlex there, and
        descending code is ascending grevlex.
        """
        codes = self._monomials.get(a)
        if codes is None:
            codes = [0]
            for b, ai in enumerate(a):
                block = self._blocks.get((b, ai))
                if block is None:
                    pos = self._positions[b]
                    block = [self.packing.pack(c, pos) for c in compositions(ai, len(pos))]
                    self._blocks[b, ai] = block
                codes = [x + y for x in codes for y in block]
            codes.sort(reverse=True)
            self._monomials[a] = codes
        return codes

    def syzygies(self, spec: PresentationSpec, b: tuple[int, ...]) -> dict[int, list[int]]:
        """For each relation k, the codes of the variables x whose x * f_k is a
        linear syzygy in the total degree 3 slice b: the rows that vanish as
        all of b's products are eliminated over Z, inserted in ascending (k,
        code).  Found when a slice first reaches b, once per b per plan."""
        table = self._syzygies.get(b)
        if table is None:
            # no lead, of degree 2, divides a variable: every product is a row
            rows, _, _, labels = _product_rows(spec, self, b, False)
            table = {}
            for i in sparse_echelon(rows)[1]:
                k, x = labels[i]
                table.setdefault(k, []).append(x)
            self._syzygies[b] = table
        return table


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


@dataclass(frozen=True)
class SliceReport:
    """Outcome of one graded-slice dimension computation; monomials is the
    length of the slice's monomial code list, and rows counts every relation
    * monomial product, the ones dropped before ranking too."""

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
    rows, nmon, products = relation_product_rows(spec, a)
    if not rows:
        return SliceReport(tuple(a), nmon, 0, 0, nmon, "empty")
    rank, lucky = rank_sparse_rational(rows, DEFAULT_PRIME)
    how = f"modular({DEFAULT_PRIME})+rational" if lucky else "rational(after-bad-prime)"
    return SliceReport(tuple(a), nmon, products, rank, nmon - rank, how)


# -- block symmetries ------------------------------------------------------------

def block_symmetries(spec: PresentationSpec,
                     prime: int = DEFAULT_PRIME) -> tuple[tuple[int, ...], ...]:
    """The candidate relabellings of the marked points that map the
    presentation onto itself over Q and mod the prime, each as its 0-based
    images (block b goes to perm[b]); cached with the spec, one entry per
    prime.

    The candidates are the transposition (1 2) and the n-cycle, which generate
    S_n; _is_automorphism certifies each one (see Orbits in the module
    docstring).
    """
    cache = spec.cache.setdefault("block_symmetries", {})
    if prime not in cache:
        cache[prime] = tuple(perm for perm in dict.fromkeys(_candidates(spec))
                             if _is_automorphism(spec, perm, prime))
    return cache[prime]


def _candidates(spec: PresentationSpec) -> list[tuple[int, ...]]:
    """The block permutations the construction offers, uncertified."""
    n = spec.n
    return [(1, 0) + tuple(range(2, n)), tuple((b + 1) % n for b in range(n))]


def _variable_images(spec: PresentationSpec,
                     perm: tuple[int, ...]) -> list[dict[int, int]] | None:
    """The image of each variable under relabelling the points by perm, as
    {position: coefficient}: a[i,j] -> X[sigma i, sigma j] - X[sigma i, sigma p(i)]
    and phi[r,i] -> phi[r, sigma i], with X[k,l] = 0 at l = p(k).  None when
    perm is not a permutation of the blocks."""
    n = spec.n
    if sorted(perm) != list(range(n)):
        return None
    pos = {v: k for k, v in enumerate(spec.variables)}

    def sigma(i):
        return perm[i - 1] + 1

    def value(k, l):  # X[k, l] as a form, for a point l != k
        return {} if l == spec.pivot.pivot_of(k, n) else {pos[Alpha(k, l)]: 1}

    out = []
    for v in spec.variables:
        if isinstance(v, Phi):
            out.append({pos[Phi(v.r, sigma(v.i))]: 1})
            continue
        form = value(sigma(v.i), sigma(v.j))
        p = spec.pivot.pivot_of(v.i, n)
        if p is not None:  # B(n,m)'s common extra point is fixed, and X there is 0
            # sigma j != sigma p, so the two terms never share a variable
            form.update({q: -1 for q in value(sigma(v.i), sigma(p))})
        out.append(form)
    return out


def _is_automorphism(spec: PresentationSpec, perm: tuple[int, ...], prime: int) -> bool:
    """Whether the relabelling perm (see _variable_images) maps the span of the
    relations onto itself over Q and mod the prime (equal certified ranks of
    the relations with and without their images), and the relations of each
    pair (i, j) to as many of pair (perm i, perm j)."""
    forms = _variable_images(spec, perm)
    if forms is None:
        return False
    rels = [{(a, b): c for a, b, c in terms} for terms in spec.relations]
    images = []
    for row in rels:
        image: dict[tuple[int, int], int] = {}
        for (a, b), c in row.items():
            for x, cx in forms[a].items():
                for y, cy in forms[b].items():
                    key = (x, y) if x <= y else (y, x)
                    image[key] = image.get(key, 0) + c * cx * cy
        images.append(image)
    ranks = spec.cache.setdefault("relation_rank", {})
    if prime not in ranks:
        ranks[prime] = rank_sparse_rational(rels, prime)
    rank, lucky = ranks[prime]
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
    last member of each orbit in grid order (mapped through
    util.parallel_map); every other member gets that slice's report under its
    own multidegree (see Orbits in the module docstring)."""
    reps = orbit_representatives(block_symmetries(spec), grid)
    last = dict(zip(reps, grid))  # each orbit's last member, keyed by its first
    ranked = dict(zip(last, parallel_map(lambda a: slice_dimension(spec, a),
                                         list(last.values()), threads)))
    return [SliceReport(a, s.monomials, s.rows, s.rank, s.dimension, s.method)
            for a, s in zip(grid, map(ranked.__getitem__, reps))]
