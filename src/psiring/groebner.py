"""Buchberger completion, normal forms, and leading-term combinatorics.

The engine is a plain Buchberger loop with the normal selection strategy and
the Gebauer-Moller filters on the pairs a new member brings: a pair whose lcm
another's strictly divides goes, and of the pairs sharing an lcm one stays,
none when one of them is coprime.  Pairs already queued are not filtered
again: on these presentations that chain criterion removed none of them.  An
optional total-degree cap makes the run a truncated completion: for
homogeneous input every discarded S-pair lives above the cap, so normal forms
below the cap are still those of the full basis.

The input goes through the same selection as the S-pairs: a generator joins
ahead of the queued pairs whose lcm degree is not below its lead's, reduced
by the basis so far, and only if its normal form is nonzero.  The reduced
basis is unique, so this changes the work, not the result.  Under a cap a
generator above it joins unreduced: the basis there is incomplete.

The run works on packed monomials (orders.Packing): each monomial is one
integer code, so a product is an addition, a divisibility test one subtraction
and mask, and the lcm a masked select.  Generators come in as integer
polynomials {exponent tuple: int} (a Fraction is accepted over QQ), the same
whatever the field, and are read mod p once, as they are packed.
Coefficients are then ints mod p, and over QQ ints wherever a value is
integral, Fractions elsewhere; the basis comes back in the same numbers.
A field is its characteristic; its arithmetic lives here: reducers scale by
an inverse mod p or by a Fraction, and normal_form and s_poly add and
multiply mod p or exactly.  A PackedRing carries the packing, the field and a
sort key for every code it has met, memoized for the whole run: an integer
under grevlex, the order's own key of the unpacked exponents under lex and
block orders.  Basis members are kept as reducers (leading code, tail divided
by the leading coefficient), built once when the member joins.
Each queued pair carries its selection key (lcm degree, order key of the lcm,
j, i), so the queue is a heap.  A product whose exponent reaches a guard bit
stops the run, which starts again with twice the bits per exponent: no
exponent ever wraps into its neighbour.

The basis records each member's leading exponent as the engine found it.
Krull dimension comes from the leading terms alone: the dimension of the
quotient is the largest variable set that contains no leading-term support,
computed as variables minus a minimum hitting set, found by branch and bound.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import groupby
from typing import NamedTuple

from .errors import UsageError
from .exactla import sparse_echelon
from .fields import check_prime
from .orders import GREVLEX, MonomialOrder, Packing, PackingOverflow
from .presentation import PresentationSpec, relation_polys


@dataclass
class GroebnerBasis:
    """An interreduced, monic basis of {exponent: coefficient} dicts; leads[i]
    is the leading exponent of basis[i] under the order, and complete means no
    S-pair was discarded."""

    field: int  # the characteristic: 0 for QQ, else p
    nvars: int
    order: MonomialOrder
    basis: list[dict]
    leads: list[tuple[int, ...]]
    complete: bool
    cap: int | None = None

    def __len__(self):
        return len(self.basis)


class Terms(dict):
    """A packed polynomial {code: nonzero coefficient}."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self


class Reducer(NamedTuple):
    """A monic basis member: its leading code and its other terms as
    (code, coefficient) pairs, so that reducing c*x^(lead+s) subtracts
    c * coefficient at the code + s of each pair."""

    lead: int
    tail: tuple[tuple[int, object], ...]


class PackedRing:
    """Polynomials over a field in packed codes under one order.

    keys holds a sort key of every code met so far.  Under grevlex it is the
    integer (degree << code bits) - code, which sorts as order.key: codes
    compare from the last variable down, and at equal degree grevlex prefers
    the smaller exponent there.  Under lex and block orders it is order.key
    of the unpacked exponents, so each code is unpacked at most once.
    """

    def __init__(self, field: int, order: MonomialOrder, packing: Packing):
        self.field = field
        self.order = order
        self.packing = packing
        self.keys: dict[int, object] = {}
        self._top = packing.width * packing.nvars

    def key(self, code: int):
        k = self.keys.get(code)
        if k is None:
            if self.order.kind == GREVLEX:
                k = (self.packing.degree(code) << self._top) - code
            else:
                k = self.order.key(self.packing.unpack(code))
            self.keys[code] = k
        return k

    def pack(self, p: dict) -> Terms:
        """The polynomial in packed codes, its coefficients read into the
        field: mod p, or over QQ an integral value as an int.  Terms that
        vanish there are dropped."""
        pack, prime = self.packing.pack, self.field
        if prime:
            return Terms((pack(e), v) for e, c in p.items() if (v := c % prime))
        return Terms((pack(e), _integral(c)) for e, c in p.items() if c)

    def reducer(self, t: Terms) -> Reducer:
        """The monic multiple of the nonzero t, as a reducer."""
        prime = self.field
        lead = max(t, key=self.key)
        if prime:
            scale = pow(t[lead], -1, prime)
            tail = ((e, c * scale % prime) for e, c in t.items() if e != lead)
        else:
            scale = Fraction(1, t[lead])
            tail = ((e, _integral(c * scale)) for e, c in t.items() if e != lead)
        return Reducer(lead, tuple(tail))

    def poly(self, t: Terms) -> dict:
        """The packed terms unpacked to exponent tuples."""
        unpack = self.packing.unpack
        return {unpack(e): c for e, c in t.items()}

    def to_poly(self, g: Reducer) -> dict:
        """The reducer as a monic polynomial: its tail, then its leading term."""
        terms = Terms(g.tail)
        terms[g.lead] = 1
        return self.poly(terms)


def _integral(c):
    """c as a plain int when it is integral, else c (a Fraction over QQ)."""
    return c.numerator if c.denominator == 1 else c


def normal_form(p: Terms, basis: list[Reducer], ring: PackedRing) -> Terms:
    """Full remainder of p on division by the basis.

    Each term is reduced by the first basis member whose leading term divides
    it.  For a Groebner basis the remainder does not depend on the members'
    order in the list.  Raises PackingOverflow when a product leaves the
    packing.
    """
    guard = ring.packing.guard
    prime = ring.field
    keys, key = ring.keys, ring.key
    for e in p:
        key(e)
    work = dict(p)
    remainder = Terms()
    while work:
        e = max(work, key=keys.__getitem__)
        c = work.pop(e)
        eg = e | guard
        for lt, tail in basis:
            if (eg - lt) & guard == guard:
                break
        else:
            remainder[e] = c
            continue
        shift = e - lt
        for ge, gc in tail:
            te = ge + shift
            v = work.get(te)
            if v is None:
                if te & guard:
                    raise PackingOverflow("an exponent outgrew its packed field")
                work[te] = -c * gc % prime if prime else -c * gc
                if te not in keys:
                    key(te)
                continue
            v = (v - c * gc) % prime if prime else v - c * gc
            if v:
                work[te] = v
            else:
                del work[te]
    return remainder


def s_poly(f: Reducer, g: Reducer, ring: PackedRing) -> Terms:
    """lcm/lt(f) * f - lcm/lt(g) * g for monic f and g; the lcm terms cancel."""
    guard = ring.packing.guard
    prime = ring.field
    l = ring.packing.lcm(f.lead, g.lead)
    out = Terms()
    for reducer, sign in ((f, 1), (g, -1)):
        shift = l - reducer.lead
        for e, c in reducer.tail:
            te = e + shift
            if te & guard:
                raise PackingOverflow("an exponent outgrew its packed field")
            v = out.get(te, 0) + sign * c
            if prime:
                v %= prime
            if v:
                out[te] = v
            else:
                out.pop(te, None)
    return out


def buchberger(
    polys: list[dict],
    field: int,
    order: MonomialOrder,
    cap: int | None = None,
) -> GroebnerBasis:
    """Complete the generating set, integer polynomials {exponent: int}, to a
    Groebner basis over the field of characteristic field under the order;
    a nonzero one must be prime.

    cap discards S-pairs whose lcm total degree exceeds it; this requires
    homogeneous input (checked) and yields a basis valid up to the cap.
    The packing starts wide enough for the input's exponents, at least 8 bits,
    and doubles whenever a product outgrows it.
    """
    if field:
        check_prime(field)
    polys = [p for p in polys if p]
    if not polys:
        raise UsageError("empty generating set")
    nvars = len(next(iter(polys[0])))
    if any(len(e) != nvars for p in polys for e in p):
        raise UsageError("mixed variable counts in generating set")
    if cap is not None:
        for p in polys:
            if not _is_homogeneous(p):
                raise UsageError("degree-capped completion needs homogeneous input")
    top = max((x for p in polys for e in p for x in e), default=0)
    packing = Packing.fitting(nvars, top)
    while True:
        ring = PackedRing(field, order, packing)
        try:
            basis, complete = _complete(polys, ring, cap)
        except PackingOverflow:
            packing = Packing(nvars, 2 * packing.bits)
            continue
        return GroebnerBasis(field, nvars, order, [ring.to_poly(g) for g in basis],
                             [packing.unpack(g.lead) for g in basis], complete=complete, cap=cap)


def _complete(polys: list[dict], ring: PackedRing, cap: int | None) -> tuple[list[Reducer], bool]:
    """The interreduced basis, and whether no S-pair was discarded."""
    pk = ring.packing
    guard = pk.guard
    G: list[Reducer] = []
    # queued pairs as (lcm degree, order key of lcm, j, i) with i < j: the
    # heap pops them in the normal-strategy order, ties broken by j then i
    pairs: list[tuple] = []
    truncated = False

    def add(g: Reducer):
        nonlocal truncated
        t = len(G)
        G.append(g)
        lt = g.lead
        cand = [pk.lcm(h.lead, lt) for h in G[:t]]
        degs = [pk.degree(l) for l in cand]
        # pair filter: drop (i,t) when some other new pair's lcm strictly
        # divides.  A strict divisor has a lower degree and is a multiple of a
        # minimal one, so each lcm is tested against those kept below its degree
        minimal: list[int] = []  # the kept lcms of the degrees done so far
        classes: dict[int, list[int]] = {}  # the kept pairs by lcm
        for _, group in groupby(sorted(range(t), key=degs.__getitem__), degs.__getitem__):
            kept = {}
            for i in group:
                lg = cand[i] | guard
                for lj in minimal:
                    if (lg - lj) & guard == guard:
                        break
                else:
                    kept.setdefault(cand[i], []).append(i)
            minimal += kept
            classes.update(kept)
        # a coprime member (lcm = product) kills the class, else keep one
        for l, members in classes.items():
            if any(cand[i] == G[i].lead + lt for i in members):
                continue
            d = degs[members[0]]
            if cap is not None and d > cap:
                truncated = True
                continue
            heappush(pairs, (d, ring.key(l), t, members[0]))

    # the generators as (lead degree, order key of the lead, position, terms), last first
    waiting = []
    for t, terms in enumerate(map(ring.pack, polys)):
        if not terms:  # zero in the field
            continue
        lead = max(terms, key=ring.key)
        waiting.append((pk.degree(lead), ring.key(lead), t, terms))
    waiting.sort(reverse=True)

    while pairs or waiting:
        if waiting and (not pairs or waiting[-1][0] <= pairs[0][0]):
            d, _, _, h = waiting.pop()
            if cap is None or d <= cap:
                h = normal_form(h, G, ring)
        else:
            _, _, j, i = heappop(pairs)
            h = normal_form(s_poly(G[i], G[j], ring), G, ring)
        if not h.is_zero():
            add(ring.reducer(h))

    return _interreduce(G, ring), not truncated


def _is_homogeneous(p: dict) -> bool:
    return len({sum(e) for e in p}) <= 1


def _interreduce(G: list[Reducer], ring: PackedRing) -> list[Reducer]:
    """Drop redundant members, then fully reduce each tail; sort for determinism."""
    divides = ring.packing.divides
    lts = [g.lead for g in G]
    keep = []
    for t, lt in enumerate(lts):
        redundant = any(
            divides(lts[s], lt) and (lts[s] != lt or s < t)
            for s in range(len(G)) if s != t
        )
        if not redundant:
            keep.append(t)
    kept = [G[t] for t in keep]
    out = []
    for t, g in enumerate(kept):
        others = out + kept[t + 1:]
        tail = Terms(g.tail)
        red = normal_form(tail, others, ring) if others else tail
        out.append(Reducer(g.lead, tuple(red.items())))
    out.sort(key=lambda g: ring.key(g.lead))
    return out


def groebner_for(spec: PresentationSpec, order: MonomialOrder | None = None,
                 cap: int | None = None) -> GroebnerBasis:
    order = order or spec.default_order()
    if not spec.relations:  # the zero ideal: its basis is empty (A_3 has no relations)
        return GroebnerBasis(spec.field, spec.nvars, order, [], [], complete=True, cap=cap)
    return buchberger(relation_polys(spec), spec.field, order, cap=cap)


# -- leading-term combinatorics ---------------------------------------------------

def krull_dimension(gb: GroebnerBasis) -> int:
    """Dimension of the quotient from the leading terms of a complete basis.

    Equals nvars minus a minimum hitting set of the leading-term supports;
    -1 for the unit ideal.
    """
    if not gb.complete:
        raise UsageError("Krull dimension needs a complete basis (no degree cap cuts)")
    supports = {frozenset(i for i, v in enumerate(e) if v) for e in gb.leads}
    if frozenset() in supports:
        return -1
    return gb.nvars - _min_hitting_set(list(supports))


def _min_hitting_set(supports: list[frozenset]) -> int:
    """Size of a smallest variable set meeting every support, by branch and
    bound: a support of one variable forces it; else the variable in the most
    supports joins the set, or leaves every support (none is emptied, as each
    has two once the forced ones are taken).  A branch stops once its count
    plus a greedy packing of disjoint supports reaches the best found so far."""
    best = len(frozenset().union(*supports))  # every variable meets every support

    def search(count: int, remaining: list[frozenset]):
        nonlocal best
        forced = frozenset().union(*(s for s in remaining if len(s) == 1))
        count += len(forced)
        remaining = [s for s in remaining if not s & forced]
        if not remaining:
            best = min(best, count)
            return
        used: set = set()
        bound = count
        for s in sorted(remaining, key=len):
            if used.isdisjoint(s):
                used |= s
                bound += 1
        if bound >= best:
            return
        hits = Counter(v for s in remaining for v in s)
        v = max(hits, key=lambda x: (hits[x], -x))
        search(count + 1, [s for s in remaining if v not in s])
        search(count, [s - {v} for s in remaining])

    search(0, supports)
    return best


def leading_terms_agree(g1: GroebnerBasis, g2: GroebnerBasis) -> bool:
    """Same leading-term sets: the cross-field (prime vs rational) comparison."""
    return sorted(g1.leads) == sorted(g2.leads)


# -- linear preprocessing for large generator sets --------------------------------

def linear_interreduce(polys: list[dict], order: MonomialOrder, p: int) -> list[dict]:
    """Row-reduce each same-degree batch of integer generators; returns
    independent rows.

    Cuts redundant members before Buchberger when the input is very linearly
    dependent (minor expansions, spanning relation families).  Each batch goes
    through exactla.sparse_echelon as the integer rows it is; its pivot rows
    come back as primitive integer polynomials, not monic.

    Over GF(p), p the characteristic (0 for QQ), the elimination is certified
    at p as in exactla.rank_sparse_rational.  When every pivot's lead is
    nonzero mod p, each reduction step scaled a row only by a unit mod p, so
    the pivots mod p are unit multiples of those an elimination mod p builds,
    with the same leads; Buchberger reads them mod p and makes them monic.
    Otherwise the batch is kept as it came in, which leaves the ideal
    unchanged.
    """
    groups: dict[tuple, list[dict]] = {}
    for g in polys:
        groups.setdefault(tuple(sorted({sum(e) for e in g})), []).append(g)
    out: list[dict] = []
    for key in sorted(groups):
        batch = groups[key]
        monos = sorted({e for g in batch for e in g}, key=order.key, reverse=True)
        pos = {e: c for c, e in enumerate(monos)}
        echelon, _ = sparse_echelon([{pos[e]: c for e, c in g.items()} for g in batch], p or None)
        if p and not all(prow[lead] % p for lead, prow in echelon.items()):
            out += batch
            continue
        out += [{monos[c]: v for c, v in echelon[lead].items()} for lead in sorted(echelon)]
    return out
