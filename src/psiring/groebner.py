"""Buchberger completion, normal forms, and leading-term combinatorics.

The engine is a plain Buchberger loop with the Gebauer-Moller pair filters and
the normal selection strategy.  An optional total-degree cap makes the run a
truncated completion: for homogeneous input every discarded S-pair lives above
the cap, so normal forms below the cap are still those of the full basis.

The bookkeeping is done once per object, not once per use.  Each Poly remembers
its leading term and that term's support mask (orders.exp_mask).  Each queued
pair carries its selection key (lcm degree, order key of the lcm, j, i), so the
queue is a heap.  Every divisibility scan (the normal-form divisor search, the
pair and chain filters, interreduction, standard monomials) compares support
masks before exponent tuples, and normal_form computes each term's order key
at most once per call.

Krull dimension comes from the leading terms alone: the dimension of the
quotient is the largest variable set that contains no leading-term support,
computed as variables minus a minimum hitting set.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop
from math import lcm

from .errors import UsageError
from .exactla import sparse_echelon
from .fields import Field
from .orders import (MonomialOrder, exp_degree, exp_div, exp_lcm, exp_mask, exp_mul,
                     mask_divides)
from .poly import Poly
from .presentation import PresentationSpec


@dataclass
class GroebnerBasis:
    """An interreduced, monic basis; complete means no S-pair was discarded."""

    field: Field
    nvars: int
    order: MonomialOrder
    basis: list[Poly]
    complete: bool
    cap: int | None = None

    def leading_exponents(self) -> list[tuple[int, ...]]:
        return [g.leading(self.order)[0] for g in self.basis]

    def __len__(self):
        return len(self.basis)


def normal_form(p: Poly, basis: list[Poly], order: MonomialOrder) -> Poly:
    """Full remainder of p on division by the basis.

    Each term is reduced by the first basis member whose leading term divides
    it.  For a Groebner basis the remainder does not depend on the members'
    order in the list.
    """
    field = p.field
    reducers = []
    for g in basis:
        lt, lc = g.leading(order)
        reducers.append((g.leading_mask(order), lt, lc, g))
    key = order.key
    work = dict(p.terms)
    keys = {e: key(e) for e in work}  # each term's order key, computed once per call
    remainder: dict = {}
    while work:
        e = max(work, key=keys.__getitem__)
        c = work.pop(e)
        me = exp_mask(e)
        for mt, lt, lc, g in reducers:
            if mask_divides(lt, mt, e, me):
                break
        else:
            remainder[e] = c
            continue
        scale = field.div(c, lc)
        shift = exp_div(e, lt)
        for ge, gc in g.terms.items():
            te = exp_mul(ge, shift)
            if te == e:
                continue  # the leading term cancels exactly
            v = field.sub(work.get(te, field.zero()), field.mul(scale, gc))
            if field.is_zero(v):
                work.pop(te, None)
            else:
                work[te] = v
                if te not in keys:
                    keys[te] = key(te)
    return Poly(field, p.nvars, remainder)


def s_poly(f: Poly, g: Poly, order: MonomialOrder) -> Poly:
    field = f.field
    ef, cf = f.leading(order)
    eg, cg = g.leading(order)
    l = exp_lcm(ef, eg)
    a = f.mul_term(exp_div(l, ef), field.inv(cf))
    b = g.mul_term(exp_div(l, eg), field.inv(cg))
    return a.sub(b)


def buchberger(
    polys: list[Poly],
    order: MonomialOrder,
    cap: int | None = None,
) -> GroebnerBasis:
    """Complete the generating set to a Groebner basis under the order.

    cap discards S-pairs whose lcm total degree exceeds it; this requires
    homogeneous input (checked) and yields a basis valid up to the cap.
    """
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        raise UsageError("empty generating set")
    field = polys[0].field
    nvars = polys[0].nvars
    if any(p.field != field or p.nvars != nvars for p in polys):
        raise UsageError("mixed fields or variable counts in generating set")
    if cap is not None:
        for p in polys:
            if not _is_homogeneous(p):
                raise UsageError("degree-capped completion needs homogeneous input")

    G: list[Poly] = []
    lts: list[tuple[int, ...]] = []
    masks: list[int] = []
    # queued pairs as (lcm degree, order key of lcm, j, i, lcm, lcm mask) with i < j:
    # the heap pops them in the normal-strategy order, ties broken by j then i
    pairs: list[tuple] = []
    truncated = False

    def add(p: Poly):
        nonlocal pairs, truncated
        t = len(G)
        G.append(p.monic(order))
        lt = p.leading(order)[0]
        mt = p.leading_mask(order)
        lts.append(lt)
        masks.append(mt)
        cand = [(exp_lcm(lts[i], lt), masks[i] | mt) for i in range(t)]
        # pair filter: drop (i,t) when some other new pair's lcm strictly divides;
        # group the kept pairs by lcm
        classes: dict[tuple[int, ...], list[int]] = {}
        for i, (l, ml) in enumerate(cand):
            for lj, mj in cand:
                if lj != l and mask_divides(lj, mj, l, ml):
                    break
            else:
                classes.setdefault(l, []).append(i)
        # a coprime member (disjoint supports) kills the class, else keep one
        fresh = []
        for l, members in classes.items():
            if any(not masks[i] & mt for i in members):
                continue
            d = exp_degree(l)
            if cap is not None and d > cap:
                truncated = True
                continue
            i = members[0]
            fresh.append((d, order.key(l), t, i, l, cand[i][1]))
        # chain filter on the old queue
        old = []
        for item in pairs:
            _, _, j, i, l, ml = item
            if mask_divides(lt, mt, l, ml) and cand[i][0] != l and cand[j][0] != l:
                continue
            old.append(item)
        pairs = old + fresh
        heapify(pairs)

    for p in sorted(polys, key=lambda q: order.key(q.leading(order)[0])):
        add(p)

    while pairs:
        _, _, j, i, _, _ = heappop(pairs)
        h = normal_form(s_poly(G[i], G[j], order), G, order)
        if not h.is_zero():
            add(h)

    return GroebnerBasis(field, nvars, order, _interreduce(G, order, field),
                         complete=not truncated, cap=cap)


def _is_homogeneous(p: Poly) -> bool:
    return len({sum(e) for e in p.terms}) <= 1


def _interreduce(G: list[Poly], order: MonomialOrder, field: Field) -> list[Poly]:
    """Drop redundant members, then fully reduce each tail; sort for determinism."""
    lts = [g.leading(order)[0] for g in G]
    masks = [g.leading_mask(order) for g in G]
    keep = []
    for t, lt in enumerate(lts):
        redundant = any(
            mask_divides(lts[s], masks[s], lt, masks[t]) and (lts[s] != lt or s < t)
            for s in range(len(G)) if s != t
        )
        if not redundant:
            keep.append(t)
    kept = [G[t] for t in keep]
    out = []
    for t, g in enumerate(kept):
        others = out + kept[t + 1:]
        lt, lc = g.leading(order)
        tail = Poly(field, g.nvars, {e: c for e, c in g.terms.items() if e != lt})
        red = normal_form(tail, others, order) if others else tail
        terms = dict(red.terms)
        terms[lt] = lc
        out.append(Poly(field, g.nvars, terms).monic(order))
    out.sort(key=lambda g: order.key(g.leading(order)[0]))
    return out


def groebner_for(spec: PresentationSpec, order: MonomialOrder | None = None,
                 cap: int | None = None) -> GroebnerBasis:
    order = order or spec.default_order()
    if not spec.relations:  # the zero ideal: its basis is empty (A_3 has no relations)
        return GroebnerBasis(spec.field, spec.nvars, order, [], complete=True, cap=cap)
    return buchberger(list(spec.relations), order, cap=cap)


# -- leading-term combinatorics ---------------------------------------------------

def krull_dimension(gb: GroebnerBasis) -> int:
    """Dimension of the quotient from the leading terms of a complete basis.

    Equals nvars minus a minimum hitting set of the leading-term supports;
    -1 for the unit ideal.
    """
    if not gb.complete:
        raise UsageError("Krull dimension needs a complete basis (no degree cap cuts)")
    supports = []
    for e in gb.leading_exponents():
        s = frozenset(i for i, v in enumerate(e) if v)
        if not s:
            return -1
        supports.append(s)
    # minimal antichain
    supports = sorted(set(supports), key=len)
    minimal = []
    for s in supports:
        if not any(t <= s for t in minimal):
            minimal.append(s)
    return gb.nvars - _min_hitting_set(minimal)


def _min_hitting_set(supports: list[frozenset]) -> int:
    best = [sum(len(s) for s in supports) + 1]

    def rec(count: int, remaining: list[frozenset]):
        if count >= best[0]:
            return
        if not remaining:
            best[0] = count
            return
        pivot = min(remaining, key=len)
        for v in sorted(pivot):
            rec(count + 1, [s for s in remaining if v not in s])

    if not supports:
        return 0
    rec(0, supports)
    return best[0]


def standard_monomial_count(gb: GroebnerBasis, spec: PresentationSpec,
                            a: tuple[int, ...]) -> int:
    """Monomials of multidegree a not divisible by any leading term."""
    from .slices import enumerate_monomials

    if gb.cap is not None and sum(a) > gb.cap:
        raise UsageError(f"total degree {sum(a)} exceeds the truncation cap {gb.cap}")
    lts = [(g.leading(gb.order)[0], g.leading_mask(gb.order)) for g in gb.basis]
    count = 0
    for mono in enumerate_monomials(spec, a):
        mm = exp_mask(mono)
        if not any(mask_divides(lt, ml, mono, mm) for lt, ml in lts):
            count += 1
    return count


def leading_terms_agree(g1: GroebnerBasis, g2: GroebnerBasis) -> bool:
    """Same leading-term sets: the cross-field (prime vs rational) comparison."""
    return sorted(g1.leading_exponents()) == sorted(g2.leading_exponents())


# -- linear preprocessing for large generator sets --------------------------------

def linear_interreduce(polys: list[Poly], order: MonomialOrder) -> list[Poly]:
    """Row-reduce each same-degree batch of generators; returns independent rows.

    Cuts redundant members before Buchberger when the input is very linearly
    dependent (minor expansions, spanning relation families).  Each batch goes
    through exactla.sparse_echelon as integer rows cleared of denominators; its
    pivot rows come back monic over a prime field and primitive over QQ.
    """
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return []
    field = polys[0].field
    groups: dict[tuple, list[Poly]] = {}
    for p in polys:
        groups.setdefault(tuple(sorted({sum(e) for e in p.terms})), []).append(p)
    out: list[Poly] = []
    for key in sorted(groups):
        batch = groups[key]
        monos = sorted({e for p in batch for e in p.terms}, key=order.key, reverse=True)
        pos = {e: c for c, e in enumerate(monos)}
        rows = []
        for p in batch:
            denom = lcm(*(c.denominator for c in p.terms.values()))  # 1 over a prime field
            rows.append({pos[e]: field.to_int(c * denom) for e, c in p.terms.items()})
        echelon = sparse_echelon(rows, field.characteristic or None)
        for lead in sorted(echelon):
            terms = {monos[c]: v for c, v in echelon[lead].items()}
            out.append(Poly.from_int_terms(field, batch[0].nvars, terms))
    return out
