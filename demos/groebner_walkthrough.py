"""Completing a presentation to a Groebner basis and reading off invariants.

Run:  python3 demos/groebner_walkthrough.py
"""

import random

from psiring.groebner import (
    PackedRing,
    groebner_for,
    krull_dimension,
    leading_terms_agree,
    normal_form,
)
from psiring.orders import Packing
from psiring.poly import poly_text
from psiring.presentation import build_an, build_bnm, relation_polys
from psiring.series import lee_series
from psiring.slices import standard_monomial_count


def reduce(p, basis, field, order):
    """Normal form of the polynomial p ({exponent: coefficient}) by the
    basis over the field: pack both, reduce, unpack the remainder."""
    top = max(x for q in [p, *basis] for e in q for x in e)
    ring = PackedRing(field, order, Packing.fitting(len(next(iter(p))), top))
    reducers = [ring.reducer(ring.pack(g)) for g in basis]
    return ring.poly(normal_form(ring.pack(p), reducers, ring))


def main():
    spec = build_an(4)
    gb = groebner_for(spec)
    names = spec.var_names()
    print(f"A(4): {len(spec.relations)} quadric generators complete to"
          f" {len(gb)} basis elements over QQ")
    for g in gb.basis:
        print(f"  {poly_text(g, names, gb.order)}")

    print(f"\nKrull dimension from the leading-term ideal: {krull_dimension(gb)}")

    print("\nstandard monomials per degree match the series")
    series = lee_series(4, 3)
    for a in [(1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (2, 1, 0, 0)]:
        std = standard_monomial_count(gb, spec, a)
        print(f"  {a}: {std} standard monomials, series {series[a]}")

    print(f"\nan ideal member reduces to zero: the first relation times {names[0]}")
    # relation 0 has no x0^2 term, so x0 times it has no x0^3 term
    times_x = {(e[0] + 1,) + e[1:]: c for e, c in relation_polys(spec)[0].items()}
    print(f"  normal form is zero: {not reduce(times_x, gb.basis, gb.field, gb.order)}")

    print("\nnormal forms do not depend on the order of the reducers")
    cube = (3,) + (0,) * (spec.nvars - 1)
    f = {**times_x, cube: 1}
    base = reduce(f, gb.basis, gb.field, gb.order)
    print(f"  normal form of {names[0]}^3 plus that member: {poly_text(base, names, gb.order)}")
    basis = list(gb.basis)
    shuffler = random.Random(42)
    agree = []
    for _ in range(8):
        shuffler.shuffle(basis)
        agree.append(reduce(f, basis, gb.field, gb.order) == base)
    print(f"  agree across 8 shuffled bases: {all(agree)}")

    print("\nprime-field and rational completions have the same leading terms")
    gp = groebner_for(spec.to_field(32003))
    print(f"  agree: {leading_terms_agree(gb, gp)}")

    print("\nKrull dimensions across the families (expect 2n + m - 3)")
    for builder, label in [(lambda: build_an(5), "A(5)"),
                           (lambda: build_bnm(2, 2), "B(2,2)"),
                           (lambda: build_bnm(3, 1), "B(3,1)")]:
        s = builder()
        d = krull_dimension(groebner_for(s.to_field(32003)))
        print(f"  {label}: {d} (predicted {2 * s.n + s.m - 3})")


if __name__ == "__main__":
    main()
