"""Tour of the quadratic presentations: variables, grading, and relations.

Run:  python3 demos/presentations_tour.py
"""

from psiring.presentation import build_an, build_bnm, quadric_degree, relation_polys
from psiring.poly import poly_text


def show(spec, max_relations=4):
    print(f"== {spec.name()}")
    print(f"   variables ({spec.nvars}): {', '.join(spec.var_names())}")
    print(f"   blocks: {[len(ps) for ps in spec.block_positions()]} (one block per marked point)")
    order = spec.default_order()
    names = spec.var_names()
    shown = spec.relations[:max_relations]
    print(f"   relations ({len(spec.relations)}), first {len(shown)}:")
    for terms, rel in zip(shown, relation_polys(spec)):
        md = quadric_degree(spec, terms)
        print(f"     [{md}]  {poly_text(rel, names, order)}")
    print()


def main():
    # four marked points: the smallest case with relations
    show(build_an(4))

    # five points: each pair of points contributes n - 3 = 2 relations
    show(build_an(5), max_relations=3)

    # the conifold: two points, two extra sections, one relation
    show(build_bnm(2, 2))

    # a mixed family member
    show(build_bnm(3, 1), max_relations=3)

    # the m = 0 member of the B family coincides with the A family
    a, b = build_an(4), build_bnm(4, 0)
    print(f"B(4,0) has {b.nvars} variables and {len(b.relations)} relations,"
          f" matching A(4) with {a.nvars} and {len(a.relations)}")


if __name__ == "__main__":
    main()
