"""Points on the varieties from pole values of rational configurations.

Run:  python3 demos/geometry_probe.py
"""

from fractions import Fraction

from psiring.geometry import (
    alpha_values,
    channels_consistent,
    cij_values,
    jacobian_rank_at,
    pole_table,
    sample_config,
    singular_locus_dim,
    verify_vanishing,
)
from psiring.presentation import build_an, build_bnm


def main():
    spec = build_an(4)
    cfg = sample_config(4, 0, seed=7)
    print(f"configuration: z = {cfg.z}, weights = {cfg.lam}")
    den, poles = pole_table(cfg)  # one integer table feeds every check below
    point = alpha_values(spec, (den, poles))  # the coordinates over den
    for name, v in zip(spec.var_names(), point[1]):
        print(f"  {name} = {Fraction(v, den)}")
    print(f"all {len(spec.relations)} relations vanish:"
          f" {verify_vanishing(spec, point) == []}")

    print("\npair products are channel independent (same value for every k)")
    for (i, j) in [(1, 2), (1, 3), (2, 4)]:
        print(f"  c({i},{j}) values, times den^2: {cij_values(poles, i, j, 4)}")
    print(f"every pair is channel independent: {channels_consistent(poles)}")
    # the table holds den * atilde(i,j): adding den to an entry adds 1 to the pole value
    bumped = dict(poles)
    bumped[1, 2] += den
    print(f"after adding 1 to atilde(1,2): {channels_consistent(bumped)}")

    print("\nthe grading torus acts on points: each variable times its block's factor")
    # the factors (2, 1/3, -1, 5), over their common denominator 3
    t = (6, 1, -3, 15)
    scaled = (3 * den, [v * t[b] for v, b in zip(point[1], spec.blocks)])
    print(f"  scaled point still on the variety:"
          f" {verify_vanishing(spec, scaled) == []}")

    print("\nJacobian rank at sampled points equals the codimension")
    for n, want in [(4, 3), (5, 8)]:
        s = build_an(n)
        v = alpha_values(s, pole_table(sample_config(n, 0, seed=11)))
        print(f"  A({n}): rank {jacobian_rank_at(s, v)} (codimension {want})")

    print("\nsingular locus dimensions (-1 means empty)")
    for builder, label in [(lambda: build_an(4), "A(4)"),
                           (lambda: build_bnm(2, 2), "B(2,2)"),
                           (lambda: build_an(3), "A(3)")]:
        r = singular_locus_dim(builder().to_field(32003))
        print(f"  {label}: variety dim {r.variety_dim},"
              f" singular dim {r.singular_dim}, proper subset: {r.bound_met}")


if __name__ == "__main__":
    main()
