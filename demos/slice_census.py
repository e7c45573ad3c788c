"""Brute-force slice dimensions against the series, degree by degree.

Each multidegree slice is spanned by the monomials of that degree; relation
multiples give linear constraints, and the dimension is monomials minus rank.
A relabelling of the marked points acts on the variables by a linear
substitution; one that maps the relations' span onto itself maps each slice
onto one of the same dimension, so a sweep ranks one slice per orbit.  For
A(5) the certified relabellings (1 2) and (1 2 3 4 5) generate all of S_5.

Run:  python3 demos/slice_census.py
"""

from psiring.presentation import build_an
from psiring.series import degree_grid, lee_series
from psiring.slices import block_symmetries, orbit_representatives, orbit_sweep, slice_dimension


def main():
    spec = build_an(4)
    series = lee_series(4, 4)

    print("A(4) slices up to total degree 4")
    print(f"{'degree':>14} {'monomials':>10} {'rank':>6} {'dim':>5} {'series':>7}")
    for a in degree_grid(4, 4):
        rep = slice_dimension(spec, a)
        want = series[rep.multidegree]
        mark = "" if rep.dimension == want else "  <-- MISMATCH"
        print(f"{str(rep.multidegree):>14} {rep.monomials:>10} {rep.rank:>6}"
              f" {rep.dimension:>5} {want:>7}{mark}")

    print("\none slice in detail, with the verification lane it used")
    rep = slice_dimension(spec, (2, 1, 1, 0))
    print(f"  multidegree {rep.multidegree}: {rep.monomials} monomials,"
          f" {rep.rows} constraint rows of rank {rep.rank}")
    print(f"  dimension {rep.dimension}, series predicts {series[rep.multidegree]}")
    print(f"  method: {rep.method}")

    print("\nhigh-degree spot checks on A(5)")
    spec5 = build_an(5)
    series5 = lee_series(5, 5)
    for a in [(1, 1, 1, 1, 1), (2, 1, 1, 1, 0), (3, 2, 0, 0, 0)]:
        rep = slice_dimension(spec5, a)
        print(f"  {a}: dim {rep.dimension} vs series {series5[a]}")

    print("\ncertified relabellings of A(5), as images of the points 1..5")
    for perm in block_symmetries(spec5):
        print(f"  {[p + 1 for p in perm]}")
    grid = degree_grid(5, 5)
    reps = orbit_representatives(block_symmetries(spec5), grid)
    print(f"  {len(set(reps))} orbits among the {len(grid)} slices up to total degree 5")
    swept = orbit_sweep(spec5, grid, 1)
    bad = sum(r.dimension != series5[r.multidegree] for r in swept)
    print(f"  one slice ranked per orbit: {bad} mismatches against the series")


if __name__ == "__main__":
    main()
