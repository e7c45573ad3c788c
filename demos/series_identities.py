"""Closed-form multigraded series and the identities the suite verifies.

Run:  python3 demos/series_identities.py
"""

from psiring.series import (
    curve_module_series,
    invert_unit_series,
    lee_coefficient,
    lee_series,
    lee_series_restricted,
    total_hilbert,
)


def main():
    print("unit-vector anchors: coefficient at e_i is n - 2")
    for n in range(3, 8):
        s = lee_series(n, 1)
        e1 = (1,) + (0,) * (n - 1)
        print(f"  n={n}: {s[e1]}")

    print("\npair anchors: coefficient at e_i + e_j is (n-2)^2 - (n-3)")
    for n in range(3, 8):
        s = lee_series(n, 2)
        pair = (1, 1) + (0,) * (n - 2)
        print(f"  n={n}: {s[pair]} = {(n - 2) ** 2 - (n - 3)}")

    print("\nthe conifold series is linear: coefficient at (a, b) is a + b + 1")
    s = lee_series_restricted(2, 2, 4)
    for a in range(3):
        row = [s[a, b] for b in range(3)]
        print(f"  a={a}: {row}")

    print("\ncurve-module factorization: the module series over n points equals")
    print("the algebra series on n - 1 points with one extra section")
    for n in (4, 5):
        cm = curve_module_series(n, 4)
        rs = lee_series_restricted(n - 1, 1, 4)
        print(f"  n={n}: series equal = {cm == rs}")

    print("\nclosed-form coefficients agree with the truncated expansion")
    s = lee_series(5, 3)
    for a in [(1, 1, 1, 0, 0), (2, 0, 0, 1, 0), (3, 0, 0, 0, 0)]:
        print(f"  a={a}: closed {lee_coefficient(5, a)}, expanded {s[a]}")

    print("\ntotal-degree series and its alternating-substitution inverse (n = 4)")
    h = total_hilbert(4, 5)
    hm = [(-1) ** k * c for k, c in enumerate(h)]
    print(f"  h: {h}")
    print(f"  1/h(-t): {invert_unit_series(hm)}")


if __name__ == "__main__":
    main()
