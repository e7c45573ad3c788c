"""Graded-slice dimensions from monomial enumeration and relation-row rank,
cross-checked against the closed-form series coefficients.
"""

from collections import Counter
from dataclasses import replace
from itertools import permutations, product
from math import factorial

import pytest

from psiring import exactla, slices
from psiring.errors import UsageError
from psiring.fields import DEFAULT_PRIME
from psiring.groebner import groebner_for
from psiring.orders import multidegree
from psiring.presentation import CUSTOM, PivotScheme, build_an, build_bnm, relation_polys
from psiring.symbols import Alpha
from psiring.series import (
    compositions,
    degree_grid,
    lee_coefficient,
    lee_series,
    lee_series_restricted,
)
from psiring.slices import (
    block_symmetries,
    orbit_representatives,
    orbit_sweep,
    relation_product_rows,
    slice_dimension,
    standard_monomial_count,
)
from conftest import (
    cached_an, cached_bnm, poly_mul, with_first_relation_scaled, with_last_relation_bent,
)


def closed_form(spec, a):
    return lee_coefficient(spec.n, a, m=spec.m)


def test_grid_is_sorted_and_complete():
    g = degree_grid(3, 2)
    assert g[0] == (0, 0, 0)
    assert len(g) == 10
    assert list(g) == sorted(g, key=lambda a: (sum(a), a))


def monomials(spec, a):
    """Every exponent tuple of multidegree a, ascending in the presentation
    order: one composition of a[b] per block b, sorted by the order's key."""
    positions = spec.block_positions()
    out = []
    for combo in product(*(compositions(ai, len(pos)) for ai, pos in zip(a, positions))):
        exp = [0] * spec.nvars
        for pos, c in zip(positions, combo):
            for p, v in zip(pos, c):
                exp[p] = v
        out.append(tuple(exp))
    return sorted(out, key=spec.default_order().key)


@pytest.mark.parametrize("spec,limit", [(cached_an(4), 3), (cached_bnm(3, 2), 3)],
                         ids=["a4", "b32"])
def test_slice_monomials_are_the_block_compositions(spec, limit):
    for a in degree_grid(spec.nblocks, limit):
        plan = slices._RowPlan.of(spec, max(a))
        mons = [plan.packing.unpack(c) for c in plan.monomials(spec, a)]
        assert mons == monomials(spec, a)
        assert len(set(mons)) == len(mons) == len(monomials(spec, a))
        for e in mons:
            assert multidegree(e, spec.blocks, spec.nblocks) == a


def test_monomial_count_is_a_product_of_compositions():
    from math import comb
    spec = cached_an(5)  # three generators per point block
    a = (2, 1, 0, 3, 0)
    want = 1
    for d in a:
        want *= comb(d + 2, 2)
    assert len(monomials(spec, a)) == relation_product_rows(spec, a)[1] == want


def rows_by_poly_arithmetic(spec, a):
    """Every relation times every monomial of the complementary degree, multiplied
    as integer polynomials and read off in the basis monomials(spec, a)."""
    col = {m: i for i, m in enumerate(monomials(spec, a))}
    rows = []
    for rel in relation_polys(spec):
        rdeg = multidegree(next(iter(rel)), spec.blocks, spec.nblocks)
        rem = tuple(x - y for x, y in zip(a, rdeg))
        if min(rem) < 0:
            continue
        for mono in monomials(spec, rem):
            prod = poly_mul(rel, {mono: 1}, 0)
            rows.append({col[e]: c for e, c in prod.items()})
    return rows


def dimension_by(method, spec, a):
    """Slice dimension from one rank lane on every product row, built here by
    polynomial arithmetic, or from slice_dimension's own route ('auto')."""
    if method == "auto":
        return slice_dimension(spec, a).dimension
    rows, ncols = rows_by_poly_arithmetic(spec, a), len(monomials(spec, a))
    if method == "rational":
        return ncols - exactla.rank_sparse_rational(rows)[0]
    dense = exactla.rows_to_dense(rows, ncols, DEFAULT_PRIME)
    return ncols - exactla.rank_mod_p(dense, DEFAULT_PRIME)


@pytest.mark.parametrize("method", ["rational", "modular", "auto"])
def test_slice_methods_agree_on_a4(method):
    spec = cached_an(4)
    s = lee_series(4, 3)
    for a in degree_grid(4, 3):
        assert dimension_by(method, spec, a) == s[a] == closed_form(spec, a)


def test_a4_full_sweep_to_degree_five():
    spec = cached_an(4)
    s = lee_series(4, 5)
    reports = [slice_dimension(spec, a) for a in degree_grid(4, 5)]
    assert len(reports) == len(degree_grid(4, 5))
    for rep in reports:
        assert rep.dimension == s[rep.multidegree] == closed_form(spec, rep.multidegree)


def test_a5_spot_degrees():
    spec = cached_an(5)
    s = lee_series(5, 4)
    for a in [(1, 1, 1, 0, 0), (2, 0, 1, 0, 1), (1, 1, 1, 1, 0), (2, 2, 0, 0, 0)]:
        assert slice_dimension(spec, a).dimension == s[a]


@pytest.mark.parametrize("n,m,limit", [(2, 2, 5), (3, 1, 4), (4, 1, 3)])
def test_b_family_sweeps(n, m, limit):
    spec = cached_bnm(n, m)
    s = lee_series_restricted(n, m, limit)
    for rep in (slice_dimension(spec, a) for a in degree_grid(n, limit)):
        assert rep.dimension == s[rep.multidegree], rep.multidegree


def test_report_carries_audit_fields():
    rep = slice_dimension(cached_an(4), (1, 1, 0, 0))
    assert rep.monomials == 4  # two vars in each of two blocks
    assert rep.monomials - rep.rank == rep.dimension
    # the auto lane names every stage it used
    assert "modular" in rep.method or rep.method == "rational"


def test_sweep_is_deterministic():
    spec = cached_bnm(3, 1)
    grid = degree_grid(spec.nblocks, 3)
    a = [tuple(slice_dimension(spec, d).__dict__.items()) for d in grid]
    b = [tuple(slice_dimension(spec, d).__dict__.items()) for d in grid]
    assert a == b


def test_negative_degree_rejected():
    with pytest.raises(UsageError):
        slice_dimension(cached_an(4), (-1, 0, 0, 0))
    with pytest.raises(UsageError):
        slice_dimension(cached_an(4), (1, 0, 0))  # wrong arity


def test_standard_monomial_count_refuses_bad_degrees():
    spec = cached_an(4)
    gb = groebner_for(spec)
    for a in [(1, 1, 0), (1, 1, 0, 0, 0), (2, -1, 0, 0)]:
        with pytest.raises(UsageError):
            standard_monomial_count(gb, spec, a)
    capped = groebner_for(spec, cap=2)
    assert standard_monomial_count(capped, spec, (1, 1, 0, 0)) == closed_form(spec, (1, 1, 0, 0))
    with pytest.raises(UsageError, match="exceeds the truncation cap 2"):
        standard_monomial_count(capped, spec, (1, 1, 1, 0))


def test_bad_prime_branches(monkeypatch):
    p = DEFAULT_PRIME
    spec = cached_an(4)
    # relation 0 scaled by p is zero mod p, so where its rows become pivots
    # the elimination over Z does not certify the rank mod p, and the rank
    # over Q stands alone
    bad = with_first_relation_scaled(spec, p)
    primes = []

    def spy(rows, q=None):
        primes.append(q)
        return exactla.rank_sparse_rational(rows, q)

    monkeypatch.setattr(slices, "rank_sparse_rational", spy)
    for a, true_rank in [((1, 1, 0, 0), 1), ((1, 1, 0, 1), 4)]:
        assert exactla.rank_sparse_rational(rows_by_poly_arithmetic(bad, a))[0] == true_rank
        primes.clear()
        rep = slice_dimension(bad, a)
        assert primes == [p]  # one elimination, over Z
        assert (rep.method, rep.rank) == ("rational(after-bad-prime)", true_rank)
        assert rep.dimension == closed_form(bad, a)
    primes.clear()
    assert slice_dimension(spec, (1, 1, 0, 1)).method == f"modular({p})+rational"
    assert primes == [p]


def row_key(row):
    return tuple(sorted(row.items()))


def same_rows(spec, a):
    """relation_product_rows keeps some of the polynomial products and counts all of them."""
    rows, ncols, products = relation_product_rows(spec, a)
    full = rows_by_poly_arithmetic(spec, a)
    assert ncols == len(monomials(spec, a))
    assert products == len(full) >= len(rows)
    return not Counter(map(row_key, rows)) - Counter(map(row_key, full))


@pytest.mark.parametrize("spec,limit", [(cached_an(4), 4), (cached_bnm(3, 2), 3)],
                         ids=["a4", "b32"])
def test_row_builder_matches_poly_products(spec, limit):
    for a in degree_grid(spec.nblocks, limit):
        assert same_rows(spec, a), a


def test_row_builder_past_eight_bit_exponents():
    # packed codes start at 8 bits per variable.  In B(2,2), variables
    # (a12, a21, phi11, phi12) in blocks (0, 1, 0, 1), 8-bit codes of
    # a12^256 phi12 and a21 phi11^256 coincide: slice (256, 1) needs 9 bits
    spec = cached_bnm(2, 2)
    for a in [(3, 3), (255, 2), (256, 1), (3, 3), (2, 300)]:
        assert same_rows(spec, a), a
        assert slice_dimension(spec, a).dimension == closed_form(spec, a), a


def ranks(rows, ncols):
    """Rank over Q, and by the dense route at the prime a slice's rank is
    certified at."""
    dense = exactla.rows_to_dense(rows, ncols, DEFAULT_PRIME)
    return exactla.rank_sparse_rational(rows)[0], exactla.rank_mod_p(dense, DEFAULT_PRIME)


@pytest.mark.parametrize("spec,limit", [
    (cached_an(4), 6),
    (cached_an(5), 4),
    (build_an(5, PivotScheme(CUSTOM, (3, 1, 5, 2, 4))), 4),
    (cached_bnm(3, 2), 5),
    (cached_bnm(3, 3), 5),  # the widest slices here, up to 400 columns
], ids=["a4", "a5", "a5-custom", "b32", "b33"])
def test_kept_rows_span_all_products(spec, limit):
    for a in degree_grid(spec.nblocks, limit):
        rows, ncols, _ = relation_product_rows(spec, a)
        assert ranks(rows, ncols) == ranks(rows_by_poly_arithmetic(spec, a), ncols), a


@pytest.mark.parametrize("spec", [cached_an(5), build_an(5, PivotScheme(CUSTOM, (3, 1, 5, 2, 4)))],
                         ids=["a5", "a5-custom"])
@pytest.mark.parametrize("a", [(1, 1, 1, 1, 1), (0, 1, 0, 1, 2), (2, 1, 1, 1, 0),
                               (0, 0, 1, 2, 2), (3, 0, 1, 0, 1)])
def test_kept_rows_span_all_products_at_total_degree_five(spec, a):
    # where both drop rules act on multiples: rows inserted in descending
    # code instead lose rank on (0,1,0,1,2) of A(5)
    rows, ncols, _ = relation_product_rows(spec, a)
    assert ranks(rows, ncols) == ranks(rows_by_poly_arithmetic(spec, a), ncols)


def test_kept_rows_on_the_middle_slice_of_a5():
    spec, a = cached_an(5), (1, 1, 1, 1, 1)
    rows, ncols, products = relation_product_rows(spec, a)
    assert (len(rows), products, ncols) == (246, 540, 243)
    rep = slice_dimension(spec, a)
    assert (rep.rows, rep.rank) == (540, 212)


@pytest.mark.parametrize("build,limit", [
    (lambda: build_an(4), 5),
    (lambda: build_an(5), 4),
    (lambda: build_bnm(3, 2), 5),
    (lambda: build_an(5, PivotScheme(CUSTOM, (3, 1, 5, 2, 4))), 4),
], ids=["a4", "a5", "b32", "a5-custom"])
def test_rows_do_not_depend_on_the_slices_before(build, limit):
    # the syzygies come from the total degree 3 slices alone, whichever ran
    # first and whichever of them a sweep had reached
    swept = build()
    for a in degree_grid(swept.nblocks, limit):
        slice_dimension(swept, a)
    for a in degree_grid(swept.nblocks, limit)[::-1]:
        assert relation_product_rows(build(), a) == relation_product_rows(swept, a), a


def test_syzygies_come_only_from_the_degree_three_slices_reached(monkeypatch):
    # a slice a reads the syzygies of x * f_k only where x divides a product of
    # f_k, so only the total degree 3 slices deg f_k + e_beta <= a are eliminated
    spec, a = build_an(5), (2, 1, 0, 1, 1)
    units = [tuple(int(b == c) for c in range(5)) for b in range(5)]
    reached = {tuple(map(sum, zip(multidegree(next(iter(rel)), spec.blocks, 5), e)))
               for rel in relation_polys(spec) for e in units}
    reached = sorted(b for b in reached if all(x <= y for x, y in zip(b, a)))
    built, eliminated = [], []
    product_rows = slices._product_rows

    def rows_spy(s, plan, b, drop):
        built.append(b)
        return product_rows(s, plan, b, drop)

    def echelon_spy(rows, p=None):
        eliminated.append(built[-1])  # the slice whose rows were just built
        return exactla.sparse_echelon(rows, p)

    monkeypatch.setattr(slices, "_product_rows", rows_spy)
    monkeypatch.setattr(slices, "sparse_echelon", echelon_spy)
    assert slice_dimension(spec, a).dimension == closed_form(spec, a)
    assert sorted(eliminated) == reached and len(reached) == 7
    eliminated.clear()
    orbit_sweep(build_an(5), degree_grid(5, 5), 1)
    # each reached slice once, and not all 35
    assert len(set(eliminated)) == len(eliminated) < len(compositions(3, 5)) == 35
    assert all(sum(b) == 3 for b in eliminated)


def test_certificate_covers_the_dropped_products():
    # relation 0 comes first and its lead coefficient is zero mod p, yet its
    # lead drops products of every later relation: over Q the kept rows span
    # them all, and a certified slice has rank_p(all) = rank_Q(all)
    p = DEFAULT_PRIME
    bad = with_first_relation_scaled(cached_an(4), p)
    methods = Counter()
    for a in degree_grid(4, 4):
        full = rows_by_poly_arithmetic(bad, a)
        rank_q = exactla.rank_sparse_rational(full)[0]
        assert exactla.rank_sparse_rational(relation_product_rows(bad, a)[0])[0] == rank_q, a
        rep = slice_dimension(bad, a)
        assert rep.rank == rank_q, a
        assert rep.dimension == closed_form(bad, a), a
        if rep.method == f"modular({p})+rational":
            dense = exactla.rows_to_dense(full, rep.monomials, p)
            assert exactla.rank_mod_p(dense, p) == rep.rank, a
        methods[rep.method] += 1
    assert methods[f"modular({p})+rational"] and methods["rational(after-bad-prime)"]


def custom_an(*pivots):
    return build_an(len(pivots), PivotScheme(CUSTOM, pivots))


def group_order(gens, n):
    """Order of the permutation group the 0-based images gens generate."""
    seen, todo = {tuple(range(n))}, [tuple(range(n))]
    while todo:
        g = todo.pop()
        for s in gens:
            h = tuple(s[x] for x in g)
            if h not in seen:
                seen.add(h)
                todo.append(h)
    return len(seen)


def swept_against_every_slice(spec, limit, monkeypatch):
    """orbit_sweep over the grid, report by report against slice_dimension on
    every slice; returns the multidegrees the sweep ranked."""
    grid = degree_grid(spec.nblocks, limit)
    ranked = []

    def spy(s, a):
        ranked.append(a)
        return slice_dimension(s, a)

    with monkeypatch.context() as m:
        m.setattr(slices, "slice_dimension", spy)
        swept = orbit_sweep(spec, grid, 1)
    assert len(swept) == len(grid)
    for a, rep in zip(grid, swept):
        assert rep == slice_dimension(spec, a), a
    return ranked


@pytest.mark.parametrize("build,limit,order", [
    (lambda: build_an(4), 5, 24),
    (lambda: build_an(5), 5, 120),
    (lambda: build_an(6), 4, 720),
    (lambda: custom_an(2, 1, 4, 3), 6, 24),
    (lambda: custom_an(2, 3, 4, 1), 5, 24),
    (lambda: custom_an(2, 1, 5, 3, 4), 4, 120),
    (lambda: custom_an(2, 1, 1, 1), 4, 24),
    (lambda: build_bnm(2, 2), 6, 2),
    (lambda: build_bnm(3, 2), 4, 6),
    (lambda: build_bnm(4, 1), 4, 24),
    # perfbench slice_sweep's widest sweep, slices up to 400 columns
    (lambda: build_bnm(3, 3), 5, 6),
], ids=["a4", "a5", "a6", "a4-2143", "a4-2341", "a5-21534", "a4-2111", "b22", "b32", "b41",
        "b33"])
def test_orbit_sweep_matches_every_slice(build, limit, order, monkeypatch):
    # every pivot scheme gets all of S_n, a pivot map that is not a bijection too
    spec = build()
    gens = block_symmetries(spec)
    assert group_order(gens, spec.nblocks) == order
    ranked = swept_against_every_slice(spec, limit, monkeypatch)
    grid = degree_grid(spec.nblocks, limit)
    reps = orbit_representatives(gens, grid)
    assert all(grid.index(r) <= i for i, r in enumerate(reps))
    # the last multidegree of each orbit in grid order, and no other, is ranked
    lasts = [a for i, a in enumerate(grid) if reps[i] not in reps[i + 1:]]
    assert sorted(ranked) == sorted(lasts) and len(set(reps)) == len(lasts)
    assert len(ranked) < len(grid)


def test_gf2_keeps_the_slices_and_symmetries_of_qq():
    # the relations are the same integers over GF(2), -1 included, so its
    # slices are ranked over Z exactly as QQ's are, and keep their symmetries
    spec, gf2 = cached_an(4), cached_an(4, 2)
    for a in degree_grid(spec.nblocks, 4):
        assert slice_dimension(gf2, a) == slice_dimension(spec, a), a
    assert block_symmetries(gf2) == block_symmetries(spec)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_a_n_gets_the_symmetric_group(n):
    for spec in (build_an(n), custom_an(2, 1, *range(4, n + 1), 3)):
        assert group_order(block_symmetries(spec), n) == factorial(n)
    if n == 7:  # one slice per partition of each total degree into at most 7 parts
        grid = degree_grid(7, 6)
        assert (len(set(orbit_representatives(block_symmetries(build_an(7)), grid))),
                len(grid)) == (30, 1716)


def substituted(forms, v):
    """forms (the images of the variables, as {position: coefficient}) as a
    v x v integer matrix, column k the image of variable k."""
    out = [[0] * v for _ in range(v)]
    for k, form in enumerate(forms):
        for q, c in form.items():
            out[q][k] = c
    return out


def inverted_over_z(spec, perm):
    """Whether the substitution of perm's inverse inverts perm's, as integer matrices."""
    n, v = spec.n, spec.nvars
    inverse = tuple(perm.index(b) for b in range(n))
    a = substituted(slices._variable_images(spec, perm), v)
    b = substituted(slices._variable_images(spec, inverse), v)
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a] \
        == [[int(r == c) for c in range(v)] for r in range(v)]


@pytest.mark.parametrize("spec", [build_an(4), custom_an(2, 1, 1, 1), build_an(5),
                                  custom_an(3, 1, 5, 2, 4), build_bnm(3, 2)],
                         ids=["a4", "a4-2111", "a5", "a5-31524", "b32"])
def test_the_inverse_relabelling_inverts_the_substitution_over_z(spec):
    for perm in permutations(range(spec.n)):
        forms = slices._variable_images(spec, perm)
        assert all(set(f.values()) <= {1, -1} and f for f in forms)
        # each image lies in block perm(i)
        assert all(spec.blocks[q] == perm[spec.blocks[k]] for k, f in enumerate(forms) for q in f)
        assert inverted_over_z(spec, perm), perm


def test_a_bijective_substitution_that_moves_the_relations_is_refused():
    # the bent copy has as many relations per pair, and (1 2) fixes its bent
    # pair (4,5) and still maps the variables bijectively, but not the span of
    # the relations onto itself: the rank alone refuses it
    spec = build_an(5)
    bad, swap = with_last_relation_bent(spec), (1, 0, 2, 3, 4)
    assert bad.relation_pairs[-1] == (4, 5)
    assert inverted_over_z(bad, swap)
    assert slices._is_automorphism(spec, swap, DEFAULT_PRIME)
    assert not slices._is_automorphism(bad, swap, DEFAULT_PRIME)
    assert block_symmetries(bad) == ()


@pytest.mark.parametrize("case", ["scaled", "dropped", "bent", "duplicated"])
def test_uncertified_presentations_sweep_slice_by_slice(case, monkeypatch):
    spec = build_an(4 if case == "scaled" else 5)
    # a relation of pair (1,3), which neither (1 2) nor the 5-cycle fixes
    k = spec.relation_pairs.index((1, 3))
    if case == "scaled":
        # the same ideal over Q, but relation 0 is zero mod p: the relations'
        # own elimination fails the certificate
        bad = with_first_relation_scaled(spec, DEFAULT_PRIME)
    elif case == "dropped":
        bad = replace(spec, relations=spec.relations[:k] + spec.relations[k + 1:],
                      relation_pairs=spec.relation_pairs[:k] + spec.relation_pairs[k + 1:])
    elif case == "bent":
        bad = with_last_relation_bent(spec)
    else:
        # the same span over Q and mod p, but pair (1,3) has one product row
        # more per slice than its images: refused by the per-pair relation count
        bad = replace(spec, relations=spec.relations + spec.relations[k:k + 1],
                      relation_pairs=spec.relation_pairs + spec.relation_pairs[k:k + 1])
    assert block_symmetries(spec) and block_symmetries(bad) == ()
    assert not slices._is_automorphism(bad, block_symmetries(spec)[0], DEFAULT_PRIME)
    limit = 4 if case == "scaled" else 3
    ranked = swept_against_every_slice(bad, limit, monkeypatch)
    assert ranked == list(degree_grid(bad.nblocks, limit))
    if case == "scaled":
        methods = Counter(slice_dimension(bad, a).method for a in ranked)
        assert methods["rational(after-bad-prime)"] and methods[f"modular({DEFAULT_PRIME})+rational"]


def test_a_candidate_that_moves_the_variables_is_refused(monkeypatch):
    # a block map that is not a bijection sends a[1,2] to the diagonal, which
    # is no value of a section; under the cyclic pivot (1 2) sends a[1,3] to
    # X[2,3] - X[2,1] = -a[2,1], a[2,3] being pivot-normalized away
    spec = build_an(5)
    fold, swap, cycle = (1, 1, 2, 3, 4), (1, 0, 2, 3, 4), (1, 2, 3, 4, 0)
    assert slices._variable_images(spec, swap)[0] == {spec.variables.index(Alpha(2, 1)): -1}
    assert slices._is_automorphism(spec, swap, DEFAULT_PRIME)
    monkeypatch.setattr(slices, "_candidates", lambda s: [fold, cycle])
    assert not slices._is_automorphism(spec, fold, DEFAULT_PRIME)
    assert block_symmetries(spec) == (cycle,)
    ranked = swept_against_every_slice(spec, 4, monkeypatch)
    reps = orbit_representatives(block_symmetries(spec), degree_grid(5, 4))
    assert len(ranked) == len(set(reps)) == 26
