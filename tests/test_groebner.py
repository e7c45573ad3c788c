"""Buchberger completion, normal forms, standard monomials, and the
combinatorial Krull dimension read off the leading-term ideal.
"""

import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

import psiring.groebner as groebner
from psiring.errors import UsageError
from psiring.fields import DEFAULT_PRIME, field_name
from psiring.geometry import singular_minors
from psiring.groebner import (
    PackedRing,
    buchberger,
    groebner_for,
    krull_dimension,
    leading_terms_agree,
    linear_interreduce,
    s_poly,
)
from psiring.orders import BLOCK_GREVLEX, GREVLEX, LEX, MonomialOrder, Packing
from psiring.poly import poly_text, sorted_terms
from psiring.presentation import CUSTOM, PivotScheme, build_an, relation_polys
from psiring.rng import SplitMix64
from psiring.series import degree_grid, lee_series
from psiring.slices import standard_monomial_count
from conftest import (
    cached_an, cached_bnm, in_field, poly_add, poly_derivative, poly_mul, reduce_poly,
)
from test_presentation import formula

GF = P = 32003
ORDER = MonomialOrder(GREVLEX)


def test_sp_poly_cancels_leading_terms():
    f = {(2, 0): 1, (0, 1): 1}
    g = {(1, 1): 1, (1, 0): 1}
    pk = Packing(2, 8)
    ring = PackedRing(0, ORDER, pk)
    s = s_poly(ring.reducer(ring.pack(f)), ring.reducer(ring.pack(g)), ring)
    # both lcm-scaled leading terms cancel
    assert max(ORDER.key(pk.unpack(e)) for e in s) < ORDER.key((2, 1))


def test_textbook_completion():
    # x^2 - y, xy - x over QQ: completion adds y^2 - y and yx - x stays
    f = {(2, 0): 1, (0, 1): -1}
    g = {(1, 1): 1, (1, 0): -1}
    gb = buchberger([f, g], 0, ORDER)
    assert gb.complete
    lts = set(gb.leads)
    assert lts == {(2, 0), (1, 1), (0, 2)}
    # x*y^2 reduces to x under the completed basis
    nf = reduce_poly({(1, 2): 1}, gb.basis, 0, ORDER)
    assert nf == {(1, 0): 1}


def test_normal_form_is_idempotent_and_linear():
    spec = cached_an(4, GF)
    gb = groebner_for(spec)
    rng = SplitMix64(0xF00D)
    for _ in range(5):
        terms = {}
        for _ in range(4):
            e = tuple(rng.randint(0, 2) for _ in range(spec.nvars))
            terms[e] = rng.randint(-5, 5)
        f = in_field(terms, P)
        nf = reduce_poly(f, gb.basis, GF, gb.order)
        assert reduce_poly(nf, gb.basis, GF, gb.order) == nf
        # f - nf lies in the ideal
        assert not reduce_poly(poly_add(f, nf, P, -1), gb.basis, GF, gb.order)


def test_conifold_basis_is_the_single_relation():
    gb = groebner_for(cached_bnm(2, 2))
    assert len(gb) == 1
    assert krull_dimension(gb) == 3


def test_zero_ideal_three_points():
    gb = groebner_for(cached_an(3))
    assert len(gb) == 0
    assert gb.complete
    assert krull_dimension(gb) == 3  # polynomial ring on 3 variables


@pytest.mark.parametrize("n,want", [(4, 5), (5, 7)])
def test_krull_dimension_an(n, want):
    gb = groebner_for(cached_an(n, GF))
    assert krull_dimension(gb) == want


@pytest.mark.parametrize("n,m", [(3, 1), (4, 1), (3, 2), (2, 3)])
def test_krull_dimension_b_family(n, m):
    gb = groebner_for(cached_bnm(n, m, GF))
    assert krull_dimension(gb) == 2 * n + m - 3


def test_krull_requires_completion():
    spec = cached_an(5, GF)
    capped = groebner_for(spec, cap=2)
    assert not capped.complete
    with pytest.raises(UsageError):
        krull_dimension(capped)


def test_capped_run_is_a_prefix_of_the_full_basis():
    spec = cached_an(5, GF)
    full = groebner_for(spec)
    capped = groebner_for(spec, cap=2)
    full_lts = {e for e in full.leads if sum(e) <= 2}
    assert set(capped.leads) == full_lts


def test_cross_field_leading_terms():
    for build in (lambda f: cached_an(4, f), lambda f: cached_bnm(3, 1, f)):
        gq = groebner_for(build(0))
        gp = groebner_for(build(GF))
        assert leading_terms_agree(gq, gp)


@pytest.mark.parametrize("n", [4, 5])
def test_standard_monomials_match_series(n):
    spec = cached_an(n, GF)
    gb = groebner_for(spec)
    s = lee_series(n, 3)
    for a in degree_grid(n, 3):
        assert standard_monomial_count(gb, spec, a) == s[a], a


def test_confluence_probe_on_random_elements():
    # division by a Groebner basis has one remainder, whatever the reducers' order
    spec = cached_an(5, GF)
    gb = groebner_for(spec)
    rng = SplitMix64(0xCAFE)
    for trial in range(3):
        terms = {}
        for _ in range(5):
            e = tuple(rng.randint(0, 1) for _ in range(spec.nvars))
            terms[e] = rng.randint(1, 7)
        f = in_field(terms, P)
        base = reduce_poly(f, gb.basis, GF, gb.order)
        basis = list(gb.basis)
        shuffler = random.Random(trial)
        for _ in range(6):
            shuffler.shuffle(basis)
            assert reduce_poly(f, basis, GF, gb.order) == base


def test_spanning_pair_relations_reduce_to_zero():
    spec = cached_an(5, GF)
    gb = groebner_for(spec)
    r = formula(spec, 1, 3, 2, 5)
    assert r
    assert not reduce_poly(r, gb.basis, GF, gb.order)


def test_basis_is_reduced_and_monic():
    gb = groebner_for(cached_an(4, GF))
    lts = gb.leads
    for i, g in enumerate(gb.basis):
        assert g[lts[i]] == 1
        # no term of g is divisible by another leading term
        for j, lt in enumerate(lts):
            if i == j:
                continue
            for e in g:
                assert not all(x <= y for x, y in zip(lt, e))


def test_lex_order_also_completes_small_case():
    gb = groebner_for(cached_an(4, GF), order=MonomialOrder(LEX))
    assert gb.complete
    assert krull_dimension(gb) == 5


def test_linear_interreduce_drops_dependent_rows():
    f = {(1, 0): 1, (0, 1): 1}
    g = {(1, 0): 2, (0, 1): 2}
    h = {(1, 0): 1, (0, 1): -1}
    assert linear_interreduce([f, g, h], ORDER, 0) == [f, {(0, 1): -1}]


def field_ids(pins):
    """pytest ids field0, field1, ... for (characteristic, digest) pins, each
    followed by its digest."""
    return [f"field{t}-{digest}" for t, (_, digest) in enumerate(pins)]


INTERREDUCE_PINS = [
    (DEFAULT_PRIME, "d18b8a3b568da1ef90482fa047dce83353ba673bfe73ee0343d8dd43833925bd"),
    (0, "b06d735b8f0671d532d5a068799975662819a12a7061b1161cc77f37a278592a"),
]


@pytest.mark.parametrize("p,digest", INTERREDUCE_PINS, ids=field_ids(INTERREDUCE_PINS))
def test_linear_interreduce_output_is_pinned(p, digest):
    # A_4's relations plus its codimension-sized Jacobian minors, the input
    # singular_locus_dim hands over; the digest is of the output rows made
    # monic in the field, rendered as residues mod p or as rationals
    spec = build_an(4).to_field(p)
    minors = singular_minors(spec, spec.nvars - 5)
    gens = relation_polys(spec) + minors
    assert len(gens) == 714
    out = linear_interreduce(gens, ORDER, p)
    assert len(out) == 126
    rows = []
    for g in out:
        terms = sorted_terms(in_field(g, p), ORDER)
        lead = terms[0][1]
        rows.append([(e, str(c * pow(lead, -1, p) % p if p else Fraction(c, lead)))
                     for e, c in terms])
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


PIVOT_PINS = [
    (DEFAULT_PRIME, "05427afabd213e3282be467ee018dc4192bfef2e05301f63d482f6e67fd8d668"),
    (0, "5aae1defb9892dc283ccb6fa16b12b56a9cfd44b97a199213409840971757aff"),
]


@pytest.mark.parametrize("p,digest", PIVOT_PINS, ids=field_ids(PIVOT_PINS))
def test_linear_interreduce_rows_are_the_primitive_pivots(p, digest):
    # the same input, digested before scaling: exactly the pivot rows that
    # exactla.sparse_echelon gave before it also reported the rows that
    # vanished, integers, digested as read into the field
    spec = build_an(4).to_field(p)
    gens = relation_polys(spec) + singular_minors(spec, spec.nvars - 5)
    out = linear_interreduce(gens, ORDER, p)
    assert all(type(c) is int for g in out for c in g.values())
    rows = [[(e, str(c)) for e, c in sorted_terms(in_field(g, p), ORDER)] for g in out]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def test_linear_interreduce_keeps_an_uncertified_batch():
    # x + y and x + 4y over Z: the second pivot is 3y, so at p = 3 its lead
    # vanishes, the elimination is not certified there and the batch of
    # linear forms stays as it was; the quadric x^2 + y^2 is certified alone
    f, g = {(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): 4}
    q = {(2, 0): 1, (0, 2): 1}
    gens = [q, f, g]
    out = linear_interreduce(gens, ORDER, 3)
    assert len(out) == 3
    assert all(sum(e) == 1 for h in out[:2] for e in h)
    assert out[:2] == [f, g]
    leads = [sorted(buchberger(hs, 3, ORDER).leads) for hs in (out, gens)]
    assert leads[0] == leads[1]
    # certified at 5, where the two linear forms reduce to their pivots x + y and y
    assert linear_interreduce(gens, ORDER, 5) == [f, {(0, 1): 1}, q]


def test_mixed_fields_rejected():
    # the field comes as an argument, so only the variable counts can mix
    with pytest.raises(UsageError):
        buchberger([{(1, 0): 1}, {(0, 1, 0): 1}], 0, ORDER)
    with pytest.raises(UsageError):
        buchberger([], 0, ORDER)


def test_a_characteristic_that_is_not_prime_is_refused():
    # buchberger certifies the characteristic it is handed, as a spec does
    f = {(2, 0): 1, (0, 2): 1}
    with pytest.raises(UsageError, match="^modulus 4 is not prime$"):
        buchberger([f], 4, ORDER)
    with pytest.raises(UsageError, match="^modulus must be a prime >= 2, got -5$"):
        buchberger([f], -5, ORDER)


def test_a5_completion_work_is_pinned(monkeypatch):
    # the work and the S-pair order of the selection by (lcm degree, order key
    # of the lcm, j, i); the digest is of the sequence of leading-term pairs.
    # normal_form runs once per S-pair, once per generator as it joins (20)
    # and once per member in the final interreduction (27)
    calls = {"s_poly": 0, "normal_form": 0}
    pairs = []
    real_s_poly, real_normal_form = groebner.s_poly, groebner.normal_form

    def s_poly_spy(f, g, ring):
        calls["s_poly"] += 1
        pairs.append((ring.packing.unpack(f.lead), ring.packing.unpack(g.lead)))
        return real_s_poly(f, g, ring)

    def normal_form_spy(*args, **kwargs):
        calls["normal_form"] += 1
        return real_normal_form(*args, **kwargs)

    monkeypatch.setattr(groebner, "s_poly", s_poly_spy)
    monkeypatch.setattr(groebner, "normal_form", normal_form_spy)
    gb = groebner_for(build_an(5))
    assert calls == {"s_poly": 100, "normal_form": 147}
    assert len(gb) == 27
    digest = hashlib.sha256(repr(pairs).encode()).hexdigest()
    assert digest == "c3cdf0f6b73766fa187a82bcee9dd78b7408a860eb13c204e85dfefb5f19c2fd"


def test_packed_divisibility_agrees_with_tuple_divisibility():
    rng = SplitMix64(0x5EED)
    # exponents up to 2^8, 2^20 and 2^72 (randint draws below 2^64, then scales)
    for top, scale in ((3, 1), (2 ** 8, 1), (2 ** 20, 1), (2 ** 62, 2 ** 10)):
        def draw(lo):
            return rng.randint(0, 1) * rng.randint(lo, top) * scale

        for _ in range(300):
            nv = rng.randint(1, 12)
            a = tuple(draw(1) for _ in range(nv))
            if rng.randint(0, 1):  # a multiple of a, so that divisors occur often
                b = tuple(x + draw(0) for x in a)
            else:
                b = tuple(draw(1) for _ in range(nv))
            pk = Packing.fitting(nv, max(a + b))
            ca, cb = pk.pack(a), pk.pack(b)
            assert pk.divides(ca, cb) == all(x <= y for x, y in zip(a, b))
            assert pk.divides(cb, ca) == all(y <= x for x, y in zip(a, b))


@pytest.mark.parametrize("spec", [cached_an(4), cached_an(5), cached_bnm(3, 2)],
                         ids=["a4", "a5", "b32"])
@pytest.mark.parametrize("kind", [GREVLEX, LEX, BLOCK_GREVLEX])
def test_leads_are_the_leading_exponents(spec, kind):
    # the engine records each member's leading exponent as it completes the basis
    order = MonomialOrder(kind, blocks=spec.blocks, nblocks=spec.nblocks)
    gb = groebner_for(spec, order)
    assert len(gb.leads) == len(gb.basis) > 0
    for lead, g in zip(gb.leads, gb.basis):
        assert lead == max(g, key=order.key)


@pytest.mark.parametrize("n,pivot", [
    (4, None), (4, PivotScheme(CUSTOM, (3, 4, 1, 2))),
    (5, None), (5, PivotScheme(CUSTOM, (3, 1, 5, 2, 4))),
], ids=["a4-cyclic", "a4-custom", "a5-cyclic", "a5-custom"])
def test_leading_terms_match_sympy(n, pivot):
    sympy = pytest.importorskip("sympy")
    spec = build_an(n, pivot)
    gens = sympy.symbols(f"x0:{spec.nvars}")
    polys = [sum(c * gens[a] * gens[b] for a, b, c in r) for r in spec.relations]
    ref = sympy.groebner(polys, *gens, order="grevlex")
    want = sorted(sympy.Poly(g, *gens).monoms(order="grevlex")[0] for g in ref.exprs)
    assert sorted(groebner_for(spec).leads) == want


@pytest.mark.parametrize("order", [
    MonomialOrder(GREVLEX), MonomialOrder(LEX),
    MonomialOrder(BLOCK_GREVLEX, blocks=(0, 0, 1, 1, 2), nblocks=3),
], ids=lambda o: o.kind)
def test_packed_keys_sort_as_the_order_key(order):
    rng = SplitMix64(0xABC)
    pk = Packing(5, 8)
    ring = PackedRing(0, order, pk)
    exps = {tuple(rng.randint(0, 3) for _ in range(5)) for _ in range(300)}
    by_code = sorted(exps, key=lambda e: ring.key(pk.pack(e)))
    assert by_code == sorted(exps, key=order.key)


def test_exponents_past_the_first_width_are_repacked(monkeypatch):
    # lex x > y > z: x - y^200 packs in 8-bit fields, but reducing x^2 by it
    # makes y^400, so the run starts again at 16 bits and finishes there
    widths = []
    real = groebner.PackedRing

    def ring_spy(field, order, packing):
        widths.append(packing.bits)
        return real(field, order, packing)

    monkeypatch.setattr(groebner, "PackedRing", ring_spy)
    lex = MonomialOrder(LEX)
    f = {(1, 0, 0): 1, (0, 200, 0): -1}
    g = {(2, 0, 0): 1, (0, 0, 1): -1}
    gb = buchberger([f, g], 0, lex)
    assert widths == [8, 16]
    assert gb.basis == [{(0, 400, 0): 1, (0, 0, 1): -1}, f]

    # x^300 needs 9 bits from the start; the completion stays inside them
    widths.clear()
    f = {(300, 0, 0): 1, (0, 300, 0): -1}
    g = {(1, 2, 0): 1, (0, 0, 1): -1}
    gb = buchberger([f, g], 0, ORDER)
    assert widths == [9]
    sympy = pytest.importorskip("sympy")
    x, y, z = sympy.symbols("x y z")
    ref = sympy.groebner([x ** 300 - y ** 300, x * y ** 2 - z], x, y, z, order="grevlex")
    want = {frozenset((e, int(c)) for e, c in sympy.Poly(r, x, y, z).terms())
            for r in ref.exprs}
    assert {frozenset(g.items()) for g in gb.basis} == want


def groebner_layer_rows():
    """(presentation, field, order, cap, complete, basis text, leads) over a
    matrix of presentations, fields, orders and degree caps."""
    specs = [("a4", build_an(4)), ("a5c", build_an(5, PivotScheme(CUSTOM, (3, 1, 5, 2, 4)))),
             ("b22", cached_bnm(2, 2)), ("b31", cached_bnm(3, 1)), ("b32", cached_bnm(3, 2))]
    for name, spec in specs:
        names = spec.var_names()
        orders = [ORDER, MonomialOrder(BLOCK_GREVLEX, blocks=spec.blocks, nblocks=spec.nblocks)]
        if spec.nvars <= 6:
            orders.append(MonomialOrder(LEX))
        for field in (0, DEFAULT_PRIME):
            s = spec.to_field(field)
            for order in orders:
                for cap in (None, 1, 2, 3):
                    gb = groebner_for(s, order, cap=cap)
                    yield (name, field_name(field), order.kind, cap, gb.complete,
                           [poly_text(g, names, order) for g in gb.basis], gb.leads)


def test_groebner_layer_outputs_are_pinned():
    # 96 completions; the digest was taken from the engine that let every
    # generator join unreduced and kept QQ coefficients as Fractions
    rows = list(groebner_layer_rows())
    assert len(rows) == 96
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "304e9760cff89b65b95bbb933dbc51bc375b492c9a0d54065f5231d572a4dd14"


@pytest.mark.parametrize("spec", [cached_an(5, GF), cached_bnm(3, 2)], ids=["a5-gf", "b32-qq"])
def test_shuffled_duplicated_rescaled_generators_give_the_same_basis(spec):
    want = groebner_for(spec)
    rng = random.Random(7)
    for trial in range(3):
        gens = relation_polys(spec)
        gens += rng.sample(gens, 4)  # duplicates
        scales = [rng.choice([-3, 2, 5]) for _ in gens]
        gens = [{e: c * k for e, c in g.items()} for g, k in zip(gens, scales)]
        rng.shuffle(gens)
        gb = buchberger(gens, spec.field, want.order)
        assert gb.basis == want.basis and gb.leads == want.leads, trial


def test_fractional_input_gives_the_monic_basis_of_its_integral_scaling():
    spec = cached_bnm(3, 2)
    scales = [Fraction(2, 3), Fraction(1, 2)]
    gens = [{e: c * scales[t % 2] for e, c in g.items()}
            for t, g in enumerate(relation_polys(spec))]
    assert any(c.denominator > 1 for g in gens for c in g.values())
    gb, want = buchberger(gens, 0, ORDER), groebner_for(spec)
    assert gb.basis == want.basis and gb.leads == want.leads
    # B(3,2)'s monic basis is integral: plain ints, whatever the input's type
    assert all(type(c) is int for g in gb.basis + want.basis for c in g.values())


def reference_minors(spec, c, p):
    """The c x c minors of the Jacobian by cofactor expansion along the first
    row, over the field of characteristic p on exponent tuples, zero minors
    left out."""
    jac = [[poly_derivative(in_field(rel, p), v, p) for v in range(spec.nvars)]
           for rel in relation_polys(spec)]

    def det(rows, cols):
        if len(rows) == 1:
            return jac[rows[0]][cols[0]]
        out = {}
        for k, col in enumerate(cols):
            if not jac[rows[0]][col]:
                continue
            term = poly_mul(jac[rows[0]][col], det(rows[1:], cols[:k] + cols[k + 1:]), p)
            out = poly_add(out, term, p, 1 if k % 2 == 0 else -1)
        return out

    return [d for rows in combinations(range(len(jac)), c)
            for cols in combinations(range(spec.nvars), c) if (d := det(rows, cols))]


@pytest.mark.parametrize("p", [0, DEFAULT_PRIME], ids=["qq", "gf"])
@pytest.mark.parametrize("build", [lambda p: cached_an(4, p), lambda p: cached_bnm(3, 1, p)],
                         ids=["a4", "b31"])
def test_singular_minors_are_the_cofactor_expansion(build, p):
    # the minors are integer polynomials whatever the spec's field: over Z
    # they are the reference's, each with its terms in the same order, and
    # read mod p they are the reference's minors over GF(p)
    spec = build(p)
    c = spec.nvars - (2 * spec.n + spec.m - 3)
    got = singular_minors(spec, c)
    assert len(got) > 0
    assert got == singular_minors(spec.to_field(0), c)
    assert [list(g.items()) for g in got] == [list(g.items()) for g in reference_minors(spec, c, 0)]
    assert all(type(v) is int for g in got for v in g.values())
    assert [m for g in got if (m := in_field(g, p))] == reference_minors(spec, c, p)


def brute_force_cover(supports, nvars):
    for size in range(nvars + 1):
        for chosen in combinations(range(nvars), size):
            if all(s & set(chosen) for s in supports):
                return size


def test_min_hitting_set_agrees_with_brute_force():
    rng = SplitMix64(0x417)
    for trial in range(150):
        nvars = rng.randint(1, 10)
        supports = [frozenset(rng.randint(0, nvars - 1) for _ in range(rng.randint(1, 4)))
                    for _ in range(rng.randint(0, 12))]
        assert groebner._min_hitting_set(supports) == brute_force_cover(supports, nvars), trial
    # a constant in the basis: the unit ideal, whose quotient has dimension -1
    assert krull_dimension(buchberger([{(1, 0): 1}, {(0, 0): 3}], 0, ORDER)) == -1
