"""Dense-exponent polynomials as {exponent: coefficient} dicts over both
coefficient fields: packing into the field, rendering, and the test-side
reference arithmetic (sum, product, derivative, evaluation) that other tests
build expected values with."""

import itertools
from fractions import Fraction
from types import SimpleNamespace

import pytest

from psiring.groebner import PackedRing
from psiring.orders import GREVLEX, MonomialOrder, Packing, multidegree
from psiring.poly import poly_text
from psiring.presentation import quadric_degree
from psiring.rng import SplitMix64
from conftest import in_field, poly_add, poly_derivative, poly_evaluate, poly_mul

GF = 32003
ORDER = MonomialOrder(GREVLEX)


def random_poly(p, nvars, seed, nterms=5, maxdeg=3):
    rng = SplitMix64(seed)
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
        terms[e] = rng.randint(-9, 9)
    return in_field(terms, p)


@pytest.mark.parametrize("p", [0, GF], ids=["field0", "field1"])
def test_ring_identities_on_random_polys(p):
    # the reference sum and product that tests build expected polynomials with
    for seed in range(6):
        f = random_poly(p, 4, 100 + seed)
        g = random_poly(p, 4, 200 + seed)
        h = random_poly(p, 4, 300 + seed)
        assert poly_add(f, g, p) == poly_add(g, f, p)
        assert poly_mul(f, g, p) == poly_mul(g, f, p)
        assert poly_mul(f, poly_add(g, h, p), p) == poly_add(poly_mul(f, g, p),
                                                             poly_mul(f, h, p), p)
        assert not poly_add(f, f, p, -1)
        assert poly_mul(f, {(0,) * 4: 1}, p) == f


def test_zero_terms_are_dropped():
    # packing reads the coefficients into the field and drops the zeros there
    ring = PackedRing(0, ORDER, Packing(2, 8))
    assert ring.poly(ring.pack({(1, 0): 1, (0, 1): 0})) == {(1, 0): 1}
    ring = PackedRing(GF, ORDER, Packing(2, 8))
    assert not ring.pack({(1, 0): 32003})
    assert ring.poly(ring.pack({(1, 0): -1, (0, 1): 32004})) == {(1, 0): 32002, (0, 1): 1}


def test_leading_and_monic():
    f = {(2, 0, 0): 3, (0, 1, 0): -1, (0, 0, 2): 5}
    # the Groebner engine keeps basis members monic: an int where the value
    # is integral over QQ, a Fraction elsewhere, and residues mod p
    ring = PackedRing(0, ORDER, Packing(3, 8))
    g = ring.reducer(ring.pack(f))
    assert ring.packing.unpack(g.lead) == (2, 0, 0)  # grevlex tie-break favors early variables
    m = ring.to_poly(g)
    assert m == {(2, 0, 0): 1, (0, 1, 0): Fraction(-1, 3), (0, 0, 2): Fraction(5, 3)}
    assert type(m[2, 0, 0]) is int
    ring = PackedRing(GF, ORDER, Packing(3, 8))
    m = ring.to_poly(ring.reducer(ring.pack(f)))
    third = pow(3, -1, 32003)
    assert m == {(2, 0, 0): 1, (0, 1, 0): -third % 32003, (0, 0, 2): 5 * third % 32003}


def test_derivative_product_rule():
    # the reference derivative that the integer Jacobian is checked against
    for p, seed in itertools.product((0, GF), range(4)):
        f = random_poly(p, 3, 17 + seed)
        g = random_poly(p, 3, 71 + seed)
        for pos in range(3):
            lhs = poly_derivative(poly_mul(f, g, p), pos, p)
            rhs = poly_add(poly_mul(poly_derivative(f, pos, p), g, p),
                           poly_mul(f, poly_derivative(g, pos, p), p), p)
            assert lhs == rhs


def test_evaluate_is_a_homomorphism():
    # the reference evaluation that the vanishing test is checked against
    vals = [Fraction(1, 2), Fraction(-3), Fraction(2, 7)]
    for seed in range(4):
        f = random_poly(0, 3, 400 + seed)
        g = random_poly(0, 3, 500 + seed)
        fv, gv = poly_evaluate(f, vals), poly_evaluate(g, vals)
        assert poly_evaluate(poly_mul(f, g, 0), vals) == fv * gv
        assert poly_evaluate(poly_add(f, g, 0), vals) == fv + gv
    x = {(1, 0, 2): 3}
    assert poly_evaluate(x, vals) == 3 * Fraction(1, 2) * Fraction(2, 7) ** 2


def test_multidegree_splits_by_block():
    blocks = (0, 0, 1, 2)
    assert multidegree((2, 1, 0, 5), blocks, 3) == (3, 0, 5)
    grading = SimpleNamespace(blocks=blocks, nblocks=3)
    assert quadric_degree(grading, [(0, 1, 1), (0, 0, -1)]) == (2, 0, 0)
    assert quadric_degree(grading, [(2, 3, 5)]) == (0, 1, 1)
    assert quadric_degree(grading, [(0, 0, 1), (0, 2, 1)]) is None  # mixed blocks
    assert quadric_degree(grading, []) is None


def test_poly_text_renders_descending():
    f = {(0, 0): 1, (2, 0): -1, (1, 1): 2}
    assert poly_text(f, ["x", "y"], ORDER) == "-x^2 + 2*x*y + 1"
    assert poly_text({(0, 1): Fraction(-2, 3), (1, 0): 5}, ["x", "y"], ORDER) == "5*x - 2/3*y"
    assert poly_text({}, ["x", "y"], ORDER) == "0"
