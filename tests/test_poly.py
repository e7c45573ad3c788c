"""Dense-exponent polynomials over both coefficient fields: construction,
rendering, and the test-side reference arithmetic (sum, product, derivative,
evaluation) that other tests build expected values with."""

import itertools
from fractions import Fraction
from types import SimpleNamespace

import pytest

from psiring.fields import QQ, PrimeField
from psiring.groebner import PackedRing
from psiring.orders import GREVLEX, MonomialOrder, Packing, multidegree
from psiring.poly import Poly, poly_text
from psiring.presentation import quadric_degree
from psiring.rng import SplitMix64
from conftest import poly_add, poly_derivative, poly_evaluate, poly_mul

GF = PrimeField(32003)
ORDER = MonomialOrder(GREVLEX)


def random_poly(field, nvars, seed, nterms=5, maxdeg=3):
    rng = SplitMix64(seed)
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
        terms[e] = rng.randint(-9, 9)
    return Poly.from_int_terms(field, nvars, terms)


@pytest.mark.parametrize("field", [QQ, GF])
def test_ring_identities_on_random_polys(field):
    # the reference sum and product that tests build expected polynomials with
    for seed in range(6):
        f = random_poly(field, 4, 100 + seed)
        g = random_poly(field, 4, 200 + seed)
        h = random_poly(field, 4, 300 + seed)
        assert poly_add(f, g) == poly_add(g, f)
        assert poly_mul(f, g) == poly_mul(g, f)
        assert poly_mul(f, poly_add(g, h)) == poly_add(poly_mul(f, g), poly_mul(f, h))
        assert poly_add(f, f, -1).is_zero()
        assert poly_mul(f, Poly.const(field, 4, field.one())) == f


def test_zero_terms_are_dropped():
    f = Poly.from_int_terms(QQ, 2, {(1, 0): 1, (0, 1): 0})
    assert (0, 1) not in f.terms
    g = Poly.from_int_terms(GF, 2, {(1, 0): 32003})
    assert g.is_zero()


def test_leading_and_monic():
    f = Poly.from_int_terms(QQ, 3, {(2, 0, 0): 3, (0, 1, 0): -1, (0, 0, 2): 5})
    # the Groebner engine keeps basis members monic
    ring = PackedRing(QQ, ORDER, Packing(3, 8))
    g = ring.reducer(ring.pack(f))
    assert ring.packing.unpack(g.lead) == (2, 0, 0)  # grevlex tie-break favors early variables
    m = ring.to_poly(g)
    assert m.terms[(2, 0, 0)] == QQ.one()
    assert m.terms.get((0, 0, 2)) == Fraction(5, 3)


def test_derivative_product_rule():
    # the reference derivative that the integer Jacobian is checked against
    for field, seed in itertools.product((QQ, GF), range(4)):
        f = random_poly(field, 3, 17 + seed)
        g = random_poly(field, 3, 71 + seed)
        for pos in range(3):
            lhs = poly_derivative(poly_mul(f, g), pos)
            rhs = poly_add(poly_mul(poly_derivative(f, pos), g),
                           poly_mul(f, poly_derivative(g, pos)))
            assert lhs == rhs


def test_evaluate_is_a_homomorphism():
    # the reference evaluation that the vanishing test is checked against
    vals = [Fraction(1, 2), Fraction(-3), Fraction(2, 7)]
    for seed in range(4):
        f = random_poly(QQ, 3, 400 + seed)
        g = random_poly(QQ, 3, 500 + seed)
        assert poly_evaluate(poly_mul(f, g), vals) == poly_evaluate(f, vals) * poly_evaluate(g, vals)
        assert poly_evaluate(poly_add(f, g), vals) == poly_evaluate(f, vals) + poly_evaluate(g, vals)
    x = Poly.from_int_terms(QQ, 3, {(1, 0, 2): 3})
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
    f = Poly.from_int_terms(QQ, 2, {(0, 0): 1, (2, 0): -1, (1, 1): 2})
    s = poly_text(f, ["x", "y"], ORDER)
    assert s == "-x^2 + 2*x*y + 1"
