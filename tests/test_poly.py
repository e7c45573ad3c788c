"""Dense-exponent polynomials over both coefficient fields: construction,
derivatives, evaluation, field maps and rendering."""

from fractions import Fraction

import pytest

from psiring.fields import QQ, PrimeField
from psiring.groebner import PackedRing
from psiring.orders import GREVLEX, MonomialOrder, Packing, multidegree
from psiring.poly import Poly, poly_text
from psiring.rng import SplitMix64
from conftest import poly_add, poly_mul

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
    for seed in range(4):
        f = random_poly(QQ, 3, 17 + seed)
        g = random_poly(QQ, 3, 71 + seed)
        for pos in range(3):
            lhs = poly_mul(f, g).derivative(pos)
            rhs = poly_add(poly_mul(f.derivative(pos), g), poly_mul(f, g.derivative(pos)))
            assert lhs == rhs


def test_evaluate_is_a_homomorphism():
    vals = [Fraction(1, 2), Fraction(-3), Fraction(2, 7)]
    for seed in range(4):
        f = random_poly(QQ, 3, 400 + seed)
        g = random_poly(QQ, 3, 500 + seed)
        assert poly_mul(f, g).evaluate(vals) == f.evaluate(vals) * g.evaluate(vals)
        assert poly_add(f, g).evaluate(vals) == f.evaluate(vals) + g.evaluate(vals)


def test_map_field_round_trip():
    f = Poly.from_int_terms(QQ, 2, {(1, 1): -2, (2, 0): 1, (0, 0): -1})
    g = f.map_field(GF)
    assert g.terms.get((1, 1)) == GF.from_int(-2)
    # signed lift brings small coefficients back unchanged
    assert g.map_field(QQ) == f


def test_map_field_rejects_true_fractions():
    f = Poly(QQ, 1, {(1,): Fraction(1, 2)})
    with pytest.raises(ValueError):
        f.map_field(GF)


def test_multidegree_splits_by_block():
    blocks = (0, 0, 1, 2)
    assert multidegree((2, 1, 0, 5), blocks, 3) == (3, 0, 5)
    f = Poly.from_int_terms(QQ, 4, {(1, 1, 0, 0): 1, (2, 0, 0, 0): -1})
    assert f.poly_multidegree(blocks, 3) == (2, 0, 0)
    g = Poly.from_int_terms(QQ, 4, {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1})
    assert g.poly_multidegree(blocks, 3) is None  # mixed blocks: not homogeneous


def test_poly_text_renders_descending():
    f = Poly.from_int_terms(QQ, 2, {(0, 0): 1, (2, 0): -1, (1, 1): 2})
    s = poly_text(f, ["x", "y"], ORDER)
    assert s == "-x^2 + 2*x*y + 1"
