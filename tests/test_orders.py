"""Monomial order properties checked on seeded random exponent tuples."""

import pytest

from psiring.orders import (
    BLOCK_GREVLEX,
    GREVLEX,
    LEX,
    MonomialOrder,
    Packing,
    PackingOverflow,
)
from psiring.rng import SplitMix64

NVARS = 6
BLOCKS = (0, 0, 1, 1, 2, 2)

ORDERS = [
    MonomialOrder(GREVLEX),
    MonomialOrder(LEX),
    MonomialOrder(BLOCK_GREVLEX, blocks=BLOCKS, nblocks=3),
]


def exp_mul(a, b):
    """The product of two monomials on exponent tuples."""
    return tuple(x + y for x, y in zip(a, b))


def random_exponents(seed, count):
    rng = SplitMix64(seed)
    return [tuple(rng.randint(0, 4) for _ in range(NVARS)) for _ in range(count)]


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.kind)
def test_total_and_multiplicative(order):
    exps = random_exponents(0xC0FFEE, 40)
    one = (0,) * NVARS
    for a, b, c in zip(exps[::3], exps[1::3], exps[2::3]):
        ka, kb = order.key(a), order.key(b)
        # totality: exactly one of <, =, > and = only for equal tuples
        assert (ka == kb) == (a == b)
        # 1 is minimal
        if a != one:
            assert order.key(a) > order.key(one)
        # multiplying both sides preserves the comparison
        if ka > kb:
            assert order.key(exp_mul(a, c)) > order.key(exp_mul(b, c))


def test_grevlex_ties_break_on_last_variable():
    o = MonomialOrder(GREVLEX)
    # same total degree: the one with less in the last variable wins
    assert o.key((1, 0, 0, 0, 0, 1)) > o.key((0, 0, 0, 0, 0, 2))
    # x1^2 > x1*x2 > x2^2 at equal total degree
    assert o.key((2, 0, 0, 0, 0, 0)) > o.key((1, 1, 0, 0, 0, 0))
    assert o.key((1, 1, 0, 0, 0, 0)) > o.key((0, 2, 0, 0, 0, 0))


def test_lex_ignores_degree():
    o = MonomialOrder(LEX)
    assert o.key((1, 0, 0, 0, 0, 0)) > o.key((0, 9, 9, 9, 9, 9))


def test_block_order_compares_multidegree_first():
    o = MonomialOrder(BLOCK_GREVLEX, blocks=BLOCKS, nblocks=3)
    # higher first-block weight beats any amount in later blocks
    assert o.key((1, 0, 0, 0, 0, 0)) > o.key((0, 0, 3, 0, 0, 3))
    # equal multidegrees fall back to grevlex
    g = MonomialOrder(GREVLEX)
    a = (1, 1, 0, 1, 0, 0)
    b = (2, 0, 1, 0, 0, 0)
    assert (o.key(a) > o.key(b)) == (g.key(a) > g.key(b))


def test_exponent_helpers():
    a, b = (2, 1, 0, 0, 3, 0), (1, 1, 1, 0, 0, 0)
    pk = Packing(NVARS, 8)
    ca, cb = pk.pack(a), pk.pack(b)
    assert pk.unpack(ca + cb) == (3, 2, 1, 0, 3, 0)
    assert pk.unpack(pk.lcm(ca, cb)) == (2, 1, 1, 0, 3, 0)
    assert pk.degree(ca) == 6
    assert not pk.divides(ca, cb)
    assert pk.divides(cb, ca + cb)
    assert pk.unpack(ca + cb - cb) == a
    assert pk.pack((1, 2), positions=(4, 1)) == pk.pack((0, 2, 0, 0, 1, 0))


@pytest.mark.parametrize("bits", [1, 3, 8, 16])
def test_packing_agrees_with_tuple_arithmetic(bits):
    # product, quotient, divisibility, lcm and degree against their tuple
    # definitions; a third of the exponents sit at the largest a field holds
    rng = SplitMix64(0xBEEF + bits)
    top = (1 << bits) - 1
    for _ in range(400):
        nv = rng.randint(1, 40)
        pk = Packing(nv, bits)

        def draw():
            return tuple(top if rng.randint(0, 2) == 0 else rng.randint(0, top)
                         for _ in range(nv))

        a, b = draw(), draw()
        ca, cb = pk.pack(a), pk.pack(b)
        assert pk.unpack(ca) == a
        assert pk.degree(ca) == sum(a)
        assert pk.unpack(pk.lcm(ca, cb)) == tuple(max(x, y) for x, y in zip(a, b))
        divides = all(x <= y for x, y in zip(a, b))
        assert pk.divides(ca, cb) == divides
        if divides:
            assert pk.unpack(cb - ca) == tuple(y - x for x, y in zip(a, b))
        # a product overflows exactly when some exponent sum leaves the field
        prod = ca + cb
        assert bool(prod & pk.guard) == any(x + y > top for x, y in zip(a, b))
        if not prod & pk.guard:
            assert pk.unpack(prod) == exp_mul(a, b)
            assert pk.degree(prod) == sum(a) + sum(b)


def test_packing_refuses_exponents_past_its_fields():
    pk = Packing(2, 8)
    assert pk.unpack(pk.pack((255, 0))) == (255, 0)
    with pytest.raises(PackingOverflow):
        pk.pack((256, 0))
    assert Packing.fitting(2, 300).bits == 9
    assert Packing.fitting(2, 3).bits == 8


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        MonomialOrder("weight")
    with pytest.raises(ValueError):
        MonomialOrder(BLOCK_GREVLEX)  # needs the block map

