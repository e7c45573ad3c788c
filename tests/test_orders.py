"""Monomial order properties checked on seeded random exponent tuples."""

import pytest

from psiring.orders import (
    BLOCK_GREVLEX,
    GREVLEX,
    LEX,
    MonomialOrder,
    exp_degree,
    exp_div,
    exp_divides,
    exp_lcm,
    exp_mul,
)
from psiring.rng import SplitMix64

NVARS = 6
BLOCKS = (0, 0, 1, 1, 2, 2)

ORDERS = [
    MonomialOrder(GREVLEX),
    MonomialOrder(LEX),
    MonomialOrder(BLOCK_GREVLEX, blocks=BLOCKS, nblocks=3),
]


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
    assert exp_mul(a, b) == (3, 2, 1, 0, 3, 0)
    assert exp_lcm(a, b) == (2, 1, 1, 0, 3, 0)
    assert exp_degree(a) == 6
    assert not exp_divides(a, b)
    assert exp_divides(b, exp_mul(a, b))
    assert exp_div(exp_mul(a, b), b) == a


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        MonomialOrder("weight")
    with pytest.raises(ValueError):
        MonomialOrder(BLOCK_GREVLEX)  # needs the block map

