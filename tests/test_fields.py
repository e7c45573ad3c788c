"""Field objects, the parser for field specs, and the field inverse as the
Groebner engine computes it."""

from fractions import Fraction

import pytest

from psiring.errors import UsageError
from psiring.fields import (
    DEFAULT_PRIME,
    QQ,
    TENSOR_PRIME,
    TENSOR_RETRY_PRIME,
    PrimeField,
    parse_field,
)
from psiring.groebner import PackedRing
from psiring.orders import GREVLEX, MonomialOrder, Packing
from psiring.rng import SplitMix64


@pytest.mark.parametrize("field", [QQ, PrimeField(DEFAULT_PRIME), PrimeField(97)])
def test_inverses(field):
    # the field's inverse is the Groebner engine's: a reducer divides by its
    # leading coefficient, so a*x + b*y becomes x + (b/a)*y, read in the field
    p = field.characteristic
    ring = PackedRing(field, MonomialOrder(GREVLEX), Packing(2, 8))
    rng = SplitMix64(0xA17)
    for _ in range(20):
        a, b = rng.randint(-40, 40), rng.randint(-40, 40)
        if (a % p if p else a) == 0:
            continue
        want = b * pow(a, -1, p) % p if p else Fraction(b, a)
        got = ring.to_poly(ring.reducer(ring.pack({(1, 0): a, (0, 1): b})))
        assert got == {(1, 0): 1, **({(0, 1): want} if want else {})}


def test_parse_field():
    assert parse_field("rational") == QQ
    assert parse_field("prime") == PrimeField(DEFAULT_PRIME)
    assert parse_field("prime:97") == PrimeField(97)
    with pytest.raises(UsageError):
        parse_field("galois")
    with pytest.raises(UsageError):
        parse_field("prime:xyz")


def trial_division_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def test_shipped_moduli_are_prime():
    for p in (DEFAULT_PRIME, TENSOR_PRIME, TENSOR_RETRY_PRIME, 32003, 97):
        assert trial_division_prime(p), p
        assert PrimeField(p).p == p


def test_prime_field_rejects_composites():
    for n in range(2, 3000):
        if trial_division_prime(n):
            PrimeField(n)
        else:
            with pytest.raises(UsageError):
                PrimeField(n)
    # a Carmichael number, strong pseudoprimes to bases 2..7 and 2..13, and
    # products of two word-size primes
    for n in (100, 561, 3215031751, 3474749660383, DEFAULT_PRIME * 2147483629,
              TENSOR_PRIME * TENSOR_RETRY_PRIME):
        with pytest.raises(UsageError):
            PrimeField(n)
    PrimeField((1 << 61) - 1)  # a Mersenne prime beyond the word-size lanes
    with pytest.raises(UsageError):
        PrimeField((1 << 89) - 1)  # prime, but too large to certify
