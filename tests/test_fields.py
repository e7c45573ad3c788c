"""Field context axioms and the parser for field specs."""

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
from psiring.rng import SplitMix64


def random_elements(field, seed, count):
    rng = SplitMix64(seed)
    out = []
    while len(out) < count:
        n = rng.randint(-40, 40)
        out.append(field.from_int(n))
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(DEFAULT_PRIME), PrimeField(97)])
def test_ring_axioms_on_random_triples(field):
    xs = random_elements(field, 0x5EED, 30)
    def add(a, b):
        return field.from_int(a + b)

    for a, b, c in zip(xs[::3], xs[1::3], xs[2::3]):
        assert add(a, b) == add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.mul(a, add(b, c)) == add(field.mul(a, b), field.mul(a, c))
        assert field.is_zero(add(a, field.neg(a)))


@pytest.mark.parametrize("field", [QQ, PrimeField(DEFAULT_PRIME), PrimeField(97)])
def test_inverses(field):
    for a in random_elements(field, 0xA17, 20):
        if field.is_zero(a):
            continue
        assert field.mul(a, field.inv(a)) == field.one()
    with pytest.raises(ZeroDivisionError):
        field.inv(field.from_int(0))


def test_rational_payloads_are_fractions():
    assert QQ.from_int(3) == Fraction(3)
    assert QQ.inv(QQ.from_int(3)) == Fraction(1, 3)
    assert QQ.to_int(Fraction(7)) == 7
    assert QQ.to_int(Fraction(1, 3)) is None


def test_prime_field_signed_lift():
    F = PrimeField(101)
    assert F.to_int(F.from_int(-1)) == -1
    assert F.to_int(F.from_int(50)) == 50
    assert F.to_int(F.from_int(51)) == -50
    # lift then reduce is the identity on residues
    for r in range(101):
        assert F.from_int(F.to_int(r)) == r


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
