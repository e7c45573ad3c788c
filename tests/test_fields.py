"""Fields as their characteristics: the primality certificate, the parser for
field specs, field names, and the field inverse as the Groebner engine
computes it."""

from fractions import Fraction

import pytest

from psiring.errors import UsageError
from psiring.fields import (
    DEFAULT_PRIME,
    TENSOR_PRIME,
    TENSOR_RETRY_PRIME,
    check_prime,
    field_name,
    parse_field,
)
from psiring.groebner import PackedRing
from psiring.orders import GREVLEX, MonomialOrder, Packing
from psiring.rng import SplitMix64


@pytest.mark.parametrize("p", [0, DEFAULT_PRIME, 97], ids=["field0", "field1", "field2"])
def test_inverses(p):
    # the field's inverse is the Groebner engine's: a reducer divides by its
    # leading coefficient, so a*x + b*y becomes x + (b/a)*y, read in the field
    ring = PackedRing(p, MonomialOrder(GREVLEX), Packing(2, 8))
    rng = SplitMix64(0xA17)
    for _ in range(20):
        a, b = rng.randint(-40, 40), rng.randint(-40, 40)
        if (a % p if p else a) == 0:
            continue
        want = b * pow(a, -1, p) % p if p else Fraction(b, a)
        got = ring.to_poly(ring.reducer(ring.pack({(1, 0): a, (0, 1): b})))
        assert got == {(1, 0): 1, **({(0, 1): want} if want else {})}


def test_parse_field():
    for text in ("rational", "QQ", "qq"):
        assert parse_field(text) == 0
    assert parse_field("prime") == DEFAULT_PRIME
    assert parse_field("prime:97") == 97
    assert [field_name(parse_field(t)) for t in ("rational", "prime:2", "prime")] == [
        "QQ", "GF(2)", f"GF({DEFAULT_PRIME})"]
    with pytest.raises(UsageError):
        parse_field("galois")
    with pytest.raises(UsageError):
        parse_field("prime:xyz")
    # the parser certifies the prime it reads
    for text in ("prime:100", "prime:1", "prime:-3", "prime:561"):
        with pytest.raises(UsageError):
            parse_field(text)


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
        assert check_prime(p) == p


def test_prime_field_rejects_composites():
    for n in range(2, 3000):
        if trial_division_prime(n):
            assert check_prime(n) == n
        else:
            with pytest.raises(UsageError, match=f"^modulus {n} is not prime$"):
                check_prime(n)
    for n in (1, 0, -3):
        with pytest.raises(UsageError, match=f"^modulus must be a prime >= 2, got {n}$"):
            check_prime(n)
    # a Carmichael number, strong pseudoprimes to bases 2..7 and 2..13, and
    # products of two word-size primes
    for n in (100, 561, 3215031751, 3474749660383, DEFAULT_PRIME * 2147483629,
              TENSOR_PRIME * TENSOR_RETRY_PRIME):
        with pytest.raises(UsageError, match=f"^modulus {n} is not prime$"):
            check_prime(n)
    mersenne = (1 << 61) - 1  # a Mersenne prime beyond the word-size lanes
    assert check_prime(mersenne) == mersenne
    big = (1 << 89) - 1  # prime, but too large to certify
    with pytest.raises(UsageError, match=f"^modulus {big} is too large to certify as prime$"):
        check_prime(big)
