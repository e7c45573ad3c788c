"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

A field object names the field and carries its characteristic, 0 for QQ and
p for GF(p); it holds no arithmetic.  Coefficients are plain numbers: the
relations and the Jacobian minors are integers whatever the field, and the
code that needs a field's arithmetic (the Groebner engine, the elimination
lanes) runs it on ints mod the characteristic, or on ints and
`fractions.Fraction` values over QQ.
"""

from __future__ import annotations

from .errors import UsageError

# Default modulus for rank and Groebner runs: the largest prime below 2^31,
# so a single product of residues stays under 2^63 in signed 64-bit arithmetic.
DEFAULT_PRIME = 2147483647
# Moduli of the Koszul tower, echoed by its reports: TENSOR_PRIME, and
# TENSOR_RETRY_PRIME for a tower that misses its prediction.  Both are below
# 2^20, so an int64 sum holds 8,388,672 products of residues between
# reductions (see exactla.mod_matmul).
TENSOR_PRIME = 1048573
TENSOR_RETRY_PRIME = 1048571


class Rationals:
    """The rationals, QQ."""

    name = "QQ"
    characteristic = 0

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")


# Miller-Rabin with the first 12 primes as bases decides primality exactly
# below this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318_665_857_834_031_151_167_461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for 2 <= n < _MR_LIMIT."""
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Z/p with p prime; its elements are read as ints in [0, p)."""

    def __init__(self, p: int):
        if p < 2:
            raise UsageError(f"modulus must be a prime >= 2, got {p}")
        if p >= _MR_LIMIT:
            raise UsageError(f"modulus {p} is too large to certify as prime")
        if not _is_prime(p):
            raise UsageError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"GF({p})"
        self.characteristic = p

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


Field = Rationals | PrimeField

QQ = Rationals()


def parse_field(text: str) -> Field:
    """Parse a field spec: 'rational' or 'prime:65537' (or 'prime' for the default)."""
    if text in ("rational", "QQ", "qq"):
        return QQ
    if text == "prime":
        return PrimeField(DEFAULT_PRIME)
    if text.startswith("prime:"):
        try:
            p = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise UsageError(f"bad field spec {text!r}") from exc
        return PrimeField(p)
    raise UsageError(f"bad field spec {text!r}; expected 'rational' or 'prime:p'")

