"""Exact coefficient fields, each one its characteristic: 0 for QQ, p for GF(p).

A field is a plain int, so the layers pass it as they pass any prime.  It
holds no arithmetic: the relations and the Jacobian minors are integers
whatever the field, and the code that needs a field's arithmetic (the
Groebner engine, the elimination lanes) runs it on ints mod p, or on ints and
`fractions.Fraction` values over QQ.  A nonzero characteristic is certified
prime by check_prime where it enters a computation.
"""

from __future__ import annotations

from .errors import UsageError

# Default modulus for rank and Groebner runs: the largest prime below 2^31,
# so a single product of residues stays under 2^63 in signed 64-bit arithmetic.
DEFAULT_PRIME = 2147483647
# Moduli of the Koszul tower, echoed by its reports: TENSOR_PRIME, and
# TENSOR_RETRY_PRIME for a tower that misses its prediction.  Both routes
# eliminate on Python ints, so their size bounds no sum; they are kept just
# below 2^20 because the reports and the pinned results name them.
TENSOR_PRIME = 1048573
TENSOR_RETRY_PRIME = 1048571

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


def check_prime(p: int) -> int:
    """p, once certified prime; a UsageError otherwise."""
    if p < 2:
        raise UsageError(f"modulus must be a prime >= 2, got {p}")
    if p >= _MR_LIMIT:
        raise UsageError(f"modulus {p} is too large to certify as prime")
    if not _is_prime(p):
        raise UsageError(f"modulus {p} is not prime")
    return p


def field_name(p: int) -> str:
    """'QQ' for characteristic 0, else 'GF(p)'."""
    return f"GF({p})" if p else "QQ"


def parse_field(text: str) -> int:
    """The characteristic of a field spec: 'rational' (0) or 'prime:65537'
    (or 'prime' for the default)."""
    if text in ("rational", "QQ", "qq"):
        return 0
    if text == "prime":
        return DEFAULT_PRIME
    if text.startswith("prime:"):
        try:
            p = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise UsageError(f"bad field spec {text!r}") from exc
        return check_prime(p)
    raise UsageError(f"bad field spec {text!r}; expected 'rational' or 'prime:p'")
