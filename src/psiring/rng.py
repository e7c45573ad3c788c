"""Deterministic pseudo-random numbers via SplitMix64.

Every randomized routine in the package draws from this generator so that a
seed pins down the entire run, independent of Python version or platform.
The update and output functions are the standard SplitMix64 constants.
"""

from __future__ import annotations

from .errors import UsageError

MASK64 = (1 << 64) - 1


class SplitMix64:
    """Tiny deterministic generator; not for cryptography, only for reproducible sampling."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], rejection-sampled so the seed fixes the stream.

        One 64-bit draw covers the range, so spans above 2^64 are refused.
        """
        span = hi - lo + 1
        if not 1 <= span <= 1 << 64:
            raise UsageError(f"randint range [{lo}, {hi}] must hold 1 to 2^64 integers")
        # rejection bound: largest multiple of span below 2^64
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + (u % span)

    def nonzero_int(self, bound: int) -> int:
        """Uniform nonzero integer in [-bound, bound]."""
        v = self.randint(1, 2 * bound)
        return v - bound - 1 if v <= bound else v - bound

    def distinct_ints(self, count: int, lo: int, hi: int) -> list[int]:
        """Draw `count` distinct integers from [lo, hi]; refuses a range too small."""
        if count > hi - lo + 1:
            raise UsageError(f"cannot draw {count} distinct integers from [{lo}, {hi}]")
        taken: set[int] = set()
        out: list[int] = []
        while len(out) < count:
            v = self.randint(lo, hi)
            if v not in taken:
                taken.add(v)
                out.append(v)
        return out
