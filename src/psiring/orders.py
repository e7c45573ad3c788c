"""Monomial orders on dense exponent tuples, and monomials packed into integers.

Orders are exposed as key functions: key(e1) > key(e2) exactly when the
monomial e1 is larger.  All three kinds are total, multiplicative and have
1 as the minimal element, which the test suite checks on random triples.
Packing turns a monomial into one integer code on which multiplication,
division, divisibility, lcm and degree are a few integer operations; the
Groebner engine and the slice row builder both use it.
"""

from __future__ import annotations

from dataclasses import dataclass

GREVLEX = "grevlex"
LEX = "lex"
BLOCK_GREVLEX = "block-then-grevlex"

KINDS = (GREVLEX, LEX, BLOCK_GREVLEX)


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order: kind and (for block orders) the grading.

    Variables are ranked by position, the first most significant.  `blocks`
    maps each variable position to its block, needed only for
    block-then-grevlex, where monomials compare first by multidegree
    (lexicographically by block) and then by grevlex.
    """

    kind: str = GREVLEX
    blocks: tuple[int, ...] | None = None
    nblocks: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind == BLOCK_GREVLEX and self.blocks is None:
            raise ValueError("block-then-grevlex needs the block map")

    def key(self, e: tuple[int, ...]):
        if self.kind == LEX:
            return e
        grevlex_key = (sum(e), tuple(-x for x in reversed(e)))
        if self.kind == GREVLEX:
            return grevlex_key
        return (multidegree(e, self.blocks, self.nblocks), grevlex_key)


# -- exponent tuples and packed codes ------------------------------------------

def multidegree(exp: tuple[int, ...], blocks: tuple[int, ...], nblocks: int) -> tuple[int, ...]:
    """Sum exponents block-wise: the Z^n degree of a monomial."""
    out = [0] * nblocks
    for pos, e in enumerate(exp):
        if e:
            out[blocks[pos]] += e
    return tuple(out)


class PackingOverflow(ArithmeticError):
    """A packed product has an exponent too large for its packing's fields."""


class Packing:
    """Monomials in nvars variables as packed integers.

    The code of an exponent tuple e is sum(e[i] << (width * i)).  Each
    exponent must be below 2^bits; bit `bits` of each field is its guard bit,
    and the bits above it leave room for the total degree, so that
    width = bits + nvars.bit_length().  On codes whose exponents are in range:

    - the product of two monomials is the sum of their codes, and the quotient
      by a divisor is the difference;
    - a sum overflowed some exponent exactly when it has a guard bit set
      (two fields below 2^bits add up below 2^width, so no field carries
      into its neighbour);
    - a divides b exactly when ((b | guard) - a) & guard == guard;
    - the lcm takes each field from the operand whose guard survived the
      subtraction, a masked select;
    - the total degree is code % (2^width - 1), exact because nvars fields
      below 2^bits sum to less than 2^width - 1.

    Codes compare field by field from the last variable down, so among
    monomials of one total degree descending code is ascending grevlex.
    """

    __slots__ = ("nvars", "bits", "width", "guard", "_modulus", "_field", "_shifts")

    def __init__(self, nvars: int, bits: int):
        self.nvars = nvars
        self.bits = bits
        self.width = bits + nvars.bit_length()
        self.guard = sum(1 << (self.width * i + bits) for i in range(nvars))
        self._modulus = (1 << self.width) - 1
        self._field = (1 << bits) - 1
        self._shifts = range(0, self.width * nvars, self.width)

    @classmethod
    def fitting(cls, nvars: int, top: int) -> "Packing":
        """A packing for exponents up to top, with at least 8 bits per field."""
        return cls(nvars, max(8, top.bit_length()))

    def pack(self, exp: tuple[int, ...], positions=None) -> int:
        """Code of the monomial with exponent exp[k] on variable positions[k]
        (on variable k when positions is None); refuses an exponent out of range."""
        if positions is None:
            positions = range(len(exp))
        w, code = self.width, 0
        for p, e in zip(positions, exp):
            if e >> self.bits:
                raise PackingOverflow(f"exponent {e} needs more than {self.bits} bits")
            code += e << (w * p)
        return code

    def unpack(self, code: int) -> tuple[int, ...]:
        f = self._field
        return tuple([code >> s & f for s in self._shifts])

    def divides(self, a: int, b: int) -> bool:
        g = self.guard
        return ((b | g) - a) & g == g

    def lcm(self, a: int, b: int) -> int:
        ge = ((a | self.guard) - b) & self.guard  # guard bits of the fields where a >= b
        take_a = ge - (ge >> self.bits)  # those fields' value bits
        return (a & take_a) | (b & ~take_a)

    def degree(self, code: int) -> int:
        return code % self._modulus
