"""Monomial orders on dense exponent tuples.

Orders are exposed as key functions: key(e1) > key(e2) exactly when the
monomial e1 is larger.  All three kinds are total, multiplicative and have
1 as the minimal element, which the test suite checks on random triples.
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
        mdeg = [0] * self.nblocks
        for pos, exp in enumerate(e):
            if exp:
                mdeg[self.blocks[pos]] += exp
        return (tuple(mdeg), grevlex_key)


# -- exponent tuple helpers ---------------------------------------------------

def exp_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))

def exp_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True when monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))

def exp_div(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Quotient exponent a/b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))

def exp_lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))

def exp_degree(a: tuple[int, ...]) -> int:
    return sum(a)

def exp_mask(a: tuple[int, ...]) -> int:
    """Support mask of a monomial: bit v is set exactly when a[v] > 0.

    a divides b only if mask(a) & ~mask(b) == 0, so the mask rejects most
    non-divisors before the tuple test, whatever the exponents' size.
    """
    m = 0
    for v, x in enumerate(a):
        if x:
            m |= 1 << v
    return m

def mask_divides(a: tuple[int, ...], ma: int, b: tuple[int, ...], mb: int) -> bool:
    """exp_divides(a, b), given ma = exp_mask(a) and mb = exp_mask(b)."""
    return not ma & ~mb and exp_divides(a, b)
