"""Sparse multivariate polynomials over an exact field context.

A Poly is a term container, {exponent tuple: nonzero coefficient payload},
dense over a fixed variable list whose meaning (names, blocks) lives in the
owning presentation; the polynomial itself only knows nvars and the field.
It carries terms between the layers and renders them.  Sums and products run
on packed codes (groebner.PackedRing).  A presentation stores its relations
as integer quadratic forms, and presentation.relation_polys is where they
become Polys.  A Poly's terms are never changed after it is built.
"""

from __future__ import annotations

from .fields import Field
from .orders import MonomialOrder


class Poly:
    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int, terms: dict | None = None):
        self.field = field
        self.nvars = nvars
        self.terms = terms if terms is not None else {}

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def const(field: Field, nvars: int, c) -> "Poly":
        terms = {} if field.is_zero(c) else {(0,) * nvars: c}
        return Poly(field, nvars, terms)

    @staticmethod
    def from_int_terms(field: Field, nvars: int, int_terms: dict) -> "Poly":
        """Build from integer coefficients, mapping them into the field."""
        terms = {}
        for exp, c in int_terms.items():
            v = field.from_int(c)
            if not field.is_zero(v):
                terms[exp] = v
        return Poly(field, nvars, terms)

    # -- queries --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"Poly({len(self.terms)} terms over {self.field!r})"

    def sorted_terms(self, order: MonomialOrder):
        """Terms as (exp, coeff) pairs, descending in the order: canonical form."""
        return [(e, self.terms[e]) for e in sorted(self.terms, key=order.key, reverse=True)]


def monomial_text(exp: tuple[int, ...], names: list[str]) -> str:
    """Render x^exp as a '*'-joined product of names with '^k' powers; '1' if constant."""
    factors = []
    for pos, k in enumerate(exp):
        if k == 1:
            factors.append(names[pos])
        elif k > 1:
            factors.append(f"{names[pos]}^{k}")
    return "*".join(factors) if factors else "1"


def poly_text(p: Poly, names: list[str], order: MonomialOrder) -> str:
    """Render terms descending in the order, with exact coefficient strings."""
    if p.is_zero():
        return "0"
    F = p.field
    parts = []
    for e, c in p.sorted_terms(order):
        mono = monomial_text(e, names)
        cs = F.to_str(c)
        if cs == "1" and mono != "1":
            term = mono
        elif cs == "-1" and mono != "1":
            term = "-" + mono
        else:
            term = f"{cs}*{mono}" if mono != "1" else cs
        parts.append(term)
    out = parts[0]
    for t in parts[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out
