"""Sparse multivariate polynomials as plain dicts, and their text.

A polynomial is a dict {exponent tuple: nonzero coefficient}, dense over a
fixed variable list whose meaning (names, blocks) lives in the owning
presentation.  Coefficients are plain numbers: ints for the relations
(presentation.relation_polys) and the Jacobian minors whatever the field;
in a Groebner basis, residues in [0, p) over GF(p), and over QQ ints with a
Fraction only where a value is not integral.  Sums, products and reductions
run on packed codes (groebner.PackedRing); this module orders and renders
terms.
"""

from __future__ import annotations

from .orders import MonomialOrder


def sorted_terms(terms: dict, order: MonomialOrder) -> list[tuple[tuple[int, ...], object]]:
    """Terms as (exp, coeff) pairs, descending in the order: canonical form."""
    return [(e, terms[e]) for e in sorted(terms, key=order.key, reverse=True)]


def monomial_text(exp: tuple[int, ...], names: list[str]) -> str:
    """Render x^exp as a '*'-joined product of names with '^k' powers; '1' if constant."""
    factors = []
    for pos, k in enumerate(exp):
        if k == 1:
            factors.append(names[pos])
        elif k > 1:
            factors.append(f"{names[pos]}^{k}")
    return "*".join(factors) if factors else "1"


def poly_text(terms: dict, names: list[str], order: MonomialOrder) -> str:
    """Render terms descending in the order, each coefficient as str(c)."""
    if not terms:
        return "0"
    parts = []
    for e, c in sorted_terms(terms, order):
        mono = monomial_text(e, names)
        cs = str(c)
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
