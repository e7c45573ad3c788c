"""Shared helpers: cached presentations, the reference polynomial arithmetic
over a field given by its characteristic, the reference Gauss-Jordan
elimination mod p with sparse rows reduced mod p and made dense for it, and
the acceptance-line terminal summary.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np

from psiring.groebner import PackedRing, normal_form
from psiring.orders import Packing
from psiring.presentation import build_an, build_bnm

_CACHE = {}

ACCEPTANCE_LINES = []


def record_acceptance(line):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def cached_an(n, field=0):
    key = ("an", n, field)
    if key not in _CACHE:
        _CACHE[key] = build_an(n).to_field(field)
    return _CACHE[key]


def cached_bnm(n, m, field=0):
    key = ("bnm", n, m, field)
    if key not in _CACHE:
        _CACHE[key] = build_bnm(n, m).to_field(field)
    return _CACHE[key]


def gauss_jordan(m, p):
    """The reference: Gauss-Jordan elimination mod p of the 2-d array m, dense,
    over Python ints, clearing each pivot column above and below at once.
    Returns the reduced echelon form, as lists of ints in m's shape, and the
    pivot columns."""
    nrows, ncols = m.shape
    R = [[int(x) % p for x in row] for row in m]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, nrows) if R[i][c]), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        inv = pow(R[r][c], -1, p)
        R[r] = [x * inv % p for x in R[r]]
        for i in range(nrows):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [(x - f * y) % p for x, y in zip(R[i], R[r])]
        pivots.append(c)
    return R, pivots


def rows_mod_p(rows, p):
    """Sparse integer rows {col: int} as rows {col: residue} mod p, the zero
    residues left out: the input of exactla's mod-p row entry points."""
    return [{c: r for c, v in row.items() if (r := v % p)} for row in rows]


def dense_mod_p(rows, ncols, p):
    """Sparse integer rows {col: int} as a dense int64 array of ncols columns,
    reduced mod p: the input of gauss_jordan and of the dense adapters."""
    out = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        for c, v in row.items():
            out[i, c] = v % p
    return out


def with_first_relation_scaled(spec, factor):
    """spec with relation 0 multiplied by the integer factor: the same ideal over Q."""
    scaled = tuple((a, b, c * factor) for a, b, c in spec.relations[0])
    return replace(spec, relations=(scaled,) + spec.relations[1:])


def with_last_relation_bent(spec):
    """spec with 3 * x * y added to its last relation, x and y the first
    variables of the blocks of its pair: the right multidegree, as many
    relations per pair as before, but no longer cyclically symmetric."""
    rel, (i, j) = spec.relations[-1], spec.relation_pairs[-1]
    positions = spec.block_positions()
    x, y = sorted((positions[i - 1][0], positions[j - 1][0]))
    terms = {(a, b): c for a, b, c in rel}
    terms[x, y] = terms.get((x, y), 0) + 3
    bent = tuple((a, b, c) for (a, b), c in terms.items())
    return replace(spec, relations=spec.relations[:-1] + (bent,))


def in_field(terms, p):
    """The polynomial {exponent: int} read into the field of characteristic
    p: coefficients mod p with the zeros dropped, or as they are over QQ."""
    return {e: v for e, c in terms.items() if (v := c % p if p else c)}


def reduce_poly(f, basis, field, order):
    """Normal form of the polynomial f by the polynomials in basis over the
    field, through the packed engine."""
    top = max((x for q in [f, *basis] for e in q for x in e), default=0)
    nvars = len(next(iter(f), ()))
    ring = PackedRing(field, order, Packing.fitting(nvars, top))
    reducers = [ring.reducer(ring.pack(g)) for g in basis]
    return ring.poly(normal_form(ring.pack(f), reducers, ring))


def _accumulate(terms, e, c, p):
    """terms[e] += c, mod p when p is nonzero, dropping e when the sum is zero."""
    v = terms.get(e, 0) + c
    if p:
        v %= p
    if v:
        terms[e] = v
    else:
        terms.pop(e, None)


def poly_add(f, g, p, sign=1):
    """f + sign * g on exponent tuples over the field of characteristic p:
    the reference sum that tests build expected polynomials with."""
    terms = dict(f)
    for e, c in g.items():
        _accumulate(terms, e, sign * c, p)
    return terms


def poly_mul(f, g, p):
    """f * g on exponent tuples over the field of characteristic p, the
    reference product: each term of f times each term of g, summed in that
    order."""
    terms = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            _accumulate(terms, tuple(x + y for x, y in zip(e1, e2)), c1 * c2, p)
    return terms


def poly_derivative(f, pos, p):
    """The partial derivative of f by variable pos over the field of
    characteristic p, term by term on exponent tuples: the reference the
    integer Jacobian is checked against."""
    terms = {}
    for e, c in f.items():
        if e[pos]:
            _accumulate(terms, e[:pos] + (e[pos] - 1,) + e[pos + 1:], c * e[pos], p)
    return terms


def poly_evaluate(f, values):
    """f over QQ at a point of rational values, in Fraction arithmetic term by
    term: the reference evaluation."""
    total = Fraction(0)
    for e, c in f.items():
        for x, k in zip(values, e):
            c *= Fraction(x) ** k
        total += c
    return total
