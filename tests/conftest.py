"""Shared fixtures: field contexts, cached presentations, and the
acceptance-line terminal summary.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from psiring.fields import QQ, DEFAULT_PRIME, PrimeField
from psiring.groebner import PackedRing, normal_form
from psiring.orders import Packing
from psiring.poly import Poly
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


def cached_an(n, field=None):
    key = ("an", n, None if field is None else field.name)
    if key not in _CACHE:
        spec = build_an(n)
        _CACHE[key] = spec if field is None else spec.to_field(field)
    return _CACHE[key]


def cached_bnm(n, m, field=None):
    key = ("bnm", n, m, None if field is None else field.name)
    if key not in _CACHE:
        spec = build_bnm(n, m)
        _CACHE[key] = spec if field is None else spec.to_field(field)
    return _CACHE[key]


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


def reduce_poly(p, basis, order):
    """Normal form of the Poly p by the Polys in basis, through the packed engine."""
    top = max((x for q in [p, *basis] for e in q.terms for x in e), default=0)
    ring = PackedRing(p.field, order, Packing.fitting(p.nvars, top))
    reducers = [ring.reducer(ring.pack(g)) for g in basis]
    return ring.poly(normal_form(ring.pack(p), reducers, ring))


def _accumulate(terms, e, c, field):
    """terms[e] += c in the field, dropping e when the sum is zero."""
    v = field.from_int(terms.get(e, 0) + c)
    if field.is_zero(v):
        terms.pop(e, None)
    else:
        terms[e] = v


def poly_add(f, g, sign=1):
    """f + sign * g on exponent tuples: the reference sum that tests build
    expected polynomials with."""
    F = f.field
    terms = dict(f.terms)
    for e, c in g.terms.items():
        _accumulate(terms, e, c if sign > 0 else F.neg(c), F)
    return Poly(F, f.nvars, terms)


def poly_mul(f, g):
    """f * g on exponent tuples, the reference product: each term of f times
    each term of g, summed in that order."""
    F = f.field
    terms = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            _accumulate(terms, tuple(x + y for x, y in zip(e1, e2)), F.mul(c1, c2), F)
    return Poly(F, f.nvars, terms)


def poly_derivative(f, pos):
    """The partial derivative of f by variable pos, term by term on exponent
    tuples: the reference the integer Jacobian is checked against."""
    F = f.field
    terms = {}
    for e, c in f.terms.items():
        if e[pos]:
            _accumulate(terms, e[:pos] + (e[pos] - 1,) + e[pos + 1:],
                        F.mul(c, F.from_int(e[pos])), F)
    return Poly(F, f.nvars, terms)


def poly_evaluate(f, values):
    """f over QQ at a point of rational values, in Fraction arithmetic term by
    term: the reference evaluation."""
    total = Fraction(0)
    for e, c in f.terms.items():
        for x, k in zip(values, e):
            c *= Fraction(x) ** k
        total += c
    return total


@pytest.fixture(scope="session")
def gfp():
    return PrimeField(DEFAULT_PRIME)


@pytest.fixture(scope="session")
def qq():
    return QQ
