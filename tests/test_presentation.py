"""Structure of the quadratic presentations: variable counts, relation counts,
multigrading, pivot independence, and the spanning family of pair relations.
"""

from dataclasses import fields, replace
from fractions import Fraction
from math import comb

import pytest

from psiring.errors import UsageError
from psiring.fields import DEFAULT_PRIME
from psiring.geometry import (
    alpha_values, jacobian_rank_at, pole_table, sample_config, singular_minors, verify_vanishing,
)
from psiring.groebner import groebner_for
from psiring.orders import multidegree
from psiring.presentation import (
    CUSTOM,
    PivotScheme,
    PresentationSpec,
    build_an,
    build_bnm,
    presentation_to_dict,
    relation_degree_audit,
    relation_polys,
    tensor_relation_space,
    _an_pair,
)
from psiring.slices import slice_dimension
from psiring.symbols import Alpha, Phi
from conftest import cached_an, cached_bnm, in_field, poly_add, poly_mul, reduce_poly

GF = 32003


@pytest.mark.parametrize("n", range(3, 8))
def test_an_counts(n):
    spec = cached_an(n)
    assert spec.nvars == n * (n - 2)
    assert len(spec.relations) == comb(n, 2) * (n - 3)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 1), (3, 2), (4, 1), (2, 3), (4, 2)])
def test_bnm_counts(n, m):
    spec = cached_bnm(n, m)
    assert spec.nvars == n * (n + m - 2)
    assert len(spec.relations) == comb(n, 2) * (n + m - 3)


def test_b41_has_twelve_relations():
    # 6 pairs, n + m - 3 = 2 channels each
    assert len(cached_bnm(4, 1).relations) == 12


def test_b_n0_matches_an():
    a = build_an(4)
    b = build_bnm(4, 0)
    assert b.nvars == a.nvars
    assert len(b.relations) == len(a.relations)


def test_small_inputs_rejected():
    with pytest.raises(UsageError):
        build_an(2)
    with pytest.raises(UsageError):
        build_bnm(1, 5)
    with pytest.raises(UsageError):
        build_bnm(2, 0)  # needs n + m >= 3


def test_relations_are_multigraded_quadrics():
    for spec in (cached_an(5), cached_bnm(3, 2)):
        audit = relation_degree_audit(spec)
        assert sum(audit.values()) == len(spec.relations)
        for (i, j), cnt in audit.items():
            assert i < j
            assert cnt == spec.n + spec.m - 3
        for rel in relation_polys(spec):
            assert {sum(e) for e in rel} == {2}
            (md,) = {multidegree(e, spec.blocks, spec.nblocks) for e in rel}
            assert sum(md) == 2


def test_variables_group_into_point_blocks():
    spec = cached_an(5)
    sizes = [len(ps) for ps in spec.block_positions()]
    assert sizes == [5 - 2] * 5
    for v, b in zip(spec.variables, spec.blocks):
        assert v.i - 1 == b  # block = owning marked point


def test_pivot_killed_variables_absent():
    spec = cached_an(4)  # cyclic pivot: alpha[i, i+1] dropped
    present = {(v.i, v.j) for v in spec.variables}
    for i in range(1, 5):
        assert (i, i % 4 + 1) not in present
    assert len(present) == 8


def test_custom_pivot_changes_variables_not_counts():
    base = build_an(5)
    other = build_an(5, PivotScheme(CUSTOM, assignment=(3, 4, 5, 1, 2)))
    assert other.nvars == base.nvars
    assert len(other.relations) == len(base.relations)
    assert {v.text() for v in other.variables} != {v.text() for v in base.variables}


def test_bad_custom_pivot_rejected():
    with pytest.raises(UsageError):
        PivotScheme(CUSTOM, assignment=(1, 1, 2)).validate(3)
    with pytest.raises(UsageError):
        build_an(4, PivotScheme(CUSTOM, assignment=(2, 3, 4)))  # wrong length


def test_symbols_render():
    assert Alpha(2, 5).text() == "a[2,5]"
    assert Phi(1, 3).text() == "phi[1,3]"


def var(spec, v):
    """The variable v of the spec as a polynomial, or zero when v is not one
    of them (a pivot-normalized generator)."""
    pos = {var: p for p, var in enumerate(spec.variables)}
    if v not in pos:
        return {}
    e = [0] * spec.nvars
    e[pos[v]] = 1
    return {tuple(e): 1}


def formula(spec, i, j, k, l):
    """The pair (i, j) relation comparing points k and l, as in the module
    docstring of presentation, over the spec's field."""
    p = spec.field

    def a(i, j):
        return var(spec, Alpha(i, j))

    def d(x, y):
        return poly_add(x, y, p, -1)

    lhs = poly_mul(d(a(i, k), a(i, j)), d(a(j, k), a(j, i)), p)
    return d(lhs, poly_mul(d(a(i, l), a(i, j)), d(a(j, l), a(j, i)), p))


@pytest.mark.parametrize("n", [4, 5])
def test_general_pair_relations_lie_in_the_ideal(n):
    spec = cached_an(n, GF)
    gb = groebner_for(spec)
    pts = range(1, n + 1)
    for i in pts:
        for j in pts:
            for k in pts:
                for l in pts:
                    if len({i, j, k, l}) == 4 and i < j and k < l:
                        r = formula(spec, i, j, k, l)
                        assert not reduce_poly(r, gb.basis, gb.field, gb.order), (i, j, k, l)


PIVOTS = [(4, None), (4, (2, 1, 4, 3)), (5, None), (5, (3, 1, 2, 5, 4))]


@pytest.mark.parametrize("n,assignment", PIVOTS)
def test_pair_relation_builders_agree(n, assignment):
    """build_an gives one relation per (i, j, k), equal to the formula in the
    module docstring, and tensor_relation_space lifts it, after the
    commutators, to the pair form's tensor."""
    pivot = PivotScheme(CUSTOM, assignment=assignment) if assignment else None
    spec = build_an(n, pivot)
    v = spec.nvars
    rows = tensor_relation_space(spec)
    commutators = comb(v, 2)
    assert rows[:commutators] == [{a * v + b: 1, b * v + a: -1}
                                  for a in range(v) for b in range(a + 1, v)]
    var_pos = {x: k for k, x in enumerate(spec.variables)}
    triples = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rest = [k for k in range(1, n + 1) if k not in (i, j)]
            triples += [(i, j, k, rest[0]) for k in rest[1:]]
    assert len(triples) == len(spec.relations) == len(rows) - commutators
    assert [(i, j) for i, j, _, _ in triples] == list(spec.relation_pairs)
    for (i, j, k, l0), rel, row in zip(triples, relation_polys(spec), rows[commutators:]):
        assert row == {pa * v + pb: c
                       for (pa, pb), c in _an_pair(var_pos, i, j, k, l0).items()}, (i, j, k)
        terms: dict = {}
        for idx, c in row.items():
            e = [0] * v
            for p in divmod(idx, v):
                e[p] += 1
            terms[tuple(e)] = terms.get(tuple(e), 0) + c
        assert {e: c for e, c in terms.items() if c} == rel, (i, j, k)
        assert formula(spec, i, j, k, l0) == rel, (i, j, k)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 1), (3, 2), (4, 2)])
def test_bnm_relations_follow_the_docstring_formula(n, m):
    """Every B_{n,m} relation, in storage order, is the module-docstring
    formula built by polynomial arithmetic: k-channel relations, then extra points."""
    spec = cached_bnm(n, m)

    def a(i, j):
        return var(spec, Alpha(i, j))

    def phi(r, i):
        return var(spec, Phi(r, i))

    def pair_relation(x, y, aij, aji):
        """x*y - aij*y - aji*x"""
        return poly_add(poly_add(poly_mul(x, y, 0), poly_mul(aij, y, 0), 0, -1),
                        poly_mul(aji, x, 0), 0, -1)

    want, pairs = [], []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(1, n + 1):
                if k not in (i, j):
                    want.append(pair_relation(a(i, k), a(j, k), a(i, j), a(j, i)))
                    pairs.append((i, j))
            for r in range(1, m):
                want.append(pair_relation(phi(r, i), phi(r, j), a(i, j), a(j, i)))
                pairs.append((i, j))
    assert relation_polys(spec) == want
    assert list(spec.relation_pairs) == pairs


def test_tensor_relation_space_dimensions():
    # independent-quadric count in the full tensor square, by family size
    for n, want in [(4, 34), (5, 125)]:
        assert len(tensor_relation_space(build_an(n))) == want


# a characteristic that is not a certified prime, and the refusal it meets
NOT_PRIME = {4: "modulus 4 is not prime", 1: "modulus must be a prime >= 2, got 1",
             -3: "modulus must be a prime >= 2, got -3", 561: "modulus 561 is not prime"}


@pytest.mark.parametrize("p", NOT_PRIME)
def test_a_characteristic_that_is_not_prime_is_refused(p):
    # construction certifies the field as it certifies the relations, through
    # to_field, replace() and the constructor, so no layer is handed Z/4
    spec = cached_an(4)
    given = {f.name: getattr(spec, f.name) for f in fields(spec) if f.init}
    for build in (lambda: spec.to_field(p), lambda: replace(spec, field=p),
                  lambda: PresentationSpec(**{**given, "field": p})):
        with pytest.raises(UsageError, match=f"^{NOT_PRIME[p]}$"):
            build()


@pytest.mark.parametrize("p", [2, 3, DEFAULT_PRIME])
def test_to_field_round_trip(p):
    spec = cached_an(5)
    assert spec.to_field(0) is spec
    gf = spec.to_field(p)
    assert gf.field == p and gf.relations is spec.relations
    assert gf.to_field(0) == spec and gf.to_field(0).relations is spec.relations
    # the relations and their polynomials are integers over every field, so
    # their signs survive GF(2); read into GF(p), each coefficient is c mod p
    assert any(c == -1 for terms in gf.relations for _, _, c in terms)
    assert relation_polys(gf) == relation_polys(spec)
    for terms, poly in zip(spec.relations, relation_polys(gf), strict=True):
        want = {}
        for a, b, c in terms:
            e = [0] * spec.nvars
            e[a] += 1
            e[b] += 1
            if c % p:
                want[tuple(e)] = c % p
        assert in_field(poly, p) == want


def _point(spec):
    return alpha_values(spec, pole_table(sample_config(spec.n, spec.m, 5)))


# relation 0 of a presentation, as integer terms (a, b, c), rewritten into a
# form that is not an integer quadric
NOT_INTEGER_QUADRICS = {
    "halved": lambda spec, rel: tuple((a, b, Fraction(c, 2)) for a, b, c in rel),
    "inhomogeneous": lambda spec, rel: rel + ((1, 1),),  # a linear term c * x_a
    "poly": lambda spec, rel: relation_polys(spec)[0],
    "swapped": lambda spec, rel: tuple((b, a, c) for a, b, c in rel),  # every a < b
    "outside": lambda spec, rel: rel + ((0, spec.nvars, 1),),
    "repeated": lambda spec, rel: rel + rel[:1],
    "zero": lambda spec, rel: rel + ((0, 0, 0),),
    "empty": lambda spec, rel: (),
}

# every reader of the relations' integer form
QUADRIC_READERS = {
    "slice_dimension": lambda spec: slice_dimension(spec, (1, 1, 0, 0)),
    "tensor_relation_space": tensor_relation_space,
    "verify_vanishing": lambda spec: verify_vanishing(spec, _point(spec)),
    "jacobian_rank_at": lambda spec: jacobian_rank_at(spec, _point(spec)),
    "singular_minors": lambda spec: singular_minors(spec, 1),
    "to_field": lambda spec: spec.to_field(GF),
}


@pytest.mark.parametrize("reader", QUADRIC_READERS)
@pytest.mark.parametrize("form", NOT_INTEGER_QUADRICS)
def test_a_relation_that_is_not_an_integer_quadric_is_refused(form, reader):
    """Construction refuses the relation, through the constructor and through
    replace(), so no reader is ever handed one; the refusal leaves the spec
    it started from, and what each reader makes of it, unchanged."""
    spec, read = cached_an(4), QUADRIC_READERS[reader]
    want = read(spec)  # fills the original spec's cache
    bad = (NOT_INTEGER_QUADRICS[form](spec, spec.relations[0]),) + spec.relations[1:]
    given = {f.name: getattr(spec, f.name) for f in fields(spec) if f.init}
    for build in (lambda: replace(spec, relations=bad),
                  lambda: PresentationSpec(**{**given, "relations": bad})):
        with pytest.raises(UsageError, match="^relations must be quadratic forms"
                                             " with integer coefficients$"):
            build()
    assert read(spec) == want


def test_presentation_to_dict_round_trip_texture():
    d = presentation_to_dict(cached_bnm(2, 2))
    assert d["kind"] == "bnm"
    assert len(d["variables"]) == 4
    assert d["relation_count"] == 1
    assert len(d["relations"]) == 1
    assert all(isinstance(r["text"], str) for r in d["relations"])


def test_conifold_single_relation():
    spec = cached_bnm(2, 2)
    (rel,) = spec.relations
    names = dict(zip(spec.var_names(), range(spec.nvars)))
    assert set(names) == {"a[1,2]", "a[2,1]", "phi[1,1]", "phi[1,2]"}
    # phi11*phi12 = a12*phi12 + a21*phi11
    terms = {(a, b): c for a, b, c in rel}
    assert terms.get(tuple(sorted((names["phi[1,1]"], names["phi[1,2]"])))) in (1, -1)
