"""Quadratic presentations of the multigraded section algebras A_n and B_{n,m}.

A_n is generated, for each marked point i, by the values a[i,j] of a section
with first-order pole at point i (normalized to vanish at a pivot point p(i)),
subject to one quadratic relation per pair (i, j) and per choice of a third
point k away from a reference point l0:

    (a[i,k] - a[i,j]) * (a[j,k] - a[j,i])  =  (a[i,l0] - a[i,j]) * (a[j,l0] - a[j,i])

B_{n,m} adjoins m extra evaluation points; normalizing every section at the
last extra point leaves all n(n-1) pairwise values a[i,j] plus the extra-point
values phi[r,i] (r < m), with relations

    a[i,k]*a[j,k]       = a[i,j]*a[j,k] + a[j,i]*a[i,k]         (k <= n, k not in {i,j})
    phi[r,i]*phi[r,j]   = a[i,j]*phi[r,j] + a[j,i]*phi[r,i]     (1 <= r <= m-1)

B_{n,0} is A_n by definition.  Every relation is multihomogeneous of degree
e_i + e_j, which relation_degree_audit enforces.  A spec stores each relation
once, as its integer terms, whatever its field.

Both come from one pair form in V (x) V, with a[i,p] the value of section i at
the point p (phi[r,i] at extra point r; a pivot-normalized value is absent):

    F(i,j,p) = a[i,p] (x) a[j,p] - a[i,p] (x) a[j,i] - a[i,j] (x) a[j,p]

The A_n relation is F(i,j,k) - F(i,j,l0), its a[i,j]*a[j,i] terms cancelling;
the B_{n,m} relations are F(i,j,k) for each such k, then for each extra point.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import comb

from .errors import UsageError
from .fields import check_prime, field_name
from .orders import GREVLEX, MonomialOrder
from .poly import monomial_text, poly_text, sorted_terms
from .symbols import Alpha, Phi, VarIndex

CYCLIC = "cyclic"
COMMON_EXTRA = "common-extra-point"
CUSTOM = "custom"


@dataclass(frozen=True)
class PivotScheme:
    """Choice of normalization point p(i) per block.

    cyclic:             p(i) = i+1 mod n (the variable a[i, p(i)] is dropped)
    common-extra-point: every section is normalized at the last extra point;
                        no a[i,j] with j <= n is dropped (B_{n,m} only)
    custom:             explicit assignment, p(i) != i
    """

    kind: str = CYCLIC
    assignment: tuple[int, ...] | None = None

    def pivot_of(self, i: int, n: int) -> int | None:
        if self.kind == CYCLIC:
            return i % n + 1
        if self.kind == CUSTOM:
            return self.assignment[i - 1]
        return None  # common extra point: not one of the n marked points

    def validate(self, n: int) -> None:
        if self.kind not in (CYCLIC, COMMON_EXTRA, CUSTOM):
            raise UsageError(f"unknown pivot kind {self.kind!r}")
        if self.kind == CUSTOM:
            if self.assignment is None or len(self.assignment) != n:
                raise UsageError("custom pivot needs one assignment per block")
            for i, p in enumerate(self.assignment, start=1):
                if not (1 <= p <= n) or p == i:
                    raise UsageError(f"bad pivot p({i}) = {p}")


@dataclass(frozen=True)
class PresentationSpec:
    """A finished presentation: ordered variables, grading, quadratic relations."""

    kind: str  # "an" | "bnm"
    n: int
    m: int
    pivot: PivotScheme
    field: int  # the characteristic: 0 for QQ, else a prime p for GF(p)
    variables: tuple[VarIndex, ...]
    blocks: tuple[int, ...]            # 0-based block per variable position
    # each relation as its integer terms (a, b, c), meaning c * x_a * x_b with
    # a <= b, whatever the field; a prime field reads c mod p
    relations: tuple[tuple[tuple[int, int, int], ...], ...]
    relation_pairs: tuple[tuple[int, int], ...]  # the (i, j) of each relation, 1-based
    # data derived from the fields above, cached by the layers that use it
    # (slices' row plan, block symmetries and relation ranks); no part of
    # equality, and a replace() starts it empty
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        """Refuse a nonzero characteristic that is not a certified prime, and
        a relation that is not an integer quadratic form: every term a triple
        of ints with 0 <= a <= b < nvars and c nonzero, no (a, b) twice, and
        at least one term.  Runs on replace() and to_field() too."""
        if self.field:
            check_prime(self.field)
        if not all(_is_quadric(terms, len(self.variables)) for terms in self.relations):
            raise UsageError("relations must be quadratic forms with integer coefficients")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def nblocks(self) -> int:
        return self.n

    def name(self) -> str:
        return f"A_{self.n}" if self.kind == "an" else f"B_{{{self.n},{self.m}}}"

    def block_positions(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for pos, b in enumerate(self.blocks):
            out[b].append(pos)
        return out

    def var_names(self) -> list[str]:
        return [v.text() for v in self.variables]

    def default_order(self) -> MonomialOrder:
        return MonomialOrder(GREVLEX)

    def to_field(self, field: int) -> "PresentationSpec":
        """Same presentation, the same integer relations, over the field of
        characteristic field (0 for QQ)."""
        return self if field == self.field else replace(self, field=field)


def _is_quadric(terms, nvars: int) -> bool:
    try:
        keys = {(a, b) for a, b, c in terms
                if type(a) is type(b) is type(c) is int and 0 <= a <= b < nvars and c}
        return 0 < len(keys) == len(terms)
    except (TypeError, ValueError):  # not a sequence of triples
        return False


def _pair_form(var_pos: dict, i: int, j: int, vi: VarIndex, vj: VarIndex) -> dict:
    """F(i,j,p) = vi (x) vj - vi (x) a[j,i] - a[i,j] (x) vj in V (x) V, with vi and
    vj the values of sections i and j at the point p, as {(pos_a, pos_b): coeff}.
    Variables missing from var_pos (pivot-normalized to zero) drop out; no two
    terms share a key."""
    p_i, p_j = var_pos.get(vi), var_pos.get(vj)
    pij, pji = var_pos.get(Alpha(i, j)), var_pos.get(Alpha(j, i))
    out = {}
    for a, b, c in ((p_i, p_j, 1), (p_i, pji, -1), (pij, p_j, -1)):
        if a is not None and b is not None:
            out[(a, b)] = c
    return out


def _an_pair(var_pos: dict, i: int, j: int, k: int, l: int) -> dict:
    """The A_n relation of pair (i,j) comparing points k and l: F(k) - F(l).
    Every term of F(p) carries a value at p, so the two share no key."""
    out = _pair_form(var_pos, i, j, Alpha(i, k), Alpha(j, k))
    for ab, c in _pair_form(var_pos, i, j, Alpha(i, l), Alpha(j, l)).items():
        out[ab] = -c
    return out


def _pair_triples(n: int):
    """(i, j, k, l0) of each stored pair relation of A_n, in storage order:
    i < j, l0 the smallest point outside {i, j} and k every later one."""
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rest = [k for k in range(1, n + 1) if k not in (i, j)]
            for k in rest[1:]:
                yield i, j, k, rest[0]


def presentation_size(n: int, m: int = 0) -> tuple[int, int]:
    """(variables, relations) of B_{n,m} in closed form, A_n at m = 0:
    n(n+m-2) variables and C(n,2)*(n+m-3) relations.  Refuses the (n, m)
    that build_an and build_bnm refuse, with their message."""
    if m == 0:
        if n < 3:
            raise UsageError(f"B_(n,0) = A_n needs n >= 3, got n={n}")
    elif n < 2 or m < 1:
        raise UsageError(f"B_(n,m) needs n >= 2 and m >= 0, got ({n},{m})")
    elif n + m < 3:
        raise UsageError(f"B_(n,m) needs n + m >= 3, got ({n},{m})")
    return n * (n + m - 2), comb(n, 2) * (n + m - 3)


def build_an(n: int, pivot: PivotScheme | None = None) -> PresentationSpec:
    """Presentation of A_n: n(n-2) variables, C(n,2)*(n-3) quadratic relations."""
    presentation_size(n)
    pivot = pivot or PivotScheme(CYCLIC)
    pivot.validate(n)
    if pivot.kind == COMMON_EXTRA:
        raise UsageError("common-extra-point pivot needs extra points; use B_{n,m}")

    variables = [Alpha(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                 if j != i and j != pivot.pivot_of(i, n)]
    var_pos = {v: k for k, v in enumerate(variables)}
    tensors = [((i, j), _an_pair(var_pos, i, j, k, l0)) for i, j, k, l0 in _pair_triples(n)]
    return _presentation("an", n, 0, pivot, variables, tensors)


def build_bnm(n: int, m: int) -> PresentationSpec:
    """Presentation of B_{n,m}: n(n-1) + n(m-1) variables, C(n,2)*(n+m-3) relations."""
    if m == 0:
        return build_an(n)
    presentation_size(n, m)

    variables = [Alpha(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if j != i]
    variables += [Phi(r, i) for i in range(1, n + 1) for r in range(1, m)]
    var_pos = {v: k for k, v in enumerate(variables)}
    tensors = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            points = [(Alpha(i, k), Alpha(j, k)) for k in range(1, n + 1) if k not in (i, j)]
            points += [(Phi(r, i), Phi(r, j)) for r in range(1, m)]
            tensors += [((i, j), _pair_form(var_pos, i, j, vi, vj)) for vi, vj in points]
    return _presentation("bnm", n, m, PivotScheme(COMMON_EXTRA), variables, tensors)


def _presentation(kind: str, n: int, m: int, pivot: PivotScheme,
                  variables: list[VarIndex], tensors: list) -> PresentationSpec:
    """The spec whose relations are the commutative images of the ((i, j), tensor)
    pairs, in order, each tensor term c * e_a (x) e_b read as c * x_a * x_b;
    relation_degree_audit rejects a misgraded one.  The two factors of a
    tensor term lie in different blocks, so no two terms meet."""
    spec = PresentationSpec(
        kind=kind, n=n, m=m, pivot=pivot, field=0,
        variables=tuple(variables), blocks=tuple(v.block - 1 for v in variables),
        relations=tuple(tuple((min(a, b), max(a, b), c) for (a, b), c in t.items())
                        for _, t in tensors),
        relation_pairs=tuple(ij for ij, _ in tensors),
    )
    relation_degree_audit(spec)
    return spec


def quadric_degree(spec: PresentationSpec, terms) -> tuple[int, ...] | None:
    """The common multidegree of a quadric's terms (a, b, c), the block of a
    plus the block of b; None when they differ or there are none."""
    degs = set()
    for a, b, _ in terms:
        d = [0] * spec.nblocks
        d[spec.blocks[a]] += 1
        d[spec.blocks[b]] += 1
        degs.add(tuple(d))
    return degs.pop() if len(degs) == 1 else None


def relation_degree_audit(spec: PresentationSpec) -> dict[tuple[int, int], int]:
    """Count relations per pair; raise if any relation is not of degree e_i + e_j."""
    counts: dict[tuple[int, int], int] = {}
    for terms, (i, j) in zip(spec.relations, spec.relation_pairs):
        mdeg = quadric_degree(spec, terms)
        want = tuple(1 if b + 1 in (i, j) else 0 for b in range(spec.n))
        if mdeg != want:
            raise AssertionError(
                f"relation for pair ({i},{j}) has multidegree {mdeg}, expected {want}"
            )
        counts[(i, j)] = counts.get((i, j), 0) + 1
    return counts


# -- the tensor-square relation space (input to the Koszul computations) ------

def tensor_relation_space(spec: PresentationSpec) -> list[dict]:
    """Rows spanning R inside V (x) V, sparse over the flat index a * nvars + b:
    the commutators e_a (x) e_b - e_b (x) e_a (a < b), then each relation of
    spec lifted term by term, c * x_a * x_b as c * e_a (x) e_b with a <= b.
    Any two lifts of a relation differ by commutators.  For A_n this is the
    pair form's tensor, and dim R = C(v,2) + C(n,2)(n-3)."""
    v = spec.nvars
    rows = [{a * v + b: 1, b * v + a: -1} for a in range(v) for b in range(a + 1, v)]
    rows += [{a * v + b: c for a, b, c in terms} for terms in spec.relations]
    return rows


# -- polynomials and serialization ---------------------------------------------

def relation_polys(spec: PresentationSpec) -> list[dict]:
    """Each relation as an integer polynomial {exponent tuple: c}, its terms
    in the relation's order; like spec.relations, the same over every field."""
    out = []
    for terms in spec.relations:
        poly = {}
        for a, b, c in terms:
            e = [0] * spec.nvars
            e[a] += 1
            e[b] += 1
            poly[tuple(e)] = c
        out.append(poly)
    return out


def presentation_to_dict(spec: PresentationSpec) -> dict:
    """JSON-ready dump: variables, grading, relations as sorted term lists,
    each coefficient read in the spec's field (c mod p over GF(p))."""
    order = spec.default_order()
    names = spec.var_names()
    p = spec.field
    rels = []
    for rel, (i, j) in zip(relation_polys(spec), spec.relation_pairs):
        if p:
            rel = {e: v for e, c in rel.items() if (v := c % p)}
        terms = [{"coeff": str(c), "monomial": monomial_text(e, names)}
                 for e, c in sorted_terms(rel, order)]
        rels.append({"pair": [i, j], "terms": terms, "text": poly_text(rel, names, order)})
    return {
        "algebra": spec.name(),
        "kind": spec.kind,
        "n": spec.n,
        "m": spec.m,
        "pivot": spec.pivot.kind,
        "field": field_name(spec.field),
        "variables": names,
        "blocks": [b + 1 for b in spec.blocks],
        "relation_count": len(spec.relations),
        "relations": rels,
    }

