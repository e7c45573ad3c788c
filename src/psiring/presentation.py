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
e_i + e_j, which relation_degree_audit enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import UsageError
from .fields import QQ, Field
from .orders import GREVLEX, MonomialOrder
from .poly import Poly, monomial_text, poly_text
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
    field: Field
    variables: tuple[VarIndex, ...]
    blocks: tuple[int, ...]            # 0-based block per variable position
    relations: tuple[Poly, ...]
    relation_pairs: tuple[tuple[int, int], ...]  # the (i, j) of each relation, 1-based
    # data derived from the fields above, cached by the layers that use it
    # (slices' row plan); no part of equality, and a replace() starts it empty
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def block_sizes(self) -> list[int]:
        return [len(ps) for ps in self.block_positions()]

    def var_names(self) -> list[str]:
        return [v.text() for v in self.variables]

    def default_order(self) -> MonomialOrder:
        return MonomialOrder(GREVLEX)

    def to_field(self, field: Field) -> "PresentationSpec":
        """Same presentation with relation coefficients mapped into another field."""
        if field == self.field:
            return self
        rels = tuple(r.map_field(field) for r in self.relations)
        return replace(self, field=field, relations=rels)


def _lin(var_pos: dict, i: int, j: int, jneg: int) -> list[tuple[int, int]]:
    """a[i,j] - a[i,jneg] as (position, coefficient) pairs, pivot entries dropped."""
    out = []
    va, vb = Alpha(i, j), Alpha(i, jneg)
    if va in var_pos:
        out.append((var_pos[va], 1))
    if vb in var_pos:
        out.append((var_pos[vb], -1))
    return out


def _pair_tensor(var_pos: dict, i: int, j: int, k: int, l: int) -> dict:
    """The pair (i,j) relation comparing points k and l, as {(pos_a, pos_b): coeff}
    in V (x) V: (a[i,k]-a[i,j])(a[j,k]-a[j,i]) - (a[i,l]-a[i,j])(a[j,l]-a[j,i])."""
    out: dict = {}
    for p, sign in ((k, 1), (l, -1)):
        for pa, ca in _lin(var_pos, i, p, j):
            for pb, cb in _lin(var_pos, j, p, i):
                out[(pa, pb)] = out.get((pa, pb), 0) + sign * ca * cb
    return {ab: c for ab, c in out.items() if c}


def _pair_poly(var_pos: dict, nvars: int, i: int, j: int, k: int, l: int) -> Poly:
    """_pair_tensor collapsed to commutative monomials, over QQ."""
    terms: dict = {}
    for (pa, pb), c in _pair_tensor(var_pos, i, j, k, l).items():
        e = [0] * nvars
        e[pa] += 1
        e[pb] += 1
        key = tuple(e)
        terms[key] = terms.get(key, 0) + c
    return Poly.from_int_terms(QQ, nvars, terms)


def _pair_triples(n: int):
    """(i, j, k, l0) of each stored pair relation of A_n, in storage order:
    i < j, l0 the smallest point outside {i, j} and k every later one."""
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rest = [k for k in range(1, n + 1) if k not in (i, j)]
            for k in rest[1:]:
                yield i, j, k, rest[0]


def build_an(n: int, pivot: PivotScheme | None = None) -> PresentationSpec:
    """Presentation of A_n: n(n-2) variables, C(n,2)*(n-3) quadratic relations."""
    if n < 3:
        raise UsageError(f"A_n needs n >= 3, got n={n}")
    pivot = pivot or PivotScheme(CYCLIC)
    pivot.validate(n)
    if pivot.kind == COMMON_EXTRA:
        raise UsageError("common-extra-point pivot needs extra points; use B_{n,m}")

    variables: list[VarIndex] = []
    for i in range(1, n + 1):
        p = pivot.pivot_of(i, n)
        for j in range(1, n + 1):
            if j != i and j != p:
                variables.append(Alpha(i, j))
    var_pos = {v: k for k, v in enumerate(variables)}
    blocks = tuple(v.block - 1 for v in variables)
    nvars = len(variables)

    relations: list[Poly] = []
    pairs: list[tuple[int, int]] = []
    for i, j, k, l0 in _pair_triples(n):
        rel = _pair_poly(var_pos, nvars, i, j, k, l0)
        assert not rel.is_zero(), "degenerate relation"
        relations.append(rel)
        pairs.append((i, j))

    spec = PresentationSpec(
        kind="an", n=n, m=0, pivot=pivot, field=QQ,
        variables=tuple(variables), blocks=blocks,
        relations=tuple(relations), relation_pairs=tuple(pairs),
    )
    relation_degree_audit(spec)
    return spec


def build_bnm(n: int, m: int) -> PresentationSpec:
    """Presentation of B_{n,m}: n(n-1) + n(m-1) variables, C(n,2)*(n+m-3) relations."""
    if m == 0:
        return build_an(n)
    if n < 2 or m < 1:
        raise UsageError(f"B_(n,m) needs n >= 2 and m >= 0, got ({n},{m})")
    if n + m < 3:
        raise UsageError(f"B_(n,m) needs n + m >= 3, got ({n},{m})")

    variables: list[VarIndex] = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if j != i:
                variables.append(Alpha(i, j))
    for i in range(1, n + 1):
        for r in range(1, m):
            variables.append(Phi(r, i))
    var_pos = {v: k for k, v in enumerate(variables)}
    blocks = tuple(v.block - 1 for v in variables)
    nvars = len(variables)

    def vp(v: VarIndex) -> Poly:
        return Poly.variable(QQ, nvars, var_pos[v])

    relations: list[Poly] = []
    pairs: list[tuple[int, int]] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            aij, aji = vp(Alpha(i, j)), vp(Alpha(j, i))
            for k in range(1, n + 1):
                if k in (i, j):
                    continue
                aik, ajk = vp(Alpha(i, k)), vp(Alpha(j, k))
                rel = aik.mul(ajk).sub(aij.mul(ajk)).sub(aji.mul(aik))
                relations.append(rel)
                pairs.append((i, j))
            for r in range(1, m):
                fi, fj = vp(Phi(r, i)), vp(Phi(r, j))
                rel = fi.mul(fj).sub(aij.mul(fj)).sub(aji.mul(fi))
                relations.append(rel)
                pairs.append((i, j))

    spec = PresentationSpec(
        kind="bnm", n=n, m=m, pivot=PivotScheme(COMMON_EXTRA), field=QQ,
        variables=tuple(variables), blocks=blocks,
        relations=tuple(relations), relation_pairs=tuple(pairs),
    )
    relation_degree_audit(spec)
    return spec


def relation_degree_audit(spec: PresentationSpec) -> dict[tuple[int, int], int]:
    """Count relations per pair; raise if any relation is not of degree e_i + e_j."""
    counts: dict[tuple[int, int], int] = {}
    for rel, (i, j) in zip(spec.relations, spec.relation_pairs):
        mdeg = rel.poly_multidegree(spec.blocks, spec.n)
        want = tuple(1 if b + 1 in (i, j) else 0 for b in range(spec.n))
        if mdeg != want:
            raise AssertionError(
                f"relation for pair ({i},{j}) has multidegree {mdeg}, expected {want}"
            )
        counts[(i, j)] = counts.get((i, j), 0) + 1
    return counts


# -- the tensor-square relation space (input to the Koszul computations) ------

@dataclass(frozen=True)
class TensorRelationSpace:
    """Basis of the full quadratic relation space R inside V (x) V for A_n.

    V carries the variables of build_an(n); rows are stored sparsely over the
    flat index pos1 * dim_v + pos2.  commutator_rows span the alternating
    relations x(x)y - y(x)x; symmetric_rows are the lifted pair relations.
    """

    n: int
    dim_v: int
    commutator_rows: tuple[dict, ...]
    symmetric_rows: tuple[dict, ...]

    @property
    def rows(self) -> tuple[dict, ...]:
        return self.commutator_rows + self.symmetric_rows

    @property
    def nrows(self) -> int:
        return len(self.commutator_rows) + len(self.symmetric_rows)


def tensor_relation_space(n: int, pivot: PivotScheme | None = None) -> TensorRelationSpace:
    """R = commutators + one lift of each pair relation; dim C(v,2) + C(n,2)(n-3)."""
    spec = build_an(n, pivot)
    v = spec.nvars
    var_pos = {var: k for k, var in enumerate(spec.variables)}

    commutators: list[dict] = []
    for a in range(v):
        for b in range(a + 1, v):
            commutators.append({a * v + b: 1, b * v + a: -1})

    symmetric = [{pa * v + pb: c for (pa, pb), c in _pair_tensor(var_pos, i, j, k, l0).items()}
                 for i, j, k, l0 in _pair_triples(n)]

    return TensorRelationSpace(
        n=n, dim_v=v,
        commutator_rows=tuple(commutators),
        symmetric_rows=tuple(symmetric),
    )


# -- serialization -------------------------------------------------------------

def presentation_to_dict(spec: PresentationSpec) -> dict:
    """JSON-ready dump: variables, grading, relations as sorted term lists."""
    order = spec.default_order()
    names = spec.var_names()
    rels = []
    for rel, (i, j) in zip(spec.relations, spec.relation_pairs):
        terms = [
            {"coeff": spec.field.to_str(c),
             "monomial": monomial_text(e, names)}
            for e, c in rel.sorted_terms(order)
        ]
        rels.append({"pair": [i, j], "terms": terms, "text": poly_text(rel, names, order)})
    return {
        "algebra": spec.name(),
        "kind": spec.kind,
        "n": spec.n,
        "m": spec.m,
        "pivot": spec.pivot.kind,
        "field": spec.field.name,
        "variables": names,
        "blocks": [b + 1 for b in spec.blocks],
        "relation_count": len(spec.relations),
        "relations": rels,
    }

