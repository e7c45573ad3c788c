"""Dual dimension towers: iterative intersections against the inverted
series, the stacked cross-check, and the element budget guard.
"""

import hashlib
import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import permutations
from math import factorial

import numpy as np
import pytest

import psiring.exactla as exactla
import psiring.koszul as koszul
import psiring.slices as slices
from psiring.errors import BudgetError
from psiring.exactla import echelon_mod_p, echelon_nullspace, nullspace_mod_p, rows_to_dense
from psiring.fields import DEFAULT_PRIME, TENSOR_PRIME, TENSOR_RETRY_PRIME
from psiring.koszul import (
    DEFAULT_ELEMENT_BUDGET,
    b2_structural,
    dual_dimension_stacked,
    dual_tower,
    koszul_prediction,
    koszul_summary,
    relation_space_matrices,
)
from psiring.presentation import CUSTOM, PivotScheme, build_an, tensor_relation_space
from psiring.series import invert_unit_series, lee_series, total_hilbert
from psiring.slices import block_symmetries
from psiring.symbols import Alpha
from conftest import gauss_jordan, with_first_relation_scaled, with_last_relation_bent


def test_prediction_rows_frozen():
    assert koszul_prediction(4, 5) == [1, 8, 34, 112, 341, 1024]
    assert koszul_prediction(5, 5) == [1, 15, 125, 795, 4395, 22461]


def test_prediction_head_is_structural():
    for n in range(3, 9):
        pred = koszul_prediction(n, 2)
        assert pred[0] == 1
        assert pred[1] == n * (n - 2)
        assert pred[2] == b2_structural(n)


def test_prediction_closed_form_matches_series_inversion():
    # the independent route: invert h(-t) term by term
    for n in range(3, 10):
        h = total_hilbert(n, 40)
        assert koszul_prediction(n, 40) == invert_unit_series(
            [(-1) ** d * c for d, c in enumerate(h)])


def test_three_points_dual_is_exterior():
    # no relations: the dual of the free-commutative ring on 3 variables
    assert dual_tower(3, 5) == [1, 3, 3, 1, 0, 0]


def relation_space(spec, prime=TENSOR_PRIME):
    """(N2, C), test-side: the echelon rows of spec's R in V (x) V mod the
    prime, and the check rows read off them as their kernel."""
    v = spec.nvars
    U, pivots = echelon_mod_p(rows_to_dense(tensor_relation_space(spec), v * v, prime), prime)
    N2 = U[: len(pivots)]
    return N2, echelon_nullspace(N2, pivots, prime).T


def test_relation_space_shapes():
    assert relation_space(build_an(4))[0].shape == (34, 64)
    assert relation_space_matrices(build_an(4)).shape == (64 - 34, 64)


def matrix_digest(m: np.ndarray) -> str:
    m = np.ascontiguousarray(m, dtype=np.int64)
    return hashlib.sha256(repr(m.shape).encode() + m.tobytes()).hexdigest()


@pytest.mark.parametrize("n,n2_digest,c_digest", [
    (4, "c45692ee705f157ade9b5e76ae8abc11aacc792c01cbacdc07f346bc4152b80f",
     "9589c483534b78703f6f4802a0527bdbc72e021d474f3603788f278d24001b47"),
    (5, "5592ca07de7a50953de50096aa3022ee7e95abeb0d6b27e64de84caa1c03b9bc",
     "1bb6178d457c74418a219b5de31c5ec2f39a071968bdd5288cbcbc1a339d8bd6"),
    (6, "4818d54d481e65a0c82bfc88e3d7acd8c3771970396b04ef1039db1b96daecc9",
     "c24718b1c8ce6bdab5ae969f38f9ca3b5347b8aa31dd7bdca6cdb1c6e159ab73"),
])
def test_relation_space_matrices_pinned(n, n2_digest, c_digest):
    # sha256 of the shape and the int64 bytes of N2 and C: the reduced echelon
    # form of the tensor rows, and the check rows the stacked route reads off
    # it, must not drift when the elimination changes; both depend on R alone
    spec = build_an(n)
    N2 = relation_space(spec)[0]
    C = relation_space_matrices(spec)
    assert (matrix_digest(N2), matrix_digest(C)) == (n2_digest, c_digest)
    if n <= 5:
        v = spec.nvars
        R, pivots = gauss_jordan(rows_to_dense(tensor_relation_space(spec), v * v, TENSOR_PRIME),
                                 TENSOR_PRIME)
        assert N2.tolist() == R[: len(pivots)]


@pytest.mark.parametrize("n,pivot", [(4, None), (5, None), (5, (3, 1, 5, 2, 4))])
def test_relation_space_eliminates_once(n, pivot, monkeypatch):
    # C is read off the echelon form N2 of the tensor rows without eliminating
    # it again, and is what nullspace_mod_p gives on N2: an echelon form with
    # unit pivots re-eliminates to itself
    calls = []
    real = koszul.echelon_mod_p

    def spy(a, p):
        calls.append(np.shape(a))
        return real(a, p)

    monkeypatch.setattr(koszul, "echelon_mod_p", spy)
    scheme = PivotScheme(CUSTOM, assignment=pivot) if pivot else None
    spec = build_an(n, scheme)
    C = relation_space_matrices(spec)
    assert calls == [(b2_structural(n), spec.nvars ** 2)]
    N2 = relation_space(spec)[0]
    U, pivots = real(N2, TENSOR_PRIME)
    assert np.array_equal(U, N2)
    assert np.array_equal(C, nullspace_mod_p(N2, TENSOR_PRIME).T)


@pytest.mark.parametrize("n,kmax", [(4, 4), (5, 3), (6, 3)])
def test_tower_matches_prediction(n, kmax):
    assert dual_tower(n, kmax) == koszul_prediction(n, kmax)


@pytest.mark.parametrize("n,k", [(3, 3), (4, 3)])
def test_stacked_route_agrees(n, k):
    assert dual_dimension_stacked(n, k) == dual_tower(n, k)[k]


def test_stacked_route_refuses_before_building_the_presentation(monkeypatch):
    # RR = v^2 - b2_structural(n) is exact for A_n's independent relations
    def boom(*args, **kwargs):
        raise AssertionError("work started before the budget check")

    for name in ("build_an", "relation_space_matrices"):
        monkeypatch.setattr(koszul, name, boom)
    with pytest.raises(BudgetError) as exc:
        dual_dimension_stacked(8, 4)
    assert exc.value.estimate == 38_012_675_162_112
    assert str(exc.value) == ("stacked system is 7160832 x 5308416"
                              " (38012675162112 entries > budget 200000000)")


def test_stacked_route_refuses_the_relation_space_before_building_it(monkeypatch):
    # at n = 13, k = 2 the stacked system, RR * v^2 = 194592684 entries, fits the
    # budget, but the relation space it is read from, b2 * v^2, does not
    def boom(*args, **kwargs):
        raise AssertionError("work started before the budget check")

    for name in ("build_an", "relation_space_matrices"):
        monkeypatch.setattr(koszul, name, boom)
    with pytest.raises(BudgetError) as exc:
        dual_dimension_stacked(13, 2)
    assert exc.value.estimate == 223_568_917 == b2_structural(13) * (13 * 11) ** 2
    assert str(exc.value) == ("relation space is 10933 x 20449"
                              " (223568917 entries > budget 200000000)")


def test_stacked_route_checks_the_actual_relation_space(monkeypatch):
    # a C with twice the check rows of A(4)'s passes the check on the lower
    # bound RR = 30 and is refused on its own 60 rows
    C = relation_space_matrices(build_an(4))
    monkeypatch.setattr(koszul, "relation_space_matrices", lambda spec: np.vstack([C, C]))
    monkeypatch.setattr(koszul, "DEFAULT_ELEMENT_BUDGET", 300_000)
    with pytest.raises(BudgetError) as exc:
        dual_dimension_stacked(4, 3)
    assert str(exc.value) == "stacked system is 960 x 512 (491520 entries > budget 300000)"


def test_budget_refusal_carries_estimate():
    with pytest.raises(BudgetError) as exc:
        dual_tower(4, 6, budget=200_000_000)
    assert exc.value.estimate > exc.value.budget
    # a generous budget also refuses n=5, k=4 under the default
    with pytest.raises(BudgetError):
        dual_tower(5, 4)


def test_budget_zero_refuses_the_first_real_stage():
    # stage 2 keeps n(2n-1)(n-2)^4 = 448 entries for n = 4 and is refused
    # below that; at exactly 448, k = 3 is the first stage refused, before it
    # multiplies matrices
    with pytest.raises(BudgetError) as exc:
        dual_tower(4, 2, budget=0)
    assert exc.value.estimate == 448
    assert dual_tower(4, 2, budget=448) == [1, 8, 34]
    with pytest.raises(BudgetError):
        dual_tower(4, 3, budget=448)


def test_retry_prime_reproduces_tower():
    assert dual_tower(4, 3, prime=TENSOR_RETRY_PRIME) == dual_tower(4, 3, prime=TENSOR_PRIME)


def test_summary_verdict_match():
    s = koszul_summary(4, 3)
    assert s.verdict == "match"
    assert s.all_match
    assert [st.dual_dim for st in s.stages] == [1, 8, 34, 112]
    assert s.primes == (TENSOR_PRIME,)


def test_summary_passes_pivot_at_both_primes(monkeypatch):
    # a forced mismatch makes the summary retry at a second prime
    pivot = PivotScheme(CUSTOM, assignment=(2, 1, 4, 3))
    seen = []
    real = koszul.dual_tower

    def spy(n, kmax, prime, budget, piv):
        seen.append((prime, piv))
        return real(n, kmax, prime, budget, piv)

    monkeypatch.setattr(koszul, "dual_tower", spy)
    monkeypatch.setattr(koszul, "koszul_prediction", lambda n, kmax: [0] * (kmax + 1))
    s = koszul_summary(4, 3, pivot=pivot)
    assert [q for q, _ in seen] == list(s.primes) == [TENSOR_PRIME, TENSOR_RETRY_PRIME]
    assert all(piv == pivot for _, piv in seen)
    assert [st.dual_dim for st in s.stages] == [1, 8, 34, 112]


def multigraded_inverse(n, k):
    """1/h(-q) for h the multigraded Hilbert series of A_n, to total degree k,
    as {multidegree: nonzero coefficient}."""
    h = lee_series(n, k)
    # h(-q) = 1 - g with g free of constant term, so 1/h(-q) = sum of g^i, i <= k
    g = {a: -(-1) ** sum(a) * c for a, c in h.items() if any(a)}
    inv, power = {(0,) * n: 1}, {(0,) * n: 1}
    for _ in range(k):
        product = {}
        for a1, c1 in power.items():
            for a2, c2 in g.items():
                a = tuple(x + y for x, y in zip(a1, a2))
                if sum(a) <= k:
                    product[a] = product.get(a, 0) + c1 * c2
        power = product
        for a, c in power.items():
            inv[a] = inv.get(a, 0) + c
    return {a: c for a, c in inv.items() if c}


@pytest.mark.parametrize("custom,n,k,blocks", [
    (custom, n, k, blocks) for custom in (False, True)
    for n, k, blocks in [(4, 4, 31), (5, 3, 35), (4, 5, 40)]
] + [(False, 4, 6, 68), (False, 5, 4, 65)])
def test_dual_blocks_match_multigraded_series(custom, n, k, blocks):
    # Froberg's numerical criterion refined to Z^n: every multidegree block of
    # W_k has the dimension of the matching coefficient of 1/h(-q); the budget
    # is lifted, since the default refuses (4, 6) and (5, 4)
    pivot = PivotScheme(CUSTOM, assignment=(2, 1, 4, 3) if n == 4 else (3, 1, 2, 5, 4)) \
        if custom else None
    top = koszul._dual_blocks(n, k, TENSOR_PRIME, 10 ** 12, pivot)[-1]
    want = {a: c for a, c in multigraded_inverse(n, k).items() if sum(a) == k}
    assert top == want
    assert len(top) == blocks
    assert sum(top.values()) == koszul_prediction(n, k)[k]


def test_three_points_blocks_are_pinned():
    # A_3's R is spanned by the three commutators, one per block e_s + e_t;
    # the blocks 2e_s have no spanning row and the identity as check rows
    assert koszul._dual_blocks(3, 4, TENSOR_PRIME, DEFAULT_ELEMENT_BUDGET, None) == [
        {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}, {(1, 1, 1): 1}, {}]


@pytest.mark.parametrize("n,k", [(4, 6), (5, 4), (6, 3), (7, 3), (6, 4), (4, 7)])
def test_block_sums_match_prediction(n, k):
    blocks = koszul._dual_blocks(n, k, TENSOR_PRIME, 10 ** 12, None)
    assert [sum(b.values()) for b in blocks] == koszul_prediction(n, k)[2:]


def test_tower_matrices_stay_within_one_block(monkeypatch):
    # A(8) has v = 48 variables in blocks of 6; no matrix the tower builds may
    # be wider than one block e_s + e_t of V (x) V, 2 * 6^2 = 72 columns, where
    # the whole relation space is v^2 = 2304 wide; at kmax = 2 each block is
    # ranked once, one pass of the insertion core
    widths = []
    for module, name in ((koszul, "rank_rows_mod_p"), (exactla, "_insert_mod_p")):
        def spy(rows, ncols, p, real=getattr(module, name)):
            widths.append(ncols)
            assert all(0 <= c < ncols for row in rows for c in row)
            return real(rows, ncols, p)

        monkeypatch.setattr(module, name, spy)

    def boom(*args, **kwargs):
        raise AssertionError("the tower built the global relation space")

    monkeypatch.setattr(koszul, "relation_space_matrices", boom)
    assert dual_tower(8, 2) == koszul_prediction(8, 2)
    assert len(widths) == 2 * (8 + 28)  # one of each per block 2e_s and e_s + e_t
    assert max(widths) == 72


@pytest.fixture
def eliminations(monkeypatch):
    """(eliminator, (rows, columns)) of each matrix koszul passes to
    nullspace_rows_mod_p or rank_rows_mod_p, in call order."""
    calls = []
    for name in ("nullspace_rows_mod_p", "rank_rows_mod_p"):
        def spy(rows, ncols, p, name=name, real=getattr(koszul, name)):
            calls.append((name, (len(rows), ncols)))
            return real(rows, ncols, p)

        monkeypatch.setattr(koszul, name, spy)
    return calls


@pytest.fixture
def orbits(monkeypatch):
    """The representatives orbit_representatives gives koszul, one list per stage."""
    calls = []
    real = koszul.orbit_representatives

    def spy(gens, grid):
        calls.append(real(gens, grid))
        return calls[-1]

    monkeypatch.setattr(koszul, "orbit_representatives", spy)
    return calls


def test_stage_nullspaces_are_per_block(eliminations):
    # the whole n=5, k=3 stage has 1875 columns; no block may come near that
    # (the relation space's C comes from kernel_rows_mod_p, so it is not here)
    assert dual_tower(5, 3) == [1, 15, 125, 795]
    assert len(eliminations) > 1
    assert max(cols for _, (_, cols) in eliminations) <= 1875 // 10


def test_stage_rows_run_over_the_basis_of_w_k_minus_2(eliminations, orbits):
    # stage k's rows are (basis vector of W_(k-2), check row of R), so the
    # blocks of stage k have at most dim W_(k-2) * RR rows, not v^(k-2) * RR
    dims = dual_tower(4, 5)
    RR = 8 * 8 - dims[2]
    assert [dims[k - 2] * RR for k in (3, 4, 5)] == [240, 1020, 3360]
    blocks = iter(eliminations)
    for k in (3, 4):
        rows = cols = 0
        while cols < 8 * dims[k - 1]:
            name, (r, c) = next(blocks)
            assert name == "nullspace_rows_mod_p"
            rows, cols = rows + r, cols + c
        assert cols == 8 * dims[k - 1]  # the blocks cover the columns (u, b) once
        assert rows <= dims[k - 2] * RR
    # the last stage ranks one block per orbit, in the order of the representatives
    reps = orbits[-1]
    last = list(blocks)
    assert [name for name, _ in last] == ["rank_rows_mod_p"] * len(set(reps))
    sizes = Counter(reps)
    assert sum(c * sizes[rep] for (_, (_, c)), rep in zip(last, dict.fromkeys(reps))) \
        == 8 * dims[4]
    assert sum(r for _, (r, _) in last) <= dims[3] * RR
    assert len(last) < len(reps)


@pytest.mark.parametrize("n,k,assignment", [
    (4, 5, None), (5, 3, None), (6, 3, None), (4, 5, (2, 1, 4, 3)), (5, 3, (3, 1, 2, 5, 4)),
])
def test_last_stage_orbits_keep_every_block(n, k, assignment, monkeypatch):
    # ranking one block per certified orbit gives every block the dimension
    # that ranking each block on its own gives, at both primes koszul_summary uses
    pivot = PivotScheme(CUSTOM, assignment=assignment) if assignment else None
    primes = (TENSOR_PRIME, TENSOR_RETRY_PRIME)
    assert all(block_symmetries(build_an(n, pivot), p) for p in primes)
    with_orbits = [koszul._dual_blocks(n, k, p, 10 ** 12, pivot) for p in primes]
    monkeypatch.setattr(slices, "_candidates", lambda spec: [])
    assert [koszul._dual_blocks(n, k, p, 10 ** 12, pivot) for p in primes] == with_orbits


def linear_images(spec, perm):
    """Each variable's image under relabelling the points by perm, as
    {position: coefficient}: a[i,j] goes to X[perm i, perm j] - X[perm i, perm p(i)],
    X[k,l] the variable a[k,l], or 0 where l is the pivot p(k)."""
    pos = {x: k for k, x in enumerate(spec.variables)}
    n = spec.n

    def X(k, l):
        return {} if l == spec.pivot.pivot_of(k, n) else {pos[Alpha(k, l)]: 1}

    out = []
    for x in spec.variables:
        k, p = perm[x.i - 1] + 1, spec.pivot.pivot_of(x.i, n)
        form = Counter(X(k, perm[x.j - 1] + 1))
        form.subtract(X(k, perm[p - 1] + 1))
        out.append(dict(form))
    return out


def keeps_r(spec, C, prime, perm):
    """The membership check on R: C @ (perm (x) perm)(x) == 0 mod the prime for
    the lift x of every relation, each term c * x_a * x_b lifted as
    c * e_a (x) e_b, and perm (x) perm(e_a (x) e_b) = perm(e_a) (x) perm(e_b)."""
    forms, v = linear_images(spec, perm), spec.nvars
    for rel in spec.relations:
        x = np.zeros(v * v, dtype=np.int64)
        for a, b, c in rel:
            for q, cq in forms[a].items():
                for r, cr in forms[b].items():
                    x[q * v + r] += c * cq * cr
        if np.any(C @ x % prime):
            return False
    return True


@pytest.mark.parametrize("n,assignment", [
    (4, None), (4, (2, 1, 4, 3)), (4, (3, 4, 2, 1)),
    (5, None), (5, (3, 1, 2, 5, 4)), (5, (2, 1, 4, 5, 3)),
    (6, None), (6, (2, 1, 4, 3, 6, 5)), (6, (3, 1, 2, 6, 4, 5)),
])
def test_certified_symmetries_keep_r(n, assignment, monkeypatch):
    # the relations' certificate against the tower's membership check, over
    # 24 relabellings of the points spread evenly over S_n (all of S_4), at
    # each prime the tower runs at: they pass the same ones, all of them for
    # A(n) and some for a bent copy that breaks the symmetry
    pivot = PivotScheme(CUSTOM, assignment=assignment) if assignment else None
    spec = build_an(n, pivot)
    relabellings = list(permutations(range(n)))[::factorial(n) // 24]
    monkeypatch.setattr(slices, "_candidates", lambda spec: relabellings)
    bent = with_last_relation_bent(spec)
    for prime in (TENSOR_PRIME, TENSOR_RETRY_PRIME):
        for s in (spec, bent):
            C = relation_space(s, prime)[1]
            certified = block_symmetries(s, prime)
            assert certified == tuple(perm for perm in relabellings
                                      if keeps_r(s, C, prime, perm))
            assert (len(certified) == len(relabellings)) == (s is spec)


def test_the_tower_certifies_at_its_own_prime(monkeypatch):
    # relation 0 scaled by TENSOR_PRIME: the same ideal over Q and mod
    # DEFAULT_PRIME, but mod TENSOR_PRIME R loses that relation's lift, and no
    # relabelling of the points is certified there
    bad = with_first_relation_scaled(build_an(4), TENSOR_PRIME)
    assert block_symmetries(bad) == ((1, 0, 2, 3), (1, 2, 3, 0))
    assert block_symmetries(bad, TENSOR_PRIME) == ()
    assert set(bad.cache["block_symmetries"]) == {DEFAULT_PRIME, TENSOR_PRIME}
    monkeypatch.setattr(koszul, "build_an",
                        lambda n, pivot: with_first_relation_scaled(build_an(n), TENSOR_PRIME))

    def top():
        return koszul._dual_blocks(4, 4, TENSOR_PRIME, DEFAULT_ELEMENT_BUDGET, None)[-1]

    certified = top()
    assert sum(certified.values()) == 264
    # the slices' certificate at DEFAULT_PRIME would merge blocks of other dimensions
    with monkeypatch.context() as m:
        m.setattr(koszul, "block_symmetries", lambda spec, prime: block_symmetries(spec))
        assert sum(top().values()) == 161
    monkeypatch.setattr(slices, "_candidates", lambda spec: [])
    assert top() == certified


def test_tower_builds_the_presentation_once(monkeypatch):
    built = []
    real = koszul.build_an

    def spy(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(koszul, "build_an", spy)
    assert dual_tower(5, 3) == koszul_prediction(5, 3)
    assert built == [(5, None)]


def test_last_stage_ranks_one_block_per_orbit(eliminations, monkeypatch):
    # A(5)'s 35 blocks of W_3 fall into 3 orbits of S_5, one per partition of
    # 3; only the relation space's check rows are read off an echelon form,
    # one block of V (x) V at a time: 5 blocks 2e_s (3 commutators over 3 x 3
    # columns) and 10 blocks e_s + e_t (9 commutators and 2 relations over 18)
    solved = []
    for module in (koszul, exactla):
        def spy(echelon, ncols, p, real=module.kernel_rows_mod_p):
            solved.append((len(echelon), ncols))
            return real(echelon, ncols, p)

        monkeypatch.setattr(module, "kernel_rows_mod_p", spy)
    top = koszul._dual_blocks(5, 3, TENSOR_PRIME, DEFAULT_ELEMENT_BUDGET, None)[-1]
    assert len(top) == 35
    assert [name for name, _ in eliminations] == ["rank_rows_mod_p"] * 3
    assert sorted(solved) == [(3, 9)] * 5 + [(11, 18)] * 10


def test_budget_refused_before_any_work(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("work started before the budget check")

    for name in ("rank_rows_mod_p", "echelon_rows_mod_p", "kernel_rows_mod_p",
                 "nullspace_rows_mod_p", "rank_mod_p", "echelon_mod_p", "echelon_nullspace",
                 "build_an", "block_symmetries", "relation_space_matrices"):
        monkeypatch.setattr(koszul, name, boom)
    with pytest.raises(BudgetError) as exc:
        dual_tower(5, 4)
    assert exc.value.estimate == 268_312_500
    assert str(exc.value) == ("stage k=4 for n=5 needs a 22500 x 11925 matrix"
                              " (268312500 entries > budget 200000000)")
    with pytest.raises(BudgetError) as exc:
        dual_tower(4, 6)
    assert exc.value.estimate == 1_006_632_960


def test_stage_two_is_refused_before_the_relation_space(monkeypatch):
    # n(2n-1)(n-2)^4 entries: 264,240,768 at n = 24, over the default budget
    # though no block is wider than 968 columns; 19,054,336 at n = 16
    def boom(*args, **kwargs):
        raise AssertionError("work started before the budget check")

    monkeypatch.setattr(koszul, "build_an", boom)
    monkeypatch.setattr(koszul, "tensor_relation_space", boom)
    with pytest.raises(BudgetError) as exc:
        dual_tower(24, 2)
    assert exc.value.estimate == 264_240_768
    assert str(exc.value) == ("stage k=2 for n=24 keeps the echelon and check rows of its"
                              " blocks (264240768 entries > budget 200000000)")
    with pytest.raises(AssertionError, match="work started"):
        dual_tower(16, 2)  # passes the check and starts building A_16


def test_mixed_degree_relation_row_is_refused(monkeypatch):
    # relation 0, of pair (i, j), gains the square of a variable of another
    # block; its row follows the C(8, 2) = 28 commutators
    spec = build_an(4)
    i, j = spec.relation_pairs[0]
    other = next(x for x, b in enumerate(spec.blocks) if b not in (i - 1, j - 1))
    mixed = spec.relations[0] + ((other, other, 1),)
    spec = replace(spec, relations=(mixed,) + spec.relations[1:])
    monkeypatch.setattr(koszul, "build_an", lambda n, pivot: spec)
    with pytest.raises(AssertionError, match="row 28 is zero or not multihomogeneous"):
        dual_tower(4, 3)


def test_refusal_predicts_only_the_stages_it_needs(monkeypatch):
    # every stage past the first with v^(j-1) > budget is refused, so a huge
    # kmax must not make the up-front check expand the series that far
    asked = []
    real = koszul.koszul_prediction

    def spy(n, kmax):
        asked.append(kmax)
        return real(n, kmax)

    monkeypatch.setattr(koszul, "koszul_prediction", spy)
    with pytest.raises(BudgetError) as exc:
        dual_tower(5, 100_000)
    assert exc.value.estimate == 268_312_500
    assert max(asked) <= 9  # 15^8 > 2e8: stage 9 is the last one the check looks at


class NoNumpy:
    """Stands in for numpy in a module that must not use it."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used")


def test_tower_touches_no_numpy(monkeypatch):
    # every block, basis and check row is sparse rows on Python ints, at both
    # primes koszul_summary uses
    for module in (koszul, exactla):
        monkeypatch.setattr(module, "np", NoNumpy())
    assert dual_tower(3, 6) == [1, 3, 3, 1, 0, 0, 0]
    assert dual_tower(4, 5) == [1, 8, 34, 112, 341, 1024]
    assert dual_tower(5, 4, budget=10 ** 11) == [1, 15, 125, 795, 4395]
    monkeypatch.setattr(koszul, "koszul_prediction", lambda n, kmax: [0] * (kmax + 1))
    s = koszul_summary(4, 4)
    assert s.primes == (TENSOR_PRIME, TENSOR_RETRY_PRIME)
    assert [st.dual_dim for st in s.stages] == [1, 8, 34, 112, 341]


def test_tower_memory_stays_sparse():
    # the blocks of (6, 4) are a few percent dense: assembled as dense int64
    # they peaked at 39 MiB of Python allocations, kept as sparse rows at 4 MiB
    tracemalloc.start()
    try:
        assert dual_tower(6, 4, budget=10 ** 11) == koszul_prediction(6, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


def test_tower_stops_once_a_stage_vanishes():
    # A_3 has dual tower 1, 3, 3, 1, 0, ...; the words of V^(x)(k-2) grow as
    # 3^(k-2), so reaching k = 200 means no stage after W_4 = 0 is built
    assert dual_tower(3, 200) == [1, 3, 3, 1] + [0] * 197
    assert koszul._dual_blocks(3, 6, TENSOR_PRIME, DEFAULT_ELEMENT_BUDGET, None)[2:] == [{}] * 3
