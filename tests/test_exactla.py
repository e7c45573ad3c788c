"""Exact linear algebra lanes agree: sparse rational, fraction-free integer,
and modular elimination, plus the modular nullspace and the overflow-safe
modular matmul against object-dtype references.
"""

import numpy as np
import pytest

from psiring import exactla
from psiring.errors import UsageError
from psiring.exactla import (
    echelon_mod_p,
    echelon_nullspace,
    echelon_rows_mod_p,
    kernel_rows_mod_p,
    mod_matmul,
    nullspace_mod_p,
    nullspace_rows_mod_p,
    rank_mod_p,
    rank_rows_mod_p,
    rank_sparse_rational,
    rows_to_dense,
    sparse_echelon,
)
from psiring.fields import DEFAULT_PRIME, TENSOR_PRIME, TENSOR_RETRY_PRIME
from psiring.rng import SplitMix64
from conftest import gauss_jordan


def bareiss_rank(mat: list[list[int]]) -> int:
    """Fraction-free dense elimination over Z: the reference rank for these tests."""
    m = [list(map(int, row)) for row in mat]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        rank += 1
        if r == nrows:
            break
    return rank


def random_int_matrix(rows, cols, seed, lo=-6, hi=6, rank_deficit=0):
    rng = SplitMix64(seed)
    m = [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    for k in range(rank_deficit):
        # overwrite a row with a combination of two earlier ones
        if rows >= 3:
            a, b = rng.randint(0, rows - 2), rng.randint(0, rows - 2)
            c1, c2 = rng.randint(-3, 3), rng.randint(-3, 3)
            m[rows - 1 - k] = [c1 * x + c2 * y for x, y in zip(m[a], m[b])]
    return m


def to_sparse(m):
    return [{j: v for j, v in enumerate(row) if v} for row in m]


@pytest.mark.parametrize("seed", range(5))
def test_rank_lanes_agree(seed):
    m = random_int_matrix(8, 10, seed, rank_deficit=seed % 3)
    sparse = to_sparse(m)
    r_sparse, _ = rank_sparse_rational(sparse)
    r_bareiss = bareiss_rank([row[:] for row in m])
    r_mod = rank_mod_p(np.array(m) % DEFAULT_PRIME, DEFAULT_PRIME)
    assert r_sparse == r_bareiss == r_mod


def test_rows_to_dense_reduces_entries():
    rows = [{0: -1, 2: 5}, {1: 7}]
    a = rows_to_dense(rows, 3, p=5)
    assert a.tolist() == [[4, 0, 0], [0, 2, 0]]


@pytest.mark.parametrize("p", [DEFAULT_PRIME, TENSOR_PRIME, 97])
def test_echelon_and_rref_shapes(p):
    ints = random_int_matrix(7, 9, 41, rank_deficit=2)
    m = np.array(ints) % p
    ech, piv = echelon_mod_p(m.copy(), p)
    assert len(piv) == bareiss_rank(ints)
    assert piv == sorted(set(piv))
    # unit pivots with zeros below, and zero rows after the last pivot
    for i, c in enumerate(piv):
        col = ech[:, c] % p
        assert col[i] == 1 and not col[i + 1:].any()
    assert not ech[len(piv):].any()


@pytest.mark.parametrize("p", [1, (1 << 61) - 1, (1 << 89) - 1])
@pytest.mark.parametrize("shape", [(0, 3), (3, 4)])
def test_elimination_refuses_the_prime_before_the_matrix(p, shape):
    # (p-1)^2 must fit int64, in every dense routine; an empty matrix is
    # refused as well, and a prime beyond int64 raises UsageError, not numpy's
    # OverflowError
    a = np.ones(shape, dtype=np.int64)
    for eliminate in (echelon_mod_p, rank_mod_p, nullspace_mod_p,
                      lambda a, p: echelon_nullspace(a, [], p),
                      lambda a, p: mod_matmul(a, a.T, p)):
        with pytest.raises(UsageError):
            eliminate(a, p)


def sparse_tower_rows(rng, nrows, ncols, per_row):
    """Sparse integer rows of a few percent density, like the Koszul tower's:
    up to per_row nonzero entries in [-2, 2] at random columns, and one row
    in four an integer combination of two earlier rows, so that the rank
    falls short."""
    rows = []
    for _ in range(nrows):
        if len(rows) >= 2 and rng.randint(0, 4) == 0:
            x, y = rows[rng.randint(0, len(rows) - 1)], rows[rng.randint(0, len(rows) - 1)]
            c1, c2 = rng.nonzero_int(2), rng.nonzero_int(2)
            row = {c: c1 * x.get(c, 0) + c2 * y.get(c, 0) for c in set(x) | set(y)}
        else:
            row = {rng.randint(0, ncols - 1): rng.nonzero_int(2) for _ in range(per_row)}
        rows.append({c: v for c, v in row.items() if v})
    return rows


@pytest.mark.parametrize("nrows,ncols,per_row", [(125, 225, 9), (462, 588, 6)])
def test_int64_lane_on_tower_sized_sparse_matrices(nrows, ncols, per_row):
    # shapes the Koszul computations eliminate, at 5% and 1.4% density
    p = TENSOR_PRIME
    rows = sparse_tower_rows(SplitMix64(0xDE5E), nrows, ncols, per_row)
    m = rows_to_dense(rows, ncols, p)
    assert 0.01 <= np.count_nonzero(m) / m.size <= 0.06
    ech, piv = echelon_mod_p(m, p)
    assert piv == sorted(set(piv))
    assert ((0 <= ech) & (ech < p)).all()
    for i, c in enumerate(piv):
        assert ech[i, c] == 1 and np.count_nonzero(ech[:, c]) == 1  # reduced
        assert not ech[i, :c].any()
    assert not ech[len(piv):].any()
    rank, lucky = rank_sparse_rational(rows, p)
    assert lucky  # the certificate holds at these seeds, so the ranks must agree
    assert len(piv) == rank
    ns = nullspace_mod_p(m, p)
    assert ns.shape == (ncols, ncols - rank)
    assert rank_mod_p(ns.T, p) == ncols - rank
    cols = ns.astype(object)
    for row in rows:
        assert not (sum(v * cols[c] for c, v in row.items()) % p).any()


@pytest.mark.parametrize("p", [TENSOR_PRIME, DEFAULT_PRIME])
def test_nullspace_annihilates(p):
    # columns of the result span the right kernel
    for seed in range(4):
        m = np.array(random_int_matrix(6, 9, 7 + seed)) % p
        ns = nullspace_mod_p(m, p)
        assert ns.shape == (9, 9 - rank_mod_p(m, p))
        if ns.size:
            prod = mod_matmul(m.astype(np.int64), np.ascontiguousarray(ns), p)
            assert not prod.any()


def test_nullspace_columns_independent():
    m = np.zeros((2, 5), dtype=np.int64)
    m[0, 0] = 1
    ns = nullspace_mod_p(m, 97)
    assert ns.shape == (5, 4)
    assert rank_mod_p(ns.T.copy(), 97) == 4


def gauss_jordan_kernel(m, p):
    """The reference kernel basis, as an object array, with the identity on the
    free columns, read off the reference reduced echelon form; with it the
    pivot columns and that form."""
    R, pivots = gauss_jordan(m, p)
    ncols = m.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    N = np.zeros((ncols, len(free)), dtype=object)
    for j, f in enumerate(free):
        N[f, j] = 1
        for t, c in enumerate(pivots):
            N[c, j] = -R[t][f] % p
    return pivots, N, R


def gauss_jordan_cases(p, seed):
    """Matrices mod p with the cases a kernel must survive: no rows, rank 0,
    full rank, zero columns, entries near p and rows that are combinations of
    earlier rows."""
    rng = SplitMix64(seed)
    cases = [np.zeros((0, 5), dtype=np.int64), np.zeros((4, 6), dtype=np.int64),
             np.zeros((3, 0), dtype=np.int64)]
    for _ in range(40):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 9)
        m = np.zeros((nrows, ncols), dtype=object)
        for i in range(nrows):
            if i >= 2 and rng.randint(0, 3) == 0:
                a, b = rng.randint(0, i - 1), rng.randint(0, i - 1)
                m[i] = (rng.randint(0, p - 1) * m[a] + rng.randint(0, p - 1) * m[b]) % p
                continue
            for c in range(ncols):
                if rng.randint(0, 2):
                    m[i, c] = rng.randint(p - 3, p - 1) if rng.randint(0, 3) == 0 \
                        else rng.randint(1, p - 1)
        cases.append(m.astype(np.int64))
    return cases


@pytest.mark.parametrize("p", [97, TENSOR_PRIME, DEFAULT_PRIME, 2])
def test_echelon_nullspace_against_gauss_jordan(p):
    # the rank, the pivot columns, the reduced echelon form and the kernel basis
    # with the identity on the free columns are unique, so the int64 lane must
    # give the reference's exactly, and leave U as it was
    kinds = set()
    for m in gauss_jordan_cases(p, 0x6A55 + p):
        pivots, want, R = gauss_jordan_kernel(m, p)
        U, piv = echelon_mod_p(m, p)
        before = U.copy()
        got = echelon_nullspace(U, piv, p)
        assert piv == pivots
        assert rank_mod_p(m, p) == len(pivots)
        assert U.dtype == np.int64 and U.tolist() == R
        assert got.dtype == np.int64 and got.shape == want.shape
        assert got.tolist() == want.tolist()
        assert np.array_equal(U, before)
        assert np.array_equal(nullspace_mod_p(m, p), got)
        assert not ((m.astype(object) @ want) % p).any()
        kinds.add((m.shape[0] > 0, len(piv) == 0, len(piv) == min(m.shape)))
    # 0-row matrices, rank 0 with rows, full rank with rows, and rank-deficient
    assert {(False, True, True), (True, True, False), (True, False, True),
            (True, False, False)} <= kinds


def test_echelon_nullspace_takes_any_echelon_form_with_unit_pivots():
    # an echelon form that is not reduced, with rows of it scaled and added to
    # the rows above, gives the kernel of its reduced form
    p = 97
    for m in gauss_jordan_cases(p, 0xEC40):
        _, want, _ = gauss_jordan_kernel(m, p)
        U, piv = echelon_mod_p(m, p)
        for t in range(len(piv) - 1, 0, -1):
            U[:t] = (U[:t] + np.arange(1, t + 1)[:, None] * U[t]) % p
        assert echelon_nullspace(U, piv, p).tolist() == want.tolist()


@pytest.mark.parametrize("p", [2, TENSOR_PRIME, DEFAULT_PRIME])
@pytest.mark.parametrize("nrows,ncols,per_row", [(40, 90, 4), (120, 150, 6)])
def test_int64_lane_against_gauss_jordan_on_sparse_rows(p, nrows, ncols, per_row):
    # the tower's few-percent density, and rows that combine earlier ones,
    # against the reference, dense and in the natural row order; every output
    # must be the same again with the rows shuffled
    rng = SplitMix64(0x5A5E + nrows)
    m = rows_to_dense(sparse_tower_rows(rng, nrows, ncols, per_row), ncols, p)
    assert 0.01 <= np.count_nonzero(m) / m.size <= 0.06
    pivots, want, R = gauss_jordan_kernel(m, p)
    assert len(pivots) < nrows
    outputs = []
    for shuffle in range(3):
        order = list(range(nrows))
        for i in range(nrows - 1, 0, -1):
            j = rng.randint(0, i)
            order[i], order[j] = order[j], order[i]
        a = m[order] if shuffle else m
        U, piv = echelon_mod_p(a, p)
        outputs.append((rank_mod_p(a, p), piv, U.tolist(), nullspace_mod_p(a, p).tolist()))
    assert outputs == [(len(pivots), pivots, R, want.tolist())] * 3


@pytest.mark.parametrize("p", [97, TENSOR_PRIME, TENSOR_RETRY_PRIME])
def test_sparse_rows_against_dense_and_gauss_jordan(p):
    # the entry points the Koszul tower calls, on rows {col: residue}, give the
    # reference's rank, reduced echelon form and kernel basis, as the dense
    # adapters do, and leave their input as it was: on empty input, zero rows,
    # full column rank, and free columns past the last entry
    rng = SplitMix64(0x5BA5 + p)
    cases = [([], 0), ([], 5), ([{}, {}], 4)]
    for nrows, ncols, per_row, trailing in [(30, 40, 3, 6), (60, 50, 4, 0), (40, 8, 3, 0),
                                            (25, 80, 2, 3)]:
        rows = [{c: r for c, v in row.items() if (r := v % p)}
                for row in sparse_tower_rows(rng, nrows, ncols, per_row)]
        cases.append((rows[:nrows // 2] + [{}] + rows[nrows // 2:], ncols + trailing))
    kinds = set()
    for rows, ncols in cases:
        before = [dict(row) for row in rows]
        m = rows_to_dense(rows, ncols, p)
        pivots, want, R = gauss_jordan_kernel(m, p)
        echelon = echelon_rows_mod_p(rows, ncols, p)
        kernel = nullspace_rows_mod_p(rows, ncols, p)
        assert sorted(echelon) == pivots
        assert [echelon[lead] for lead in pivots] == \
            [{c: x for c, x in enumerate(R[t]) if x} for t in range(len(pivots))]
        assert rank_rows_mod_p(rows, ncols, p) == len(pivots)
        assert kernel == kernel_rows_mod_p(echelon, ncols, p)
        assert [[vec.get(c, 0) for vec in kernel] for c in range(ncols)] == want.tolist()
        assert rows == before
        U, piv = echelon_mod_p(m, p)
        assert (piv, U[: len(piv)].tolist()) == (pivots, R[: len(pivots)])
        assert rank_mod_p(m, p) == len(pivots)
        assert nullspace_mod_p(m, p).tolist() == echelon_nullspace(U, piv, p).tolist() \
            == want.tolist()
        kinds.add((bool(rows), len(pivots) == ncols, ncols - max(pivots, default=-1) > 1))
    # no rows, full column rank, and free columns after the last pivot
    assert {(False, True, False), (True, True, False), (True, False, True)} <= kinds


def object_matmul_case(p, inner, seed=0xBEEF):
    rng = SplitMix64(seed)
    a = np.array([[rng.randint(0, p - 1) for _ in range(inner)] for _ in range(5)], dtype=object)
    b = np.array([[rng.randint(0, p - 1) for _ in range(4)] for _ in range(inner)],
                 dtype=object).reshape(inner, 4)
    return a, b, (a @ b) % p


@pytest.mark.parametrize("p,inner", [(TENSOR_PRIME, 7), (DEFAULT_PRIME, 7), (DEFAULT_PRIME, 9)])
def test_mod_matmul_against_object_reference(p, inner):
    # at DEFAULT_PRIME an int64 sum holds only two products, so an inner size
    # of 7 or 9 takes four or five reductions
    a, b, want = object_matmul_case(p, inner)
    got = mod_matmul(a.astype(np.int64), b.astype(np.int64), p)
    assert got.dtype == np.int64
    assert got.tolist() == want.astype(int).tolist()


def test_mod_matmul_rejects_oversized_modulus():
    big = (1 << 42) + 15  # squares overflow int64: must refuse, not corrupt
    a = np.full((40, 40), big - 1, dtype=np.int64)
    with pytest.raises(UsageError):
        mod_matmul(a, a, big)


def test_mod_matmul_rejects_mismatched_shapes():
    a = np.zeros((3, 4), dtype=np.int64)
    with pytest.raises(UsageError, match="shape mismatch"):
        mod_matmul(a, a, TENSOR_PRIME)


@pytest.mark.parametrize("inner", [0, 1, 3, 4, 10])
def test_mod_matmul_reduces_at_every_chunk(monkeypatch, inner):
    # a chunk width of 3 splits the inner products into several int64 products,
    # a partial last chunk included
    monkeypatch.setattr(exactla, "_chunk", lambda p: 3)
    a, b, want = object_matmul_case(TENSOR_PRIME, inner)
    got = mod_matmul(a.astype(np.int64), b.astype(np.int64), TENSOR_PRIME)
    assert got.shape == (5, 4)
    assert got.tolist() == want.astype(int).tolist()


def test_mod_matmul_at_the_int64_bound():
    # every entry at p-1 or p-2: the inner product is two full chunks of
    # _chunk(p) near-maximal products, each sum as close to 2^63 as allowed
    # on top of a residue, and one term more
    p = DEFAULT_PRIME
    inner = 2 * exactla._chunk(p) + 1
    assert inner == 5
    a = np.full((2, inner), p - 1, dtype=np.int64)
    a[1] = p - 2
    b = a.T.copy()
    want = (a.astype(object) @ b.astype(object)) % p
    assert mod_matmul(a, b, p).tolist() == want.tolist()


def test_rank_of_zero_and_identity():
    z = [{} for _ in range(3)]
    assert rank_sparse_rational(z) == (0, False)
    eye = to_sparse(np.eye(4, dtype=int).tolist())
    assert rank_sparse_rational(eye) == (4, False)
    assert rank_sparse_rational(eye, 2) == (4, True)
    assert bareiss_rank(np.eye(4, dtype=int).tolist()) == 4


def random_sparse_rows(rng, nrows, ncols):
    """Sparse integer rows with the cases elimination must survive: zero rows,
    duplicates, integer combinations of earlier rows, negative entries and
    entries of 2^31 and more."""
    rows = []
    for _ in range(nrows):
        kind = rng.randint(0, 5) if rows else 0
        if kind == 1:
            row = {}
        elif kind == 2:
            row = dict(rows[rng.randint(0, len(rows) - 1)])
        elif kind == 3:
            x, y = rows[rng.randint(0, len(rows) - 1)], rows[rng.randint(0, len(rows) - 1)]
            c1, c2 = rng.nonzero_int(3), rng.nonzero_int(3)
            row = {c: c1 * x.get(c, 0) + c2 * y.get(c, 0) for c in set(x) | set(y)}
            row = {c: v for c, v in row.items() if v}
        else:
            row = {}
            for c in range(ncols):
                if rng.randint(0, 2) == 0:
                    big = rng.randint(0, 3) == 0
                    row[c] = rng.nonzero_int((1 << 40) if big else 5)
                    if big and abs(row[c]) < 1 << 31:
                        row[c] += (1 << 31) if row[c] > 0 else -(1 << 31)
        rows.append(row)
    return rows


@pytest.mark.parametrize("seed", range(8))
def test_sparse_ranks_against_dense_references(seed):
    # Bareiss is the independent reference over Q for the sparse lane
    rng = SplitMix64(0x5EED + seed)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 10)
        rows = random_sparse_rows(rng, nrows, ncols)
        before = [dict(r) for r in rows]
        dense = [[r.get(c, 0) for c in range(ncols)] for r in rows]
        assert rank_sparse_rational(rows)[0] == bareiss_rank(dense)
        assert rows == before  # the caller's rows are left as they were


@pytest.mark.parametrize("seed", range(4))
def test_vanished_rows_are_the_dependent_ones(seed):
    # row i vanishes exactly when it adds no rank to the rows before it
    rng = SplitMix64(0xFA11 + seed)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 10)
        rows = random_sparse_rows(rng, nrows, ncols)
        dense = [[r.get(c, 0) for c in range(ncols)] for r in rows]
        pivots, vanished = sparse_echelon(rows)
        assert len(pivots) + len(vanished) == nrows
        assert vanished == [i for i in range(nrows)
                            if bareiss_rank(dense[:i + 1]) == bareiss_rank(dense[:i])]


@pytest.mark.parametrize("p", [2, 97, DEFAULT_PRIME])
def test_rank_mod_p_can_fall_below_rank_over_q(p):
    rows = [{0: 1, 1: 1}, {0: 1, 1: 1 + p}]
    assert rank_sparse_rational(rows, p) == (2, False)  # not certified at p
    assert rank_mod_p(rows_to_dense(rows, 2, p), p) == 1


def test_explicit_zero_entries_are_not_pivots():
    for rows in ([{0: 0}], [{0: 0, 1: 0}, {1: 0, 2: 3}], [{2: 0, 1: 2}, {1: 4}]):
        ncols = max(max(row) for row in rows) + 1
        dense = rank_mod_p(rows_to_dense(rows, ncols, DEFAULT_PRIME), DEFAULT_PRIME)
        assert rank_sparse_rational(rows)[0] == dense
    assert rank_sparse_rational([{0: 0}]) == (0, False)
    assert rank_sparse_rational([{0: 0, 1: 0}, {1: 0, 2: 3}], 5) == (1, True)


def test_a_factor_p_is_left_in_and_fails_the_certificate():
    # content 14 = 2 * 7: over Z the 7 is stripped, the 2 stays when p = 2
    assert sparse_echelon([{0: 14, 1: 28}]) == ({0: {0: 1, 1: 2}}, [])
    assert sparse_echelon([{0: 14, 1: 28}], 2) == ({0: {0: 2, 1: 4}}, [])
    assert rank_sparse_rational([{0: 14, 1: 28}], 2) == (1, False)
    assert rank_sparse_rational([{0: 14, 1: 28}], 7) == (1, False)
    assert rank_sparse_rational([{0: 14, 1: 28}], 3) == (1, True)


def multiples_heavy_rows(rng, q, nrows, ncols):
    """Sparse integer rows in which about half the entries are multiples of q,
    together with sums of two earlier rows, so that elimination meets leads and
    contents divisible by q."""
    rows = []
    for _ in range(nrows):
        if len(rows) >= 2 and rng.randint(0, 3) == 0:
            x, y = rows[rng.randint(0, len(rows) - 1)], rows[rng.randint(0, len(rows) - 1)]
            c1, c2 = rng.nonzero_int(q), rng.nonzero_int(q)
            row = {c: c1 * x.get(c, 0) + c2 * y.get(c, 0) for c in set(x) | set(y)}
        else:
            row = {}
            for c in range(ncols):
                if rng.randint(0, 2) == 0:
                    v = rng.nonzero_int(4)
                    row[c] = v * q if rng.randint(0, 1) else v
        rows.append({c: v for c, v in row.items() if v})
    return rows


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_certified_rank_over_q_is_the_rank_mod_q(q):
    # the certificate is one-sided: when it holds the ranks agree, when it
    # fails they may or may not
    rng = SplitMix64(0xCE27 + q)
    outcomes = set()
    for _ in range(200):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 7)
        rows = multiples_heavy_rows(rng, q, nrows, ncols)
        rank, lucky = rank_sparse_rational(rows, q)
        assert rank == rank_sparse_rational(rows)[0]
        rank_q = rank_mod_p(rows_to_dense(rows, ncols, q), q)
        if lucky:
            assert rank == rank_q
        outcomes.add((lucky, rank == rank_q))
    # certified, failed with the ranks apart, and failed with the ranks equal
    assert outcomes == {(True, True), (False, False), (False, True)}
