"""Dual dimension towers: iterative intersections against the inverted
series, the stacked cross-check, and the element budget guard.
"""

import pytest

import psiring.koszul as koszul
from psiring.errors import BudgetError
from psiring.fields import TENSOR_PRIME, TENSOR_RETRY_PRIMES
from psiring.koszul import (
    b2_structural,
    dual_dimension_stacked,
    dual_tower,
    koszul_prediction,
    koszul_summary,
    relation_space_matrices,
)
from psiring.presentation import CUSTOM, PivotScheme


def test_prediction_rows_frozen():
    assert koszul_prediction(4, 5) == [1, 8, 34, 112, 341, 1024]
    assert koszul_prediction(5, 5) == [1, 15, 125, 795, 4395, 22461]


def test_prediction_head_is_structural():
    for n in range(3, 9):
        pred = koszul_prediction(n, 2)
        assert pred[0] == 1
        assert pred[1] == n * (n - 2)
        assert pred[2] == b2_structural(n)


def test_three_points_dual_is_exterior():
    # no relations: the dual of the free-commutative ring on 3 variables
    assert dual_tower(3, 5) == [1, 3, 3, 1, 0, 0]


def test_relation_space_shapes():
    N2, C, v = relation_space_matrices(4)
    assert v == 8
    assert N2.shape == (34, 64)
    assert C.shape == (64 - 34, 64)
    assert N2.shape[1] == C.shape[1] == v * v


@pytest.mark.parametrize("n,kmax", [(4, 4), (5, 3)])
def test_tower_matches_prediction(n, kmax):
    assert dual_tower(n, kmax) == koszul_prediction(n, kmax)


@pytest.mark.parametrize("n,k", [(3, 3), (4, 3)])
def test_stacked_route_agrees(n, k):
    assert dual_dimension_stacked(n, k) == dual_tower(n, k)[k]


def test_budget_refusal_carries_estimate():
    with pytest.raises(BudgetError) as exc:
        dual_tower(4, 6, budget=200_000_000)
    assert exc.value.estimate > exc.value.budget
    # a generous budget also refuses n=5, k=4 under the default
    with pytest.raises(BudgetError):
        dual_tower(5, 4)


def test_budget_zero_refuses_the_first_real_stage():
    # stages up to k=2 come from the relation space itself; k=3 is the
    # first one that multiplies matrices, and must check first
    assert dual_tower(4, 2, budget=0) == [1, 8, 34]
    with pytest.raises(BudgetError):
        dual_tower(4, 3, budget=0)


def test_retry_prime_reproduces_tower():
    for q in TENSOR_RETRY_PRIMES:
        assert dual_tower(4, 3, prime=q) == dual_tower(4, 3, prime=TENSOR_PRIME)


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
    assert [q for q, _ in seen] == list(s.primes) == [TENSOR_PRIME, TENSOR_RETRY_PRIMES[0]]
    assert all(piv == pivot for _, piv in seen)
    assert [st.dual_dim for st in s.stages] == [1, 8, 34, 112]
