"""Deterministic RNG stream and the in-order map."""

import threading

import pytest

from psiring.errors import UsageError
from psiring.rng import SplitMix64
from psiring.util import parallel_map

# stream head frozen so that seeded runs stay reproducible across edits
STREAM_HEAD = [
    18153884239649349252,
    7867352831210254624,
    8768078981057530224,
    11554749275780519493,
]


def test_stream_head_frozen():
    r = SplitMix64(20260819)
    assert [r.next_u64() for _ in range(4)] == STREAM_HEAD


def test_randint_bounds_and_determinism():
    a = SplitMix64(5)
    b = SplitMix64(5)
    xs = [a.randint(-7, 7) for _ in range(200)]
    assert xs == [b.randint(-7, 7) for _ in range(200)]
    assert min(xs) >= -7 and max(xs) <= 7
    assert len(set(xs)) > 5  # actually spreads over the range


def test_randint_refuses_spans_one_draw_cannot_cover():
    r = SplitMix64(3)
    with pytest.raises(UsageError):
        r.randint(1, 2**70)
    with pytest.raises(UsageError):
        r.randint(5, 4)
    assert 0 <= r.randint(0, 2**64 - 1) < 2**64


def test_distinct_and_nonzero_helpers():
    r = SplitMix64(11)
    vals = r.distinct_ints(10, -12, 12)
    assert len(vals) == len(set(vals)) == 10
    assert all(-12 <= v <= 12 for v in vals)
    assert all(r.nonzero_int(3) != 0 for _ in range(50))
    assert all(abs(r.nonzero_int(3)) <= 3 for _ in range(50))


def test_distinct_ints_refuses_a_range_too_small():
    r = SplitMix64(7)
    state = r.state
    with pytest.raises(UsageError, match=r"102 distinct integers from \[-50, 50\]"):
        r.distinct_ints(102, -50, 50)
    assert r.state == state  # refused before the first draw
    assert sorted(r.distinct_ints(101, -50, 50)) == list(range(-50, 51))


def test_parallel_map_preserves_order():
    items = list(range(40))
    want = [x * x for x in items]
    assert parallel_map(lambda x: x * x, items, threads=1) == want
    assert parallel_map(lambda x: x * x, items, threads=8) == want


def test_parallel_map_runs_in_calling_thread_in_order():
    calls = []

    def worker(x):
        calls.append((threading.get_ident(), x))
        return x

    parallel_map(worker, list(range(64)), threads=4)
    assert calls == [(threading.get_ident(), x) for x in range(64)]
