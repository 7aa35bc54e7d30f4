import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aoplan import NeighborIndex, UsageError


def linear_scan(points, q, k=None, radius=None):
    """Independent reference: python arithmetic, sort by (distance, id)."""
    scored = []
    for pid, p in points:
        d = math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))
        scored.append((d, pid))
    scored.sort()
    if radius is not None:
        return [(pid, d) for d, pid in scored if d <= radius]
    return [(pid, d) for d, pid in scored[:k]]


def test_insert_then_query_self():
    idx = NeighborIndex(2)
    idx.insert(7, (0.25, 0.5))
    assert idx.k_nearest((0.25, 0.5), 1) == [(7, 0.0)]


def test_two_inserts_sorted_by_distance():
    idx = NeighborIndex(2)
    idx.insert(0, (0.0, 0.0))
    idx.insert(1, (1.0, 0.0))
    got = idx.k_nearest((0.9, 0.0), 2)
    assert [i for i, _ in got] == [1, 0]
    assert got[0][1] == pytest.approx(0.1)
    assert got[1][1] == pytest.approx(0.9)


def test_duplicate_id_rejected():
    idx = NeighborIndex(2)
    idx.insert(0, (0.0, 0.0))
    with pytest.raises(UsageError):
        idx.insert(0, (1.0, 1.0))


def test_k_larger_than_size_returns_all():
    idx = NeighborIndex(1)
    for i, x in enumerate([0.1, 0.2, 0.3]):
        idx.insert(i, (x,))
    assert len(idx.k_nearest((0.0,), 10)) == 3


def test_three_point_example():
    idx = NeighborIndex(2)
    for i, p in enumerate([(0, 0), (1, 0), (2, 0)]):
        idx.insert(i, p)
    got = idx.k_nearest((0.9, 0), 2)
    assert [i for i, _ in got] == [1, 0]


def test_within_radius_closed_ball():
    idx = NeighborIndex(2)
    idx.insert(0, (0.0, 0.0))
    idx.insert(1, (1.0, 0.0))
    assert idx.within_radius((0.0, 0.0), 0.5)[0].tolist() == [0]
    # boundary inclusion: distance exactly 1.0 is inside
    assert idx.within_radius((0.0, 0.0), 1.0)[0].tolist() == [0, 1]


def test_empty_index_and_bad_radius():
    idx = NeighborIndex(2)
    with pytest.raises(UsageError):
        idx.k_nearest((0, 0), 1)
    idx.insert(0, (0, 0))
    with pytest.raises(UsageError):
        idx.within_radius((0, 0), 0.0)
    with pytest.raises(UsageError):
        idx.k_nearest((0, 0), 0)


def test_tie_break_by_lower_id():
    idx = NeighborIndex(2)
    idx.insert(5, (1.0, 0.0))
    idx.insert(2, (1.0, 0.0))
    idx.insert(9, (1.0, 0.0))
    got = idx.k_nearest((0.0, 0.0), 3)
    assert [i for i, _ in got] == [2, 5, 9]
    got_r, _ = idx.within_radius((0.0, 0.0), 2.0)
    assert got_r.tolist() == [2, 5, 9]


def test_matches_linear_scan_on_random_points():
    rng = np.random.default_rng(42)
    pts = rng.random((1000, 2))
    idx = NeighborIndex(2)
    items = []
    for i, p in enumerate(pts):
        idx.insert(i, p)
        items.append((i, tuple(p)))
    queries = rng.random((100, 2))
    for q in queries:
        for k in (1, 8, 32):
            got = idx.k_nearest(q, k)
            want = linear_scan(items, tuple(q), k=k)
            assert [i for i, _ in got] == [i for i, _ in want]
        for r in (0.05, 0.2):
            got, _ = idx.within_radius(q, r)
            want = linear_scan(items, tuple(q), radius=r)
            assert got.tolist() == [i for i, _ in want]


@settings(max_examples=50, deadline=None)
@given(
    pts=st.lists(
        st.tuples(st.floats(0, 1, width=32), st.floats(0, 1, width=32)),
        min_size=1, max_size=40,
    ),
    q=st.tuples(st.floats(0, 1, width=32), st.floats(0, 1, width=32)),
    r1=st.floats(0.01, 0.5),
    r2=st.floats(0.5, 2.0),
)
def test_radius_monotone_and_knn_permutation(pts, q, r1, r2):
    idx = NeighborIndex(2)
    for i, p in enumerate(pts):
        idx.insert(i, p)
    small = set(idx.within_radius(q, min(r1, r2))[0].tolist())
    large = set(idx.within_radius(q, max(r1, r2))[0].tolist())
    assert small <= large
    allk = idx.k_nearest(q, len(pts))
    assert sorted(i for i, _ in allk) == list(range(len(pts)))
    dists = [d for _, d in allk]
    assert dists == sorted(dists)
