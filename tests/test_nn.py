import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aoplan import NeighborIndex, UsageError, knn_lists, radius_pairs
from aoplan.nn import _pair_distances, distance, row_distances

SRC = Path(__file__).resolve().parent.parent / "src" / "aoplan"


def linear_scan(points, q, k=None, radius=None):
    """Independent reference in python arithmetic: the k nearest by (distance, id), a ball by id.

    Squares are products: CPython's `x ** 2` calls pow, which can round
    differently from `x * x`.
    """
    scored = []
    for pid, p in points:
        d = math.sqrt(sum((a - b) * (a - b) for a, b in zip(p, q)))
        scored.append((d, pid))
    scored.sort()
    if radius is not None:
        return sorted((pid, d) for d, pid in scored if d <= radius)
    return [(pid, d) for d, pid in scored[:k]]


def test_insert_then_query_self():
    idx = NeighborIndex(2)
    idx.insert(0, (0.0, 0.0))
    idx.insert(1, (0.25, 0.5))
    ids, dists = idx.k_nearest((0.25, 0.5), 1)
    assert ids.tolist() == [1] and dists.tolist() == [0.0]
    assert idx.nearest_id((0.25, 0.5)) == 1


def test_two_inserts_sorted_by_distance():
    idx = NeighborIndex(2)
    idx.insert(0, (0.0, 0.0))
    idx.insert(1, (1.0, 0.0))
    ids, dists = idx.k_nearest((0.9, 0.0), 2)
    assert ids.tolist() == [1, 0]
    assert dists[0] == pytest.approx(0.1)
    assert dists[1] == pytest.approx(0.9)


def test_duplicate_id_rejected():
    idx = NeighborIndex(2)
    idx.insert(0, (0.0, 0.0))
    with pytest.raises(UsageError):
        idx.insert(0, (1.0, 1.0))


def test_insert_must_take_the_next_position():
    idx = NeighborIndex(2)
    with pytest.raises(UsageError):
        idx.insert(3, (0.0, 0.0))
    idx.insert(0, (0.0, 0.0))
    with pytest.raises(UsageError):
        idx.insert(2, (1.0, 1.0))
    assert len(idx) == 1


@pytest.mark.parametrize("q", [(0.0, 0.0, 0.0), 0.5, np.zeros((2, 1)), ((0.0,), (1.0,))],
                         ids=["wrong-length", "scalar", "column", "nested"])
def test_insert_rejects_a_point_of_the_wrong_shape(q):
    idx = NeighborIndex(2)
    with pytest.raises(UsageError):
        idx.insert(0, q)
    assert len(idx) == 0
    idx.insert(0, np.array([0.25, 0.5]))
    idx.insert(1, (1, 2))
    assert idx.points.tolist() == [[0.25, 0.5], [1.0, 2.0]]


def test_k_larger_than_size_returns_all():
    idx = NeighborIndex(1)
    for i, x in enumerate([0.1, 0.2, 0.3]):
        idx.insert(i, (x,))
    ids, dists = idx.k_nearest((0.0,), 10)
    assert ids.tolist() == [0, 1, 2] and len(dists) == 3


def test_three_point_example():
    idx = NeighborIndex(2)
    for i, p in enumerate([(0, 0), (1, 0), (2, 0)]):
        idx.insert(i, p)
    ids, _ = idx.k_nearest((0.9, 0), 2)
    assert ids.tolist() == [1, 0]


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
    # ids 0, 2 and 3 tie at distance 1 around the nearer id 1
    idx = NeighborIndex(2)
    for i, p in enumerate([(1.0, 0.0), (0.5, 0.0), (1.0, 0.0), (0.0, 1.0)]):
        idx.insert(i, p)
    ids, dists = idx.k_nearest((0.0, 0.0), 3)
    assert ids.tolist() == [1, 0, 2] and dists.tolist() == [0.5, 1.0, 1.0]
    got_r, dists_r = idx.within_radius((0.0, 0.0), 2.0)
    assert got_r.tolist() == [0, 1, 2, 3] and dists_r.tolist() == [1.0, 0.5, 1.0, 1.0]
    assert idx.nearest_id((1.0, 0.0)) == 0


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
            got, _ = idx.k_nearest(q, k)
            want = linear_scan(items, tuple(q), k=k)
            assert got.tolist() == [i for i, _ in want]
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
# 40 points on 3 sites, inserted in turn: an unstable argsort reorders the ties
@example(pts=[((0.25, 0.25), (0.5, 0.5), (0.75, 0.75))[i % 3] for i in range(40)],
         q=(0.0, 0.0), r1=0.4, r2=2.0)
def test_radius_monotone_and_knn_permutation(pts, q, r1, r2):
    idx = NeighborIndex(2)
    items = list(enumerate(pts))
    for i, p in items:
        idx.insert(i, p)
    small = set(idx.within_radius(q, min(r1, r2))[0].tolist())
    large = set(idx.within_radius(q, max(r1, r2))[0].tolist())
    assert small <= large
    ids, dists = idx.k_nearest(q, len(pts))
    assert sorted(ids.tolist()) == list(range(len(pts)))
    assert dists.tolist() == sorted(dists.tolist())
    assert list(zip(ids.tolist(), dists.tolist())) == linear_scan(items, q, k=len(pts))
    for r in (r1, r2):
        ids, dists = idx.within_radius(q, r)
        assert list(zip(ids.tolist(), dists.tolist())) == linear_scan(items, q, radius=r)


# --- the distance kernel -------------------------------------------------------


def left_to_right(points, q):
    """Reference: per row, squares of the column differences summed left to right."""
    out = []
    for p in points.tolist():
        acc = 0.0
        for a, b in zip(p, q.tolist()):
            acc += (a - b) * (a - b)
        out.append(math.sqrt(acc))
    return np.array(out)


@pytest.mark.parametrize("d", range(1, 7))
def test_row_distances_sum_columns_left_to_right_in_any_layout(d):
    rng = np.random.default_rng(d)
    wide = rng.uniform(-3.0, 3.0, (400, d + 2))
    q = rng.uniform(-3.0, 3.0, d)
    layouts = {
        "C": np.ascontiguousarray(wide[:, :d]),
        "F": np.asfortranarray(wide[:, :d]),
        "column slice": wide[:, :d],
    }
    for name, points in layouts.items():
        assert row_distances(points, q).tobytes() == left_to_right(points, q).tobytes(), name
    if d <= 2:
        diff = layouts["C"] - q
        want = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        for name, points in layouts.items():
            assert row_distances(points, q).tobytes() == want.tobytes(), name


@pytest.mark.parametrize("d", range(1, 7))
def test_pair_distances_equal_row_distances(d):
    rng = np.random.default_rng(10 + d)
    points = rng.random((60, d))
    i = rng.integers(0, 60, 500)
    j = rng.integers(0, 60, 500)
    got = _pair_distances(points, i, j)
    for m in range(500):
        assert got[m] == row_distances(points[[j[m]]], points[i[m]])[0]


def test_row_distances_leave_their_inputs_alone():
    points = np.array([[0.0, 0.0], [3.0, 4.0]])
    q = np.array([0.0, 0.0])
    assert row_distances(points, q).tolist() == [0.0, 5.0]
    assert points.tolist() == [[0.0, 0.0], [3.0, 4.0]] and q.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("d", range(1, 7))
def test_distance_is_the_scalar_form_of_row_distances(d):
    rng = np.random.default_rng(20 + d)
    points = rng.uniform(-3.0, 3.0, (400, d)) * rng.choice([1e-3, 1.0, 1e3], size=(400, d))
    q = rng.uniform(-3.0, 3.0, d)
    got = [distance(p, q.tolist()) for p in points.tolist()]
    assert got == row_distances(points, q).tolist() == left_to_right(points, q).tolist()


def _banned(name: str) -> bool:
    """Whether a dotted name is a product or length computed outside the kernel."""
    last = name.rsplit(".", 1)[-1]
    return (last in ("vecdot", "einsum", "dot") or name.endswith("linalg.norm")
            or name in ("math.hypot", "math.dist"))


def _squared(node) -> bool:
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.right, ast.Constant) and node.right.value == 2)


def _dotted(node) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return "?"


def other_length_kernels(source: str, matmul_in=()) -> list:
    """Code lines that take np.linalg.norm, vecdot, einsum, a dot, math.hypot, math.dist or
    a sum of `** 2` squares, or an @ outside the classes named in matmul_in; comments and
    docstrings are not code."""
    tree = ast.parse(source)
    allowed = {id(node) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) and cls.name in matmul_in
               for node in ast.walk(cls)}
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            hit = id(node) not in allowed
        elif isinstance(node, ast.Attribute):
            hit = _banned(_dotted(node))
        elif isinstance(node, ast.ImportFrom):
            hit = any(_banned(f"{node.module}.{alias.name}") for alias in node.names)
        elif isinstance(node, ast.Call) and _dotted(node.func).endswith("sum"):
            # (x ** 2).sum(...), np.sum(x ** 2) or sum(x ** 2)
            hit = any(map(_squared, [getattr(node.func, "value", None), *node.args]))
        else:
            hit = False
        if hit:
            lines.add(node.lineno)
    return sorted(lines)


def test_every_length_in_the_package_takes_the_kernel():
    # the int64 cell keys of nn._Grid are the only matrix products
    found = {path.name: other_length_kernels(path.read_text(), ("_Grid",) * (path.name == "nn.py"))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the scan itself: code is flagged, comments, docstrings and decorators are not
    assert other_length_kernels('"""np.linalg.norm(x), x @ y"""\n# np.dot(x, y)\n') == []
    code = ("n = np.linalg.norm(x)\nv = np.vecdot(x, x)\ne = np.einsum('i,i', x, x)\n"
            "d = x.dot(y)\nh = math.hypot(1, 2)\nfrom math import dist\n"
            "@dataclass\nclass _Grid:\n    k = x @ y\n"
            "s = ((x - y) ** 2).sum(axis=1)\nt = np.sum(x ** 2)\nu = x ** 2 + y.sum()\n")
    assert other_length_kernels(code) == [1, 2, 3, 4, 5, 6, 9, 10, 11]
    assert other_length_kernels(code, ("_Grid",)) == [1, 2, 3, 4, 5, 6, 10, 11]


# --- batch sweeps against the index ------------------------------------------


def _index_over(points):
    idx = NeighborIndex(points.shape[1])
    for i, p in enumerate(points):
        idx.insert(i, p)
    return idx


def index_radius_pairs(points, r):
    """Oracle: pairs (v, u), v < u, from one within_radius query per row."""
    idx = _index_over(points)
    return sorted((v, u) for v, p in enumerate(points)
                  for u in idx.within_radius(p, r)[0].tolist() if u > v)


def index_knn_lists(points, k):
    """Oracle: each row's k-list as the roadmap planner built it from the index."""
    idx = _index_over(points)
    return [(v, u) for v, p in enumerate(points)
            for u in [u for u in idx.k_nearest(p, k + 1)[0].tolist() if u != v][:k]]


def assert_sweeps_match_index(points, r, k):
    src, dst = radius_pairs(points, r)
    assert sorted(zip(src.tolist(), dst.tolist())) == index_radius_pairs(points, r)
    src, dst = knn_lists(points, k)
    assert list(zip(src.tolist(), dst.tolist())) == index_knn_lists(points, k)


@st.composite
def sweep_cases(draw):
    """(points, r, k) in d = 1..4, often with ties, cell-face points or outliers."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 50))
    kind = draw(st.sampled_from(["uniform", "lattice", "duplicates", "cluster"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    r = draw(st.floats(1e-3, 1.5))
    if kind == "uniform":
        points = rng.random((n, d))
    elif kind == "lattice":
        # coordinates are multiples of the radius, so points sit on cell faces
        points = rng.integers(-3, 4, (n, d)) * r + draw(st.sampled_from([0.0, 0.5, 7.0]))
    elif kind == "duplicates":
        pool = rng.random((draw(st.integers(1, 4)), d))
        points = pool[rng.integers(0, pool.shape[0], n)]
    else:
        # a tight cluster plus far outliers: the outliers' k-lists need retries
        points = np.vstack([0.5 + 1e-6 * rng.random((n, d)),
                            rng.uniform(-50.0, 50.0, (draw(st.integers(1, 3)), d))])
    if draw(st.booleans()) and points.shape[0] > 1:
        # the radius is exactly one pair's distance
        i, j = rng.choice(points.shape[0], 2, replace=False)
        exact = float(row_distances(points[[j]], points[i])[0])
        r = exact if exact > 0.0 else r
    k = draw(st.integers(1, points.shape[0] + 2))  # k + 1 >= nv is included
    return points, r, k


@settings(max_examples=300, deadline=None)
@given(case=sweep_cases())
@example(case=(np.arange(12, dtype=float).reshape(6, 2) * 0.1, 0.1, 3))
@example(case=(np.array([[0.3], [0.4], [0.2], [0.3], [0.5]]), 0.1, 2))
def test_sweeps_match_index(case):
    assert_sweeps_match_index(*case)


def knn_lists_and_lexsorts(points, k, monkeypatch):
    """knn_lists(points, k) as (src, dst) pairs, and how many lexsorts it ran."""
    calls = []
    lexsort = np.lexsort

    def counted(keys):
        calls.append(keys)
        return lexsort(keys)

    with monkeypatch.context() as m:
        m.setattr(np, "lexsort", counted)
        src, dst = knn_lists(points, k)
    return list(zip(src.tolist(), dst.tolist())), len(calls)


def test_knn_lists_tie_fallback_matches_index(monkeypatch):
    # equal distances come out of the rank key in no set order, so parts
    # with ties out of id order are re-sorted by the three-key lexsort; the
    # reversed lattice gives ids against the sweep's cell order, so even a
    # stable argsort leaves its ties out of id order
    lattice = np.array([(x, y) for x in range(5) for y in range(5)]) * 0.1
    rng = np.random.default_rng(4)
    duplicates = rng.random((10, 2))[rng.integers(0, 10, 300)]
    lexsorts = 0
    for points, k in ((lattice, 4), (lattice[::-1], 4), (duplicates, 20)):
        pairs, runs = knn_lists_and_lexsorts(points, k, monkeypatch)
        assert pairs == index_knn_lists(points, k)
        lexsorts += runs
    assert lexsorts > 0


def test_knn_lists_ranks_uniform_points_without_lexsort(monkeypatch):
    points = np.random.default_rng(6).random((1500, 2))
    pairs, lexsorts = knn_lists_and_lexsorts(points, 10, monkeypatch)
    assert lexsorts == 0
    assert pairs == index_knn_lists(points, 10)


def test_sweeps_keep_pairs_at_a_tiny_radius_in_d4():
    # 1e6 cells per axis would overflow an int64 key in four dimensions
    rng = np.random.default_rng(3)
    base = rng.random((150, 4))
    near = base[:50] + rng.uniform(-4e-7, 4e-7, (50, 4))
    points = np.vstack([base, near, base[:5]])
    src, dst = radius_pairs(points, 1e-6)
    # each near point with its base point, each copy with its base point,
    # and for the first five both with each other
    assert len(src) == 50 + 5 + 5
    assert_sweeps_match_index(points, 1e-6, 4)


def test_sweeps_on_few_points_and_bad_arguments():
    one = np.array([[0.5, 0.5]])
    assert [a.tolist() for a in radius_pairs(one, 0.1)] == [[], []]
    assert [a.tolist() for a in knn_lists(one, 3)] == [[], []]
    three = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert_sweeps_match_index(three, 1.0, 5)
    with pytest.raises(UsageError):
        radius_pairs(three, 0.0)
    with pytest.raises(UsageError):
        knn_lists(three, 0)
