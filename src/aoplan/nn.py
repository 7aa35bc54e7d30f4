"""Exact nearest-neighbor search, and the one Euclidean length kernel.

Every float length in aoplan comes from one kernel, which squares the
differences one coordinate at a time, sums them left to right and takes
the square root: `row_distances(points, q)` for arrays (`_pair_distances`
for row pairs), `distance(p, q)` for two points of Python floats.  As
chains of elementwise IEEE operations (`geometry._rowdot` sums alike), all
round alike in every memory layout and on every BLAS or SIMD kernel.

`NeighborIndex` scans its points with the kernel, so its answers are the
linear-scan answers by construction.  A point's id is its insert position;
a ball query returns ids ascending, and `k_nearest` ranks by (distance,
id).  It is also the one column store of every tree: `SearchTree` is a
NeighborIndex whose points are its node configurations, so a tree answers
its own queries and keeps no second copy.  Single writer.  `radius_pairs`
and `knn_lists` answer the same queries for every point of a fixed set at
once, by one sweep over a uniform grid in the kernel's summation order, so
their answers equal the index's, ties and duplicate points included.  Each
sweep runs its rows in two halves on two threads, joined before it returns.
"""

from __future__ import annotations

import itertools
import math
import threading

import numpy as np

from .errors import UsageError


def _root_sum_squares(diffs):
    """sqrt of the sum of squares of fresh column-difference arrays, left to right."""
    diffs = iter(diffs)
    acc = next(diffs)
    acc *= acc
    for diff in diffs:
        diff *= diff
        acc += diff
    return np.sqrt(acc, out=acc)


def row_distances(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row of an (n, d) array to the point q."""
    return _root_sum_squares(points[:, c] - q[c] for c in range(points.shape[1]))


def distance(p, q) -> float:
    """Euclidean distance between two points given as sequences of floats, as `row_distances`."""
    acc = 0.0
    for x, y in zip(p, q):
        t = x - y
        acc += t * t
    return math.sqrt(acc)


def unit_ball_volume(d: int) -> float:
    """Volume of the Euclidean unit ball in d dimensions."""
    if d < 1:
        raise UsageError("dimension must be >= 1")
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


class NeighborIndex:
    """Exact linear-scan index in which a point's id is its insert position.

    Points are the columns of one (d, capacity) array, doubled when full.
    Queries return (ids, dists) arrays; only `k_nearest` sorts them.
    """

    def __init__(self, dimension: int, capacity: int = 64):
        if dimension < 1:
            raise UsageError("dimension must be >= 1")
        self.dimension = int(dimension)
        self._points = np.empty((self.dimension, max(1, capacity)))
        self._size = 0
        self._last = (None, None)  # (key, distances) of the last scan

    def __len__(self) -> int:
        return self._size

    def insert(self, id: int, q) -> None:
        """Store q as point `id`, which must be the next position, len(self)."""
        if id != self._size:
            raise UsageError(f"id {id} is not the next position {self._size}")
        if self._size == self._points.shape[1]:
            self._points = np.concatenate([self._points, np.empty_like(self._points)], axis=1)
        try:  # len and ndim: np.shape would copy a tuple into an array first
            if len(q) != self.dimension or getattr(q, "ndim", 1) != 1:
                raise ValueError
            self._points[:, self._size] = q
        except (TypeError, ValueError):  # a scalar, a wrong length, rows nested in q
            raise UsageError("point dimension mismatch") from None
        self._size += 1

    @property
    def points(self) -> np.ndarray:
        """(len, d) view of the stored points; fancy indexing copies C-ordered rows."""
        return self._points[:, : self._size].T

    def _distances(self, q) -> np.ndarray:
        """Read-only distances from q to every point.  The last scan is kept: points only
        grow, so a scan keyed on (size, q's shape and bytes) equals a fresh one."""
        if self._size == 0:
            raise UsageError("index is empty")
        q = np.asarray(q, dtype=float)
        key = (self._size, q.shape, q.tobytes())
        last, dists = self._last
        if last != key:
            dists = row_distances(self.points, q)
            dists.flags.writeable = False
            self._last = key, dists
        return dists

    def nearest_id(self, q) -> int:
        """The closest point's id; argmin's first minimum is the lowest tied id."""
        return int(self._distances(q).argmin())

    def k_nearest(self, q, k: int):
        """The min(k, size) closest points as (ids, dists) arrays in (distance, id) order."""
        if k < 1:
            raise UsageError("k must be >= 1")
        dists = self._distances(q)
        k = min(k, self._size)
        ids = (dists <= np.partition(dists, k - 1)[k - 1]).nonzero()[0]
        # a stable sort of ascending ids breaks distance ties by id
        ids = ids[dists[ids].argsort(kind="stable")[:k]]
        return ids, dists[ids]

    def within_radius(self, q, r: float):
        """Points within distance r (closed ball) as (ids, dists) arrays, ids ascending."""
        if not r > 0.0:
            raise UsageError("radius must be > 0")
        dists = self._distances(q)
        ids = (dists <= r).nonzero()[0]
        return ids, dists[ids]


_SLACK = 1e-9  # relative widening of a grid cell beyond the search radius
_GRID_AXES = 4  # the grid spans at most this many of the widest axes
_ROWS = 2048  # query rows whose candidate ranges are looked up at once
_PAIRS = 1 << 17  # candidate pairs expanded at once per half, bounding memory


def _pair_distances(points, i, j):
    """Distance between rows i[m] and j[m] for each m, as `row_distances` computes it."""
    return _root_sum_squares(points[j, c] - points[i, c] for c in range(points.shape[1]))


class _Grid:
    """The points bucketed into cubic cells whose side is at least `side`.

    Two points within distance `side` of each other lie in the same or in
    adjacent cells on every grid axis: the cell is widened by _SLACK and by
    a few ulps of the widest span, which covers the rounding of `(p - lo) /
    cell`.  A cell has an int64 key in mixed radix; each coordinate is
    shifted by one so that the outermost cells' neighbours have keys too.
    The cell is never below span / (2**(60/g) - 3), so keys stay below 2**60.

    The sweeps work on positions in cell order: position p is point order[p],
    and `cols` holds one contiguous array per coordinate in that order.
    """

    def __init__(self, points, side):
        lo = points.min(axis=0)
        span = points.max(axis=0) - lo
        axes = np.argsort(-span, kind="stable")[:_GRID_AXES]
        g = axes.shape[0]
        widest = float(span.max())
        cell = max(side * (1.0 + _SLACK) + 8.0 * np.finfo(float).eps * widest,
                   widest / (2.0 ** (60.0 / g) - 3.0))
        coords = np.floor((points[:, axes] - lo[axes]) / cell).astype(np.int64) + 1
        radix = coords.max(axis=0) + 2
        strides = np.ones(g, dtype=np.int64)
        strides[:-1] = np.cumprod(radix[:0:-1])[::-1]
        key = coords @ strides
        self.order = np.argsort(key, kind="stable")
        self.sorted_key = key[self.order]
        self.cols = [points[self.order, c] for c in range(points.shape[1])]
        # the last axis has stride 1, so its three cells are one key range;
        # the offsets ascend, with 0 in the middle and -o mirroring each o
        steps = np.array(list(itertools.product((-1, 0, 1), repeat=g - 1)), dtype=np.int64)
        self.offsets = steps.reshape(3 ** (g - 1), g - 1) @ strides[:-1]

    def candidates(self, rows, once=False):
        """Yield (part, local, i, j, dist) for each position j in the 3^g cells around row i.

        Row i is part[local]; dist is their distance as `_pair_distances`
        computes it.  With `once`, j runs only over the positions after i in
        its three-cell run and over the cells at positive offsets, so a sweep
        over all rows meets each pair once.  Parts hold at most _PAIRS
        candidates (at least one row each); `local` ascends.
        """
        offsets = self.offsets[self.offsets.shape[0] // 2:] if once else self.offsets
        for start in range(0, rows.shape[0], _ROWS):
            block = rows[start:start + _ROWS]
            base = self.sorted_key[block][:, None] + offsets
            lo = np.searchsorted(self.sorted_key, base - 1, "left")
            if once:  # offset 0 comes first: its run starts after the row
                lo[:, 0] = block + 1
            count = np.searchsorted(self.sorted_key, base + 1, "right") - lo
            per_row = count.sum(axis=1)
            ends = np.cumsum(per_row)
            a = 0
            while a < block.shape[0]:
                b = max(a + 1, int(np.searchsorted(ends, ends[a] - per_row[a] + _PAIRS, "right")))
                c = count[a:b].ravel()
                j = np.repeat(lo[a:b].ravel() - (np.cumsum(c) - c), c) + np.arange(int(c.sum()))
                part = block[a:b]
                local = np.repeat(np.arange(b - a), per_row[a:b])
                i = part[local]
                yield part, local, i, j, _root_sum_squares(col[j] - col[i] for col in self.cols)
                a = b


def _in_two_halves(work, rows):
    """[work(first half of rows), work(second half)], the second half on a helper thread.

    numpy releases the GIL in the sweep kernels, so the halves use two cores.
    The helper is joined before this returns; what it raised is raised here.
    """
    half = rows.shape[0] // 2
    out = [None, None]

    def second():
        try:
            out[1] = work(rows[half:])
        except BaseException as exc:  # re-raised in the caller
            out[1] = exc

    helper = threading.Thread(target=second, daemon=True)
    helper.start()
    try:
        out[0] = work(rows[:half])
    finally:
        helper.join()
    if isinstance(out[1], BaseException):
        raise out[1]
    return out


def radius_pairs(points, r: float):
    """Every pair of rows of `points` at distance <= r, as (i, j) id arrays with i < j.

    A pair is in the result exactly when `NeighborIndex.within_radius`
    from row i returns j.  Each pair appears once; the order of the pairs
    is unspecified.
    """
    if not r > 0.0:
        raise UsageError("radius must be > 0")
    points = np.asarray(points, dtype=float)
    if not points.shape[0]:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    grid = _Grid(points, r)

    def sweep(rows):
        return [grid.order[np.stack([i, j])[:, dist <= r]]
                for _, _, i, j, dist in grid.candidates(rows, once=True)]

    first, second = _in_two_halves(sweep, np.arange(points.shape[0]))
    i, j = np.concatenate(first + second, axis=1)  # n > 0 rows, so at least one part
    return np.minimum(i, j), np.maximum(i, j)


def knn_lists(points, k: int):
    """Each row's min(k, n - 1) nearest other rows, as flat (src, dst) id arrays.

    src ascends, and row i's neighbours follow in (distance, id) order, as
    `[u for u in index.k_nearest(points[i], k + 1)[0] if u != i][:k]` for
    a `NeighborIndex` over all rows.  The search starts from the radius at
    which about 1.5(k + 1) points are expected in the ball.  A row is
    settled once min(k + 1, n) points lie within the radius, since then no
    point outside its cells can rank; unsettled rows retry at twice it.

    The m candidates of a part are ordered by one argsort of the int64 keys
    `local * m + rank` (local: the row's place in the part; rank: the
    candidate's place in one float argsort of the distances), or by (local,
    distance, id) where equal distances come out of id order (lattices,
    duplicate points).
    """
    if k < 1:
        raise UsageError("k must be >= 1")
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    need = min(k + 1, n)
    widest = float(np.ptp(points, axis=0).max()) if n else 0.0
    side = widest * (1.5 * (k + 1) / (max(n, 1) * unit_ball_volume(d))) ** (1.0 / d) or 1.0
    lists = np.empty((n, max(need - 1, 0)), dtype=np.int64)
    pending = np.ones(n, dtype=bool)  # by id: the rows without a list yet

    def sweep(rows):
        for part, local, i, j, dist in grid.candidates(rows):
            inside = dist <= side
            settled = np.bincount(local[inside], minlength=part.shape[0]) >= need
            sel = inside & settled[local] & (j != i)
            local, j, dist = local[sel], grid.order[j[sel]], dist[sel]
            m = dist.shape[0]
            rank = np.empty(m, dtype=np.int64)
            rank[np.argsort(dist)] = np.arange(m)
            order = np.argsort(local * m + rank)
            local, j, dist = local[order], j[order], dist[order]
            if np.any((local[1:] == local[:-1]) & (dist[1:] == dist[:-1]) & (j[1:] < j[:-1])):
                order = np.lexsort((j, dist, local))
                local, j = local[order], j[order]
            # each settled row's first min(k, n - 1) neighbours, from where its run starts
            first = np.searchsorted(local, np.flatnonzero(settled))
            ids = grid.order[part[settled]]
            lists[ids] = j[first[:, None] + np.arange(lists.shape[1])]
            pending[ids] = False

    while pending.any():
        grid = _Grid(points, side)
        _in_two_halves(sweep, np.flatnonzero(pending[grid.order]))
        side *= 2.0
    return np.repeat(np.arange(n), lists.shape[1]), lists.ravel()
