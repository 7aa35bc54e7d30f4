"""Exact nearest-neighbor index under the Euclidean metric.

Backed by a contiguous grow-on-demand numpy buffer and vectorized scans,
so query results are the linear-scan answer by construction.  Ties are
broken by lower id.  Single writer; planners own their index exclusively.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError


class NeighborIndex:
    def __init__(self, dimension: int, capacity: int = 64):
        if dimension < 1:
            raise UsageError("dimension must be >= 1")
        self.dimension = int(dimension)
        self._points = np.empty((max(1, capacity), dimension), dtype=float)
        self._ids = np.empty(max(1, capacity), dtype=np.int64)
        self._size = 0
        self._known = set()

    def __len__(self) -> int:
        return self._size

    def insert(self, id: int, q) -> None:
        if id in self._known:
            raise UsageError(f"duplicate id {id}")
        q = np.asarray(q, dtype=float)
        if q.shape != (self.dimension,):
            raise UsageError("point dimension mismatch")
        if self._size == self._points.shape[0]:
            self._points = np.vstack([self._points, np.empty_like(self._points)])
            self._ids = np.concatenate([self._ids, np.empty_like(self._ids)])
        self._points[self._size] = q
        self._ids[self._size] = id
        self._size += 1
        self._known.add(id)

    def _distances(self, q: np.ndarray) -> np.ndarray:
        diff = self._points[: self._size] - q
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def k_nearest(self, q, k: int):
        """The min(k, size) closest points as (id, distance), ascending."""
        if self._size == 0:
            raise UsageError("index is empty")
        if k < 1:
            raise UsageError("k must be >= 1")
        q = np.asarray(q, dtype=float)
        dists = self._distances(q)
        ids = self._ids[: self._size]
        k = min(k, self._size)
        if k == 1:
            best = dists.min()
            cand = np.nonzero(dists == best)[0]
            i = cand[np.argmin(ids[cand])]
            return [(int(ids[i]), float(dists[i]))]
        kth = np.partition(dists, k - 1)[k - 1]
        cand = np.nonzero(dists <= kth)[0]
        order = cand[np.lexsort((ids[cand], dists[cand]))][:k]
        return [(int(ids[i]), float(dists[i])) for i in order]

    def nearest_id(self, q) -> int:
        return self.k_nearest(q, 1)[0][0]

    def within_radius(self, q, r: float):
        """Points within distance r (closed ball): (ids, dists) arrays by ascending (dist, id)."""
        if self._size == 0:
            raise UsageError("index is empty")
        if r <= 0.0:
            raise UsageError("radius must be > 0")
        q = np.asarray(q, dtype=float)
        dists = self._distances(q)
        ids = self._ids[: self._size]
        cand = np.nonzero(dists <= r)[0]
        order = cand[np.lexsort((ids[cand], dists[cand]))]
        return ids[order], dists[order]
