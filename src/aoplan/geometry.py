"""Configuration-space model shared by every planner.

Scenarios are d-dimensional axis-aligned boxes with closed box/ball
obstacles.  Validity, edge and clearance predicates are vectorized over
numpy arrays; a segment is checked at a fixed subdivision resolution and
the batched checker prunes subdivision points that provably cannot lie
inside an obstacle, so its verdict is identical to checking every point.
A single point, segment or composite edge takes a plain-Python path with the
same verdict.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ScenarioParseError, ScenarioValidationError, UsageError
from .nn import _pair_distances, distance, row_distances


def as_config(q, d: Optional[int] = None, what: str = "config") -> np.ndarray:
    """Coerce a point-like to a finite 1-D float array, optionally checking d."""
    arr = np.asarray(q, dtype=float)
    if arr.ndim != 1:
        raise UsageError(f"{what} must be a flat coordinate sequence")
    if not np.all(np.isfinite(arr)):
        raise UsageError(f"{what} has non-finite coordinates")
    if d is not None and arr.shape[0] != d:
        raise UsageError(f"{what} has dimension {arr.shape[0]}, expected {d}")
    return arr


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, lo <= hi componentwise."""

    lo: np.ndarray
    hi: np.ndarray

    @property
    def dimension(self) -> int:
        return self.lo.shape[0]

    @property
    def widths(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def volume(self) -> float:
        return float(np.prod(self.widths))

    @property
    def diagonal(self) -> float:
        return distance(*self._bounds)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.all((pts >= self.lo) & (pts <= self.hi), axis=1)

    @cached_property
    def _bounds(self) -> tuple:
        """(lo, hi) as float tuples, built on first use and kept on the instance."""
        return tuple(self.lo.tolist()), tuple(self.hi.tolist())


@dataclass(frozen=True)
class BoxObstacle:
    lo: np.ndarray
    hi: np.ndarray


@dataclass(frozen=True)
class BallObstacle:
    center: np.ndarray
    radius: float


Obstacle = Union[BoxObstacle, BallObstacle]


@dataclass(frozen=True)
class GoalRegion:
    """Goal set: closed ball around a center; radius 0 means the exact point."""

    center: np.ndarray
    radius: float

    def contains(self, q: np.ndarray) -> bool:
        return distance(np.asarray(q, dtype=float).tolist(), self._center) <= self.radius

    @cached_property
    def _center(self) -> list:
        """center as a list of floats, built on first use and kept on the instance."""
        return self.center.tolist()


@dataclass(frozen=True)
class RobotSpec:
    """One disc robot of a multi-robot scenario."""

    radius: float
    start: np.ndarray
    goal: GoalRegion


@dataclass(frozen=True)
class Scenario:
    """Immutable planning problem; safe to share across planner instances."""

    dimension: int
    domain: Box
    obstacles: tuple
    start: Optional[np.ndarray]
    goal: Optional[GoalRegion]
    optimal_cost: Optional[float] = None
    robots: tuple = ()

    @property
    def measure_upper(self) -> float:
        """Upper bound for the free-space measure: volume of the domain box."""
        return self.domain.volume

    @property
    def diagonal(self) -> float:
        return self.domain.diagonal

    def default_resolution(self) -> float:
        """Default subdivision resolution: 1e-3 of the domain diagonal."""
        return 1e-3 * self.domain.diagonal

    @cached_property
    def _bounds(self) -> tuple:
        """(domain lo, domain hi, obstacles) as float tuples for the one-item checker.

        Each obstacle is (True, lo, hi) for a box or (False, center, radius)
        for a ball.  Built on first use and kept on the instance.
        """
        obstacles = tuple(
            (True, tuple(ob.lo.tolist()), tuple(ob.hi.tolist()))
            if isinstance(ob, BoxObstacle)
            else (False, tuple(ob.center.tolist()), float(ob.radius))
            for ob in self.obstacles
        )
        return (*self.domain._bounds, obstacles)


@dataclass(frozen=True)
class Path:
    """Polyline solution; cost is the sum of Euclidean segment lengths."""

    waypoints: tuple
    cost: float

    def __len__(self) -> int:
        return len(self.waypoints)


def make_path(waypoints: Sequence) -> Path:
    pts = tuple(as_config(w) for w in waypoints)
    if not pts:
        raise UsageError("path needs at least one waypoint")
    return Path(waypoints=pts, cost=path_cost(pts))


# ---------------------------------------------------------------------------
# point validity


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot product, columns summed left to right.

    The one-item checker and the length kernel of `nn` sum in the same
    order, so all of them round alike in any dimension.
    """
    acc = x[:, 0] * y[:, 0]
    for j in range(1, x.shape[1]):
        acc += x[:, j] * y[:, j]
    return acc


def _obstacle_hit(ob: Obstacle, pts: np.ndarray, margin: float) -> np.ndarray:
    """True where pts collide with the closed obstacle inflated by margin."""
    if isinstance(ob, BoxObstacle):
        gap = np.maximum(ob.lo - pts, 0.0) + np.maximum(pts - ob.hi, 0.0)
        return _rowdot(gap, gap) <= margin * margin
    diff = pts - ob.center
    r = ob.radius + margin
    return _rowdot(diff, diff) <= r * r


def points_valid(scenario: Scenario, pts: np.ndarray, margin: float = 0.0) -> np.ndarray:
    """Vectorized validity of an (m, d) array of configurations.

    A point is valid when it lies inside the closed domain box and outside
    every closed obstacle inflated by margin (a disc robot's radius: its
    center must stay inside the domain, its body may overhang the
    boundary).  Boundary contact with an obstacle counts as collision.
    """
    _check_margin(margin)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    ok = scenario.domain.contains(pts)
    for ob in scenario.obstacles:
        if not ok.any():
            break
        ok &= ~_obstacle_hit(ob, pts, margin)
    return ok


# ---------------------------------------------------------------------------
# edge validity
#
# The contract is subdivision at spacing <= rho, endpoints included.  The
# checker computes, per obstacle, the parameter interval where the segment
# could intersect (obstacles are convex, so it is a single interval) and only
# evaluates the subdivision points inside that interval, so it returns
# exactly what evaluating every subdivision point would.


def _check_resolution(rho) -> None:
    """UsageError unless the subdivision resolution rho is finite and > 0 (nan is not)."""
    if not 0.0 < rho < math.inf:
        raise UsageError("resolution rho must be finite and > 0")


def _check_margin(margin) -> None:
    """UsageError unless the obstacle margin is finite and >= 0 (nan is not)."""
    if not 0.0 <= margin < math.inf:
        raise UsageError("margin must be finite and >= 0")


def _canonical_rows(a: np.ndarray, b: np.ndarray):
    """Order each (a_i, b_i) pair lexicographically so checks are symmetric."""
    swap = np.zeros(a.shape[0], dtype=bool)
    undecided = np.ones(a.shape[0], dtype=bool)
    for j in range(a.shape[1]):
        gt = undecided & (a[:, j] > b[:, j])
        swap |= gt
        undecided &= a[:, j] == b[:, j]
    if swap.any():
        a = a.copy()
        b = b.copy()
        a[swap], b[swap] = b[swap], a[swap].copy()
    return a, b


def _segment_counts(u: np.ndarray, rho: float) -> np.ndarray:
    """Subdivision count per row of the segment vectors u."""
    lens = np.sqrt(_rowdot(u, u))
    return np.maximum(1, np.ceil(lens / rho)).astype(np.int64)


def _box_interval(lo, hi, a, u):
    """Per-row t-interval where a + t*u lies in the closed box [lo, hi]."""
    n = a.shape[0]
    t0 = np.zeros(n)
    t1 = np.ones(n)
    for j in range(a.shape[1]):
        uj = u[:, j]
        aj = a[:, j]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s0 = (lo[j] - aj) / uj
            s1 = (hi[j] - aj) / uj
        lo_t = np.minimum(s0, s1)
        hi_t = np.maximum(s0, s1)
        flat = uj == 0.0
        inside = (aj >= lo[j]) & (aj <= hi[j])
        lo_t = np.where(flat, np.where(inside, 0.0, 2.0), lo_t)
        hi_t = np.where(flat, np.where(inside, 1.0, -2.0), hi_t)
        t0 = np.maximum(t0, lo_t)
        t1 = np.minimum(t1, hi_t)
    return t0, t1


def _ball_interval(center, radius, a, u):
    """Per-row t-interval where a + t*u lies in the closed ball."""
    diff = a - center
    qa = _rowdot(u, u)
    qb = 2.0 * _rowdot(diff, u)
    qc = _rowdot(diff, diff) - radius * radius
    t0 = np.full(a.shape[0], 2.0)
    t1 = np.full(a.shape[0], -2.0)
    stationary = qa == 0.0
    inside0 = qc <= 0.0
    disc = qb * qb - 4.0 * qa * qc
    hit = ~stationary & (disc >= 0.0)
    if hit.any():
        sq = np.sqrt(np.maximum(disc, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            r0 = (-qb - sq) / (2.0 * qa)
            r1 = (-qb + sq) / (2.0 * qa)
        t0 = np.where(hit, np.maximum(r0, 0.0), t0)
        t1 = np.where(hit, np.minimum(r1, 1.0), t1)
    both = stationary & inside0
    t0 = np.where(both, 0.0, t0)
    t1 = np.where(both, 1.0, t1)
    return t0, t1


def _eval_candidates(ob, margin, a, b, u, counts, rows, i0, i1):
    """Evaluate real subdivision points in the candidate index ranges.

    Uses the exact segment endpoints at i = 0 and i = m (interpolation at
    t = 1 can round away from b).  Returns the row indices (into the
    batch) where some subdivision point collides with the obstacle.
    """
    lengths = i1 - i0 + 1
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    rep = np.repeat(np.arange(rows.shape[0]), lengths)
    offsets = np.concatenate(([0], np.cumsum(lengths)))[:-1]
    idx = np.arange(total) - np.repeat(offsets, lengths) + np.repeat(i0, lengths)
    m = counts[rows][rep]
    ts = idx / m
    pts = a[rows][rep] + ts[:, None] * u[rows][rep]
    at_end = idx == m
    if at_end.any():
        pts[at_end] = b[rows][rep[at_end]]
    bad = _obstacle_hit(ob, pts, margin)
    return np.unique(rows[rep[bad]])


def segments_valid(
    scenario: Scenario,
    a,
    b,
    rho: float,
    margin: float = 0.0,
) -> np.ndarray:
    """Validity of a batch of segments, one bool per row of (a, b).

    Equivalent to checking every subdivision point of each segment at
    spacing <= rho (endpoints included) with points_valid.
    """
    _check_resolution(rho)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape != b.shape or a.shape[1] != scenario.dimension:
        raise UsageError("segment endpoints must share the scenario dimension")
    a, b = _canonical_rows(a, b)
    ok = points_valid(scenario, a, margin) & points_valid(scenario, b, margin)
    if not ok.any() or not scenario.obstacles:
        return ok
    u = b - a
    counts = _segment_counts(u, rho)
    for ob in scenario.obstacles:
        rows = np.nonzero(ok)[0]
        if rows.size == 0:
            break
        if isinstance(ob, BoxObstacle):
            t0, t1 = _box_interval(ob.lo - margin, ob.hi + margin, a[rows], u[rows])
        else:
            t0, t1 = _ball_interval(ob.center, ob.radius + margin, a[rows], u[rows])
        hit = np.nonzero(t0 <= t1)[0]
        if hit.size == 0:
            continue
        mh = counts[rows][hit]
        t0h = np.clip(t0[hit], 0.0, 1.0)
        t1h = np.clip(t1[hit], 0.0, 1.0)
        i0 = np.maximum(0, np.floor(t0h * mh).astype(np.int64) - 1)
        i1 = np.minimum(mh, np.ceil(t1h * mh).astype(np.int64) + 1)
        bad_rows = _eval_candidates(ob, margin, a, b, u, counts, rows[hit], i0, i1)
        ok[bad_rows] = False
    return ok


def edge_valid(scenario: Scenario, a, b, rho: float, margin: float = 0.0) -> bool:
    """True iff every subdivision point of segment ab at spacing <= rho is valid."""
    _check_resolution(rho)
    _check_margin(margin)
    a = as_config(a, scenario.dimension, "edge endpoint")
    b = as_config(b, scenario.dimension, "edge endpoint")
    return _segment_free(scenario._bounds, a.tolist(), b.tolist(), rho, margin)


# ---------------------------------------------------------------------------
# one point or one segment
#
# points_valid and segments_valid for a single item, in plain Python: a
# one-row numpy batch costs far more than its arithmetic.  Every step mirrors
# the batch checker (canonical endpoint order, subdivision count, interval
# pruning, the exact endpoint at i = m, sums left to right), so the verdicts
# are identical.  Points and segment ends are lists of floats; obstacles are
# the triples of Scenario._bounds.


def _hit(ob, p, margin: float) -> bool:
    """_obstacle_hit for one point."""
    acc = 0.0
    if ob[0]:
        _, lo, hi = ob
        for x, l, h in zip(p, lo, hi):
            # the batch's max(l - x, 0) + max(x - h, 0): one term is exactly 0
            g = l - x if x < l else x - h if x > h else 0.0
            acc += g * g
        return acc <= margin * margin
    _, center, radius = ob
    for x, c in zip(p, center):
        t = x - c
        acc += t * t
    r = radius + margin
    return acc <= r * r


def _point_free(bounds, p, margin: float) -> bool:
    """points_valid for one point."""
    lo, hi, obstacles = bounds
    for x, l, h in zip(p, lo, hi):
        if not l <= x <= h:
            return False
    for ob in obstacles:
        if _hit(ob, p, margin):
            return False
    return True


def _interval(ob, a, u, uu: float, margin: float):
    """_box_interval or _ball_interval for one segment a + t*u, with uu = u.u."""
    if ob[0]:
        _, lo, hi = ob
        t0, t1 = 0.0, 1.0
        for aj, uj, l, h in zip(a, u, lo, hi):
            l -= margin
            h += margin
            if uj == 0.0:
                if not l <= aj <= h:
                    return 2.0, -2.0
                continue
            s0 = (l - aj) / uj
            s1 = (h - aj) / uj
            if s1 < s0:
                s0, s1 = s1, s0
            t0 = max(t0, s0)
            t1 = min(t1, s1)
            if t0 > t1:
                break
        return t0, t1
    _, center, radius = ob
    r = radius + margin
    qb = qc = 0.0
    for aj, uj, c in zip(a, u, center):
        dj = aj - c
        qb += dj * uj
        qc += dj * dj
    qb = 2.0 * qb
    qc = qc - r * r
    if uu == 0.0:
        return (0.0, 1.0) if qc <= 0.0 else (2.0, -2.0)
    disc = qb * qb - 4.0 * uu * qc
    if not disc >= 0.0:
        return 2.0, -2.0
    sq = math.sqrt(disc)
    return max((-qb - sq) / (2.0 * uu), 0.0), min((-qb + sq) / (2.0 * uu), 1.0)


def _segment_free(bounds, a, b, rho: float, margin: float) -> bool:
    """segments_valid for one segment."""
    if a > b:
        a, b = b, a
    if not (_point_free(bounds, a, margin) and _point_free(bounds, b, margin)):
        return False
    u = [y - x for x, y in zip(a, b)]
    uu = 0.0
    for t in u:
        uu += t * t
    m = max(1, math.ceil(math.sqrt(uu) / rho))
    for ob in bounds[2]:
        t0, t1 = _interval(ob, a, u, uu, margin)
        if not t0 <= t1:
            continue
        # a non-empty interval already lies in [0, 1], so no clipping
        for i in range(max(0, math.floor(t0 * m) - 1), min(m, math.ceil(t1 * m) + 1) + 1):
            if i == m:
                p = b
            else:
                t = i / m
                p = [x + t * y for x, y in zip(a, u)]
            if _hit(ob, p, margin):
                return False
    return True


# ---------------------------------------------------------------------------
# composite edges: every robot moves at once
#
# Robot i of a composite edge a -> b stands at (k/m)*s_i + a_i, s_i = b_i - a_i,
# for k = 0..m, with one m for all robots from the longest step.  Each point
# must lie in the domain and clear every obstacle inflated by the robot's
# radius, and each robot pair must stay at least its radii sum apart.

# relative rounding tolerance of the composite check and of the clearance
# certificate, scaled by 1 + max |domain bound|; errors in their float
# arithmetic are about 1e-15 of the scene's scale
_TOL = 1e-9


def _pair_clear(pi, pj, si, sj, m: int, rr: float) -> bool:
    """True when two robots keep at least rr apart at every row k = 0..m."""
    for k in range(m + 1):
        t = k / m
        acc = 0.0
        for x, y, u, w in zip(pi, pj, si, sj):
            g = (t * u + x) - (t * w + y)
            acc += g * g
        if math.sqrt(acc) < rr:
            return False
    return True


def _composite_free(bounds, a, b, radii, rho: float) -> bool:
    """Composite edge check in plain Python, as evaluating every row would decide it.

    a and b hold one list of floats per robot.  Points, obstacle hits and
    pair gaps are computed as they would be at every row k = 0..m; only the
    rows that can decide the verdict are evaluated:
    - the domain is a box and rounding is monotone, so every computed
      point of a track lies between its first and last (k = m, computed as
      1.0*s + a), and the track is inside when both of them are;
    - per robot and obstacle, the _interval indices with +-1 slack, the
      interval taken with the margin widened by the tolerance;
    - per robot pair, the gap |D + tV| is convex in t, so only the indices
      next to its minimiser, widened by the minimiser's rounding error.  A
      pair whose gap there comes within the tolerance of the radii sum is
      settled by every row.
    """
    lo, hi, obstacles = bounds
    tol = _TOL * (1.0 + max(map(abs, lo + hi)))
    steps = [[y - x for x, y in zip(p, q)] for p, q in zip(a, b)]
    sss = []
    for s in steps:
        acc = 0.0
        for t in s:
            acc += t * t
        sss.append(acc)
    m = max(1, math.ceil(math.sqrt(max(sss)) / rho))
    for p, s in zip(a, steps):
        for x, y, l, h in zip(p, s, lo, hi):
            if not (l <= x <= h and l <= y + x <= h):
                return False
    for p, s, ss, r in zip(a, steps, sss, radii):
        for ob in obstacles:
            t0, t1 = _interval(ob, p, s, ss, r + tol)
            if not t0 <= t1:
                continue
            for k in range(max(0, math.floor(t0 * m) - 1), min(m, math.ceil(t1 * m) + 1) + 1):
                t = k / m
                if _hit(ob, [t * y + x for x, y in zip(p, s)], r):
                    return False
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            pi, pj, si, sj = a[i], a[j], steps[i], steps[j]
            dd = dv = vv = 0.0
            for x, y, u, w in zip(pi, pj, si, sj):
                dx = x - y
                du = u - w
                dd += dx * dx
                dv += dx * du
                vv += du * du
            if vv == 0.0:
                # the robots move in parallel: every exact gap equals the first
                k0 = k1 = 0
            else:
                tc = -dv / vv
                # tc is off by at most about (d + 3) ulp * (|D|/|V| + |tc|)
                eta = 1e-12 * (math.sqrt(dd / vv) + abs(tc) + 1.0)
                if eta < 1.0:
                    k0 = max(0, math.floor(min(max(tc - eta, 0.0), 1.0) * m) - 1)
                    k1 = min(m, math.ceil(min(max(tc + eta, 0.0), 1.0) * m) + 1)
                else:
                    k0, k1 = 0, m
            rr = radii[i] + radii[j]
            for k in range(k0, k1 + 1):
                t = k / m
                acc = 0.0
                for x, y, u, w in zip(pi, pj, si, sj):
                    g = (t * u + x) - (t * w + y)
                    acc += g * g
                gap = math.sqrt(acc)
                if gap < rr:
                    return False
                if gap < rr + tol:
                    if not _pair_clear(pi, pj, si, sj, m, rr):
                        return False
                    break
    return True


def _floats(q, d: int, what: str) -> list:
    q = np.asarray(q, dtype=float)
    if q.shape != (d,):
        raise UsageError(f"{what} has shape {q.shape}, expected ({d},)")
    return q.tolist()


# ---------------------------------------------------------------------------
# costs and clearance


def path_cost(waypoints: Sequence) -> float:
    """Sum of Euclidean lengths of consecutive segments; one waypoint costs 0."""
    if len(waypoints) == 0:
        raise UsageError("path_cost needs at least one waypoint")
    pts = np.asarray([np.asarray(w, dtype=float) for w in waypoints])
    i = np.arange(len(pts) - 1)
    return float(_pair_distances(pts, i, i + 1).sum())


def _sample_polyline(waypoints, rho: float) -> np.ndarray:
    """All subdivision points of a polyline at spacing <= rho per segment."""
    pts = [np.asarray(waypoints[0], dtype=float)]
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        m = max(1, math.ceil(distance(b.tolist(), a.tolist()) / rho))
        ts = np.arange(1, m + 1) / m
        pts.append(a + ts[:, None] * (b - a))
    return np.vstack([p if p.ndim == 2 else p[None, :] for p in pts])


def clearance_of_points(scenario: Scenario, pts: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest obstacle surface or domain face."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    clear = np.minimum(
        (pts - scenario.domain.lo).min(axis=1),
        (scenario.domain.hi - pts).min(axis=1),
    )
    for ob in scenario.obstacles:
        if isinstance(ob, BoxObstacle):
            gap = np.maximum(ob.lo - pts, 0.0) + np.maximum(pts - ob.hi, 0.0)
            dist = np.sqrt(_rowdot(gap, gap))
        else:
            dist = row_distances(pts, ob.center) - ob.radius
        clear = np.minimum(clear, dist)
    return clear


def path_clearance(scenario: Scenario, path: Path, rho: float) -> float:
    """Minimum sampled clearance along a path; 0 if any sampled point is invalid."""
    if len(path.waypoints) == 0:
        raise UsageError("path_clearance needs a nonempty path")
    _check_resolution(rho)
    pts = _sample_polyline(path.waypoints, rho)
    if not points_valid(scenario, pts).all():
        return 0.0
    return float(max(0.0, clearance_of_points(scenario, pts).min()))


def refine_path(path: Path, spacing: float) -> Path:
    """Densify waypoints to spacing <= the given value; geometry and cost unchanged."""
    if not spacing > 0.0:
        raise UsageError("spacing must be > 0")
    if len(path.waypoints) == 1:
        return path
    pts = _sample_polyline(path.waypoints, spacing)
    return Path(waypoints=tuple(pts), cost=path.cost)


# ---------------------------------------------------------------------------
# scenario loading


def _need(doc: dict, key: str, where: str = "document"):
    if not isinstance(doc, dict) or key not in doc:
        raise ScenarioParseError(f"{where} is missing required field '{key}'")
    return doc[key]


def _coords(value, d: int, path: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ScenarioParseError(f"{path} is not a coordinate array")
    if arr.ndim != 1 or arr.shape[0] != d:
        raise ScenarioValidationError(path, f"expected {d} coordinates")
    if not np.all(np.isfinite(arr)):
        raise ScenarioValidationError(path, "coordinates must be finite")
    arr.setflags(write=False)
    return arr


def _real(value, path: str, positive=False, nonneg=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioParseError(f"{path} is not a number")
    v = float(value)
    if not math.isfinite(v):
        raise ScenarioValidationError(path, "must be finite")
    if positive and v <= 0.0:
        raise ScenarioValidationError(path, "must be > 0")
    if nonneg and v < 0.0:
        raise ScenarioValidationError(path, "must be >= 0")
    return v


def _parse_goal(doc, d: int, path: str) -> GoalRegion:
    center = _coords(_need(doc, "center", path), d, f"{path}.center")
    radius = _real(_need(doc, "radius", path), f"{path}.radius", nonneg=True)
    return GoalRegion(center=center, radius=radius)


def _parse_obstacle(doc, d: int, path: str) -> Obstacle:
    kind = _need(doc, "type", path)
    if kind == "box":
        lo = _coords(_need(doc, "min", path), d, f"{path}.min")
        hi = _coords(_need(doc, "max", path), d, f"{path}.max")
        if np.any(lo > hi):
            raise ScenarioValidationError(path, "box min must be <= max componentwise")
        return BoxObstacle(lo=lo, hi=hi)
    if kind == "ball":
        center = _coords(_need(doc, "center", path), d, f"{path}.center")
        radius = _real(_need(doc, "radius", path), f"{path}.radius", positive=True)
        return BallObstacle(center=center, radius=radius)
    raise ScenarioParseError(f"{path}.type must be 'box' or 'ball', got {kind!r}")


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioParseError("scenario document must be an object")
    d = _need(doc, "dimension")
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ScenarioParseError("dimension must be a positive integer")
    dom = _need(doc, "domain")
    lo = _coords(_need(dom, "min", "domain"), d, "domain.min")
    hi = _coords(_need(dom, "max", "domain"), d, "domain.max")
    if np.any(lo >= hi):
        raise ScenarioValidationError("domain", "min must be < max componentwise")
    domain = Box(lo=lo, hi=hi)

    obstacles = tuple(
        _parse_obstacle(ob, d, f"obstacles[{i}]")
        for i, ob in enumerate(doc.get("obstacles", []))
    )

    robots = []
    for i, rb in enumerate(doc.get("robots", [])):
        path = f"robots[{i}]"
        radius = _real(_need(rb, "radius", path), f"{path}.radius", positive=True)
        start = _coords(_need(rb, "start", path), d, f"{path}.start")
        goal = _parse_goal(_need(rb, "goal", path), d, f"{path}.goal")
        robots.append(RobotSpec(radius=radius, start=start, goal=goal))

    start = goal = None
    if not robots or "start" in doc:
        start = _coords(_need(doc, "start"), d, "start")
    if not robots or "goal" in doc:
        goal = _parse_goal(_need(doc, "goal"), d, "goal")

    optimal = None
    if doc.get("optimal_cost") is not None:
        optimal = _real(doc["optimal_cost"], "optimal_cost", positive=True)

    scenario = Scenario(
        dimension=d,
        domain=domain,
        obstacles=obstacles,
        start=start,
        goal=goal,
        optimal_cost=optimal,
        robots=tuple(robots),
    )
    if scenario.measure_upper <= 0.0:
        raise ScenarioValidationError("domain", "domain box must have positive volume")
    if start is not None:
        if not scenario.domain.contains(start[None, :])[0]:
            raise ScenarioValidationError("start", "start lies outside the domain")
        if not points_valid(scenario, start[None, :])[0]:
            raise ScenarioValidationError("start", "start is in collision")
    if goal is not None and not scenario.domain.contains(goal.center[None, :])[0]:
        raise ScenarioValidationError("goal.center", "goal center lies outside the domain")
    for i, rb in enumerate(scenario.robots):
        if not points_valid(scenario, rb.start[None, :], margin=rb.radius)[0]:
            raise ScenarioValidationError(
                f"robots[{i}].start", "robot start is in collision at its radius"
            )
        if not scenario.domain.contains(rb.goal.center[None, :])[0]:
            raise ScenarioValidationError(
                f"robots[{i}].goal.center", "goal center lies outside the domain"
            )
    return scenario


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document (UTF-8 JSON text)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"invalid JSON: {exc}") from exc
    return scenario_from_dict(doc)


def load_scenario_file(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())


class CollisionChecker:
    """Counting wrapper over the validity predicates, owned by one planner.

    Counts predicate queries (not subdivision points) so counters are
    deterministic and independent of the pruning strategy.
    """

    def __init__(self, scenario: Scenario, resolution: Optional[float] = None,
                 margin: float = 0.0):
        if resolution is None:
            resolution = scenario.default_resolution()
        _check_resolution(resolution)
        _check_margin(margin)
        self.scenario = scenario
        self.resolution = float(resolution)
        self.margin = float(margin)
        self.checks = 0

    def point_valid(self, q) -> bool:
        self.checks += 1
        d = self.scenario.dimension
        return _point_free(self.scenario._bounds, _floats(q, d, "point"), self.margin)

    def edge_valid(self, a, b) -> bool:
        self.checks += 1
        d = self.scenario.dimension
        return _segment_free(self.scenario._bounds, _floats(a, d, "edge endpoint"),
                             _floats(b, d, "edge endpoint"), self.resolution, self.margin)

    def edges_valid(self, pts: np.ndarray, a: np.ndarray, b: np.ndarray,
                    lengths: np.ndarray) -> np.ndarray:
        """segments_valid for the edges (pts[a[i]], pts[b[i]]) of lengths[i]; one check each.

        An edge shorter than an end's clearance less margin and tolerance is
        free, exactly: the segment lies in the closed ball of radius |ab|
        around either end, every subdivision point that segments_valid
        computes ((i/m)*u + a, or b) lies within a few ulps of the segment,
        and the tolerance covers those ulps and the rounding of length and
        clearance some 10^6 times over.  Contact is collision, so the test
        is strict.  The other edges go through segments_valid.
        """
        self.checks += len(a)
        lo, hi, _ = self.scenario._bounds
        clear = (clearance_of_points(self.scenario, pts) - self.margin
                 - _TOL * (1.0 + max(map(abs, lo + hi))))
        ok = (lengths < clear[a]) | (lengths < clear[b])
        rows = np.flatnonzero(~ok)
        for i in range(0, rows.size, 200_000):
            r = rows[i:i + 200_000]
            ok[r] = segments_valid(self.scenario, pts[a[r]], pts[b[r]], self.resolution,
                                   self.margin)
        return ok

    def states_valid(self, pts: np.ndarray) -> bool:
        """points_valid(pts).all() for an (m, d) array, one point at a time; one check."""
        self.checks += 1
        bounds = self.scenario._bounds
        return all(_point_free(bounds, p, self.margin) for p in pts.tolist())
