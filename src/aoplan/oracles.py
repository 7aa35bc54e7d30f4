"""Independent brute-force references for 2-D box scenes.

The visibility-graph optimum is the ground truth the convergence suites
compare against; the hyperball-cover check certifies that a returned path
admits the clearance volume the convergence arguments assume.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import UsageError
from .geometric import Roadmap, shortest_path
from .geometry import (
    BoxObstacle,
    Path,
    Scenario,
    clearance_of_points,
    points_valid,
    segments_valid,
)
from .nn import _pair_distances, distance


def _visibility_vertices(scenario: Scenario, eps_vg: float) -> list:
    """Start, goal center, and obstacle corners pushed out by eps_vg.

    The true optimum can touch obstacle corners; the tiny outward inflation
    keeps oracle paths strictly valid under closed-obstacle semantics at a
    cost error bounded by the corner count times eps_vg.
    """
    verts = [np.asarray(scenario.start, dtype=float),
             np.asarray(scenario.goal.center, dtype=float)]
    for ob in scenario.obstacles:
        lo, hi = ob.lo, ob.hi
        for sx, sy in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
            cx = (lo[0] if sx < 0 else hi[0]) + sx * eps_vg
            cy = (lo[1] if sy < 0 else hi[1]) + sy * eps_vg
            verts.append(np.array([cx, cy]))
    return verts


def optimal_cost_2d_boxes(
    scenario: Scenario,
    eps_vg: float = 1e-6,
    resolution: Optional[float] = None,
) -> Optional[float]:
    """Shortest start-to-goal-center cost through the visibility graph.

    Only defined for 2-D scenarios with box obstacles; exact up to the
    eps_vg corner inflation.  The valid edges form a Roadmap with no goal
    region, so shortest_path solves it as Dijkstra.  Returns None when
    start and goal are disconnected.
    """
    if scenario.dimension != 2:
        raise UsageError("the box-scene oracle is 2-D only")
    if any(not isinstance(ob, BoxObstacle) for ob in scenario.obstacles):
        raise UsageError("the box-scene oracle supports box obstacles only")
    if scenario.start is None or scenario.goal is None:
        raise UsageError("oracle needs a start and a goal")
    if not 0.0 < eps_vg < math.inf:
        raise UsageError("eps_vg must be finite and > 0")
    if resolution is None:
        resolution = 1e-4 * scenario.diagonal

    verts = _visibility_vertices(scenario, eps_vg)
    n = len(verts)
    pts = np.asarray(verts)

    if distance(verts[0].tolist(), verts[1].tolist()) == 0.0:
        return 0.0

    # all-pairs candidate edges, validated at the fine oracle resolution
    ia, ib = np.triu_indices(n, k=1)
    ok = segments_valid(scenario, pts[ia], pts[ib], resolution)
    a, b = ia[ok], ib[ok]
    w = _pair_distances(pts, a, b)
    path = shortest_path(Roadmap.from_edges(pts, a, b, w, 0, [1]))
    return None if path is None else path.cost


def tiling_cover_check(scenario: Scenario, path: Path, ball_radius: float) -> bool:
    """Certify a path with a chain of overlapping free balls.

    True iff consecutive waypoints are within ball_radius of each other and
    the ball of that radius around every waypoint stays inside the free
    space (clearance at least the radius).  This is the executable form of
    the hyperball-tiling construction used in the convergence analysis.
    """
    if not ball_radius > 0.0:
        raise UsageError("ball_radius must be > 0")
    wps = [np.asarray(w, dtype=float) for w in path.waypoints]
    for a, b in zip(wps[:-1], wps[1:]):
        if distance(b.tolist(), a.tolist()) > ball_radius:
            return False
    chunk = 100_000
    for lo in range(0, len(wps), chunk):
        block = np.asarray(wps[lo:lo + chunk])
        if not points_valid(scenario, block).all():
            return False
        if float(clearance_of_points(scenario, block).min()) < ball_radius:
            return False
    return True
