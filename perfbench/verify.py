"""Checks every planner output from outside, with aoplan's public predicates.

verify() returns (status, reason): status "ok" for a path that passes,
"no-path" when the planner returned no solution, and "invalid" with the
first violated condition otherwise. All checks use the scenario's default
checker resolution, the one the planners run at.
"""

from __future__ import annotations

import numpy as np

COST_TOL = 1e-9
KINEMATIC = ("prm-star", "k-prm-star", "rrt", "rrt-star")
KINODYNAMIC = ("sst", "ao-rrt", "ao-meta")


def verify(aoplan, scenario, planner, result, system_name="integrator2d"):
    if result.best_cost is None:
        return ("no-path", "") if result.path is None else ("invalid", "path without a cost")
    if result.path is None:
        return "invalid", "cost without a path"
    rho = scenario.default_resolution()
    if planner in KINEMATIC:
        reason = _kinematic(aoplan, scenario, result, rho)
    elif planner in KINODYNAMIC:
        system = aoplan.kinodynamic.SYSTEMS[system_name]()
        reason = _kinodynamic(aoplan, scenario, system, result, rho)
    elif planner == "drrt-star":
        reason = _composite(aoplan, scenario, result, rho)
    else:
        raise ValueError(f"no verifier for planner {planner!r}")
    return ("invalid", reason) if reason else ("ok", "")


def _kinematic(aoplan, scenario, result, rho):
    w = np.array(result.path.waypoints, dtype=float)
    if not np.array_equal(w[0], scenario.start):
        return "path does not start at the start"
    if not scenario.goal.contains(w[-1]):
        return "path does not end in the goal ball"
    if len(w) == 1:
        ok = aoplan.points_valid(scenario, w).all()
    else:
        ok = aoplan.segments_valid(scenario, w[:-1], w[1:], rho).all()
    if not ok:
        return "a path segment is invalid at the checker resolution"
    length = aoplan.path_cost(list(w))
    if abs(length - result.best_cost) > COST_TOL:
        return f"path length {length!r} differs from best_cost {result.best_cost!r}"
    return ""


def _kinodynamic(aoplan, scenario, system, result, rho):
    traj = result.path
    states = [np.asarray(s, dtype=float) for s in traj.states]
    if not (len(traj.controls) == len(traj.durations) == len(states) - 1):
        return "controls and durations do not match the states"
    if not np.array_equal(states[0][: scenario.dimension], scenario.start):
        return "trajectory does not start at the start"
    pieces = [system.positions(states[0][None, :])]
    for i, (u, dt) in enumerate(zip(traj.controls, traj.durations)):
        u = np.asarray(u, dtype=float)
        if system.control_filter is not None and not system.control_filter(u):
            return f"control {i} is not admissible"
        euler = system.propagate(states[i], u, dt)
        if not np.array_equal(euler[-1], states[i + 1]):
            return f"re-propagated segment {i} does not end at state {i + 1}"
        pieces.append(system.positions(euler[1:]))
    pos = np.vstack(pieces)
    if not aoplan.points_valid(scenario, pos).all():
        return "an Euler state is in collision"
    if len(pos) > 1 and not aoplan.segments_valid(scenario, pos[:-1], pos[1:], rho).all():
        return "a segment between Euler states is invalid at the checker resolution"
    if not scenario.goal.contains(pos[-1]):
        return "trajectory does not end in the goal ball"
    total = float(sum(traj.durations))
    if abs(total - traj.cost) > COST_TOL or abs(total - result.best_cost) > COST_TOL:
        return f"summed durations {total!r} differ from the cost {result.best_cost!r}"
    return ""


def _composite(aoplan, scenario, result, rho):
    robots = scenario.robots
    tracks = [np.asarray(t, dtype=float) for t in result.path.per_robot]
    if len(tracks) != len(robots) or len({len(t) for t in tracks}) != 1:
        return "per-robot tracks do not match the robots"
    radii = tuple(rb.radius for rb in robots)
    for i, rb in enumerate(robots):
        if not np.array_equal(tracks[i][0], rb.start):
            return f"robot {i} does not start at its start"
        if not rb.goal.contains(tracks[i][-1]):
            return f"robot {i} does not end in its goal ball"

    def config(k):
        return aoplan.CompositeConfig(per_robot=tuple(t[k] for t in tracks), robot_radii=radii)

    for k in range(len(tracks[0]) - 1):
        if not aoplan.composite_edge_valid(scenario, config(k), config(k + 1), rho):
            return f"composite edge {k} is invalid"
    length = sum(aoplan.path_cost(list(t)) for t in tracks)
    if abs(length - result.best_cost) > COST_TOL:
        return f"summed robot lengths {length!r} differ from best_cost {result.best_cost!r}"
    return ""
