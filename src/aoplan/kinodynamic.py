"""Steering-function-free planners for systems with dynamics.

Local connections come from Monte Carlo propagation (random control and
random duration) instead of a steering function.  Three planners: the
sparse witness-pruned tree, the tree in state-cost space with a shrinking
cost bound, and the meta loop that repeatedly calls a cost-bounded
planner with lowering bounds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import AuditError, UsageError, _whole
from .geometry import Scenario
from .geometric import PlanResult, SearchTree, _Run, _checkpoint_stat
from .nn import NeighborIndex, distance, row_distances


@dataclass(frozen=True)
class DynamicalSystem:
    """Forward-propagatable system; propagation is deterministic.

    propagate_fn(state, control, steps) returns the (steps+1, state_dim)
    Euler trajectory at fixed step h including the input state; durations
    are quantized to whole integration steps.
    """

    name: str
    state_dim: int
    control_dim: int
    control_lo: np.ndarray
    control_hi: np.ndarray
    duration_bounds: tuple
    step: float
    propagate_fn: Callable
    position_fn: Callable
    sample_state_fn: Callable
    distance_fn: Callable
    control_filter: Optional[Callable] = None

    def __post_init__(self):
        t_min, t_max = self.duration_bounds
        if not 0.0 < t_min <= t_max:
            raise UsageError("duration bounds must satisfy 0 < t_min <= t_max")
        if not self.step > 0.0:
            raise UsageError("integration step must be > 0")

    def propagate(self, state, control, duration: float):
        """Trajectory of Euler states over round(duration / h) steps."""
        steps = max(1, int(round(duration / self.step)))
        return self.propagate_fn(np.asarray(state, dtype=float),
                                 np.asarray(control, dtype=float), steps)

    def positions(self, states: np.ndarray) -> np.ndarray:
        return self.position_fn(states if states.ndim == 2 else states[None, :])

    def sample_state(self, stream, scenario: Scenario) -> np.ndarray:
        return self.sample_state_fn(stream, scenario)

    def distances(self, states: np.ndarray, state: np.ndarray) -> np.ndarray:
        """A fresh array of distances from each row of states (or one state) to state."""
        return self.distance_fn(states if states.ndim == 2 else states[None, :], state)


def single_integrator_2d(step: float = 0.02,
                         duration_bounds: tuple = (0.05, 0.3)) -> DynamicalSystem:
    """Velocity-controlled point with speed capped at 1.

    Controls are drawn uniformly from the unit disc, so the time-optimal
    cost between two free points equals their Euclidean distance.
    """

    def propagate(state, control, steps):
        out = np.empty((steps + 1, 2))
        out[0] = state
        out[1:] = state + np.arange(1, steps + 1)[:, None] * (step * control)
        return out

    def positions(states):
        return states

    def sample(stream, scenario):
        return stream.next_point(scenario.domain)

    def in_disc(control):
        return distance(control.tolist(), (0.0, 0.0)) <= 1.0

    return DynamicalSystem(
        name="integrator2d",
        state_dim=2,
        control_dim=2,
        control_lo=np.array([-1.0, -1.0]),
        control_hi=np.array([1.0, 1.0]),
        duration_bounds=duration_bounds,
        step=step,
        propagate_fn=propagate,
        position_fn=positions,
        sample_state_fn=sample,
        distance_fn=row_distances,
        control_filter=in_disc,
    )


def kinematic_car(step: float = 0.02,
                  duration_bounds: tuple = (0.05, 0.3),
                  heading_weight: float = 0.5) -> DynamicalSystem:
    """Kinematic car (x, y, heading) with |v| <= 1 and |omega| <= 1."""
    if not 0.0 <= heading_weight < math.inf:
        raise UsageError("heading_weight must be finite and >= 0")

    def propagate(state, control, steps):
        v, omega = control
        x0, y0, psi0 = state
        k = np.arange(steps)
        psi = psi0 + step * omega * k
        out = np.empty((steps + 1, 3))
        out[0] = state
        out[1:, 0] = x0 + step * v * np.cumsum(np.cos(psi))
        out[1:, 1] = y0 + step * v * np.cumsum(np.sin(psi))
        out[1:, 2] = psi0 + step * omega * (k + 1)
        return out

    def positions(states):
        return states[:, :2]

    def sample(stream, scenario):
        xy = stream.next_point(scenario.domain)
        psi = (stream.next_uniform01() * 2.0 - 1.0) * math.pi
        return np.array([xy[0], xy[1], psi])

    def distance(states, state):
        pos = row_distances(states[:, :2], state[:2])
        dpsi = np.abs(states[:, 2] - state[2]) % (2.0 * math.pi)
        dpsi = np.minimum(dpsi, 2.0 * math.pi - dpsi)
        return pos + heading_weight * dpsi

    return DynamicalSystem(
        name="car",
        state_dim=3,
        control_dim=2,
        control_lo=np.array([-1.0, -1.0]),
        control_hi=np.array([1.0, 1.0]),
        duration_bounds=duration_bounds,
        step=step,
        propagate_fn=propagate,
        position_fn=positions,
        sample_state_fn=sample,
        distance_fn=distance,
    )


SYSTEMS = {"integrator2d": single_integrator_2d, "car": kinematic_car}


def monte_carlo_propagate(system: DynamicalSystem, from_state, stream):
    """Random control and random duration, then deterministic propagation.

    Returns (trajectory, control, effective_duration); the duration is the
    uniform draw from the system's duration bounds quantized to whole
    integration steps.  Validity of the trajectory is the caller's job.
    Each control coordinate is lo + u * (hi - lo) in Python floats, the
    same IEEE operations as the array form.
    """
    bounds = list(zip(system.control_lo.tolist(), system.control_hi.tolist()))
    for _ in range(10_000):
        control = np.array([lo + stream.next_uniform01() * (hi - lo) for lo, hi in bounds])
        if system.control_filter is None or system.control_filter(control):
            break
    else:
        raise UsageError("control_filter rejected 10000 consecutive draws")
    t_min, t_max = system.duration_bounds
    duration = t_min + stream.next_uniform01() * (t_max - t_min)
    steps = max(1, int(round(duration / system.step)))
    traj = system.propagate_fn(from_state, control, steps)
    return traj, control, steps * system.step


@dataclass(frozen=True)
class Trajectory:
    """Control-annotated solution: states with per-segment control/duration."""

    states: tuple
    controls: tuple
    durations: tuple
    cost: float

    @property
    def waypoints(self) -> tuple:
        return self.states


def _trajectory(tree: SearchTree, nid: int) -> Trajectory:
    """The root-to-nid chain of a kinodynamic tree as a Trajectory."""
    ids = tree.trace(nid)
    return Trajectory(
        states=tuple(tree.configs[ids]),
        controls=tuple(tree.controls[ids[1:]]),
        durations=tuple(tree.edge_len[ids[1:]].tolist()),
        cost=float(tree.cost[nid]),
    )


def _kino_start(scenario, system, iterations, checkpoints, resolution):
    """(run, tree, None) for a tree rooted at the zero-padded start state.

    The third item is the trivial result instead when the start lies in
    the goal.
    """
    if iterations < 1:
        raise UsageError("iterations must be >= 1")
    if scenario.goal is None:
        raise UsageError("scenario has no goal region")
    start = np.asarray(scenario.start, dtype=float)
    root = np.zeros(system.state_dim)
    root[: start.shape[0]] = start
    run = _Run(scenario, iterations, checkpoints, resolution)
    tree = SearchTree(root, control_dim=system.control_dim)
    if scenario.goal.contains(system.positions(root)[0]):
        return run, tree, run.trivial(_trajectory(tree, 0))
    return run, tree, None


def _extend(run, system, stream, tree, sel, admit):
    """Monte Carlo propagation from node sel, then the checks on the new edge.

    Returns (state, control, duration, cost) of the child, or None when
    admit(cost) refuses its cost or the trajectory is invalid; the
    trajectory is only checked once its cost is admitted.
    """
    traj, control, duration = monte_carlo_propagate(system, tree.config(sel), stream)
    cost = float(tree.cost[sel]) + duration
    if admit(cost) and run.checker.states_valid(system.positions(traj[1:])):
        return traj[-1], control, duration, cost
    return None


def sst_plan(
    scenario: Scenario,
    system: DynamicalSystem,
    stream,
    iterations: int,
    delta_bn: Optional[float] = None,
    delta_s: Optional[float] = None,
    shrink: Optional[tuple] = None,
    *,
    resolution: Optional[float] = None,
    checkpoints=None,
    audit_every: Optional[int] = None,
) -> PlanResult:
    """Sparse witness-pruned tree planner.

    Selection picks the cheapest active node within delta_bn of the random
    sample (nearest active node as fallback), propagation is Monte Carlo,
    and a new node survives only if it beats the representative of its
    local witness; displaced representatives deactivate and dead leaf
    chains are pruned.  With shrink=(xi, period) both radii contract
    geometrically every period iterations.
    """
    diag = scenario.diagonal
    delta_bn = 0.05 * diag if delta_bn is None else float(delta_bn)
    delta_s = 0.02 * diag if delta_s is None else float(delta_s)
    if not (delta_bn > 0.0 and delta_s > 0.0):
        raise UsageError("delta_bn and delta_s must be > 0")
    if shrink is not None:
        xi, period = shrink
        period = _whole(period)
        if not 0.0 < xi < 1.0:
            raise UsageError("shrink factor xi must lie in (0, 1)")
        if period < 1:
            raise UsageError("shrink period must be >= 1")
    run, tree, done = _kino_start(scenario, system, iterations, checkpoints, resolution)
    if done:
        return done

    # witness w's state is point w; its representative node and radius
    witnesses = NeighborIndex(system.state_dim)
    witnesses.insert(0, tree.config(0))
    wit_rep = [0]
    wit_radius = [delta_s]

    best = None
    best_traj = None

    for it in range(1, iterations + 1):
        run.samples += 1
        x_rand = system.sample_state(stream, scenario)
        run.nn_queries += 1
        dists = system.distances(tree.configs, x_rand)
        active = tree.active[: tree.size]
        near_mask = active & (dists <= delta_bn)
        if near_mask.any():
            costs = np.where(near_mask, tree.cost[: tree.size], np.inf)
            sel = int(np.argmin(costs))
        else:
            d_act = np.where(active, dists, np.inf)
            sel = int(np.argmin(d_act))

        child = _extend(run, system, stream, tree, sel, lambda cost: True)
        if child is not None:
            new_state, control, duration, new_cost = child
            # the system's metric, not the index's Euclidean scan
            wd = system.distances(witnesses.points, new_state)
            w = int(np.argmin(wd))
            if wd[w] > delta_s:
                w = len(witnesses)
                witnesses.insert(w, new_state)
                wit_rep.append(-1)
                wit_radius.append(delta_s)
                accept = True
            else:
                rep = wit_rep[w]
                accept = new_cost < float(tree.cost[rep])
                if accept:
                    tree.deactivate_and_prune(rep)
            if accept:
                nid = tree.add(new_state, sel, duration, control)
                wit_rep[w] = nid
                wit_radius[w] = delta_s
                if (scenario.goal.contains(system.positions(new_state)[0])
                        and (best is None or new_cost < best)):
                    best = new_cost
                    best_traj = _trajectory(tree, nid)

        if shrink is not None and it % period == 0:
            delta_bn *= xi
            delta_s *= xi

        if audit_every and it % audit_every == 0:
            _sst_audit(tree, system, witnesses, wit_rep, wit_radius)
        if it in run.due:
            run.record(it, best, tree.alive, max(0, tree.alive - 1))

    return run.result(best_traj, best)


def _sst_audit(tree, system, witnesses, wit_rep, wit_radius):
    """Witness exclusivity and membership, plus tree cost coherence."""
    if len(set(wit_rep)) != len(wit_rep):
        raise AuditError("two witnesses share a representative")
    active_ids = set(np.nonzero(tree.active[: tree.size])[0].tolist())
    if active_ids != set(wit_rep):
        raise AuditError("active nodes and witness representatives differ")
    for i, rep in enumerate(wit_rep):
        if not tree.active[rep]:
            raise AuditError(f"witness {i} has a dead representative")
        d = float(system.distances(tree.config(rep), witnesses.points[i])[0])
        if d > wit_radius[i] + 1e-12:
            raise AuditError(f"representative strayed {d} from witness {i}")
    tree.audit_costs()


def ao_rrt_plan(
    scenario: Scenario,
    system: DynamicalSystem,
    stream,
    iterations: int,
    cost_weight: float = 1.0,
    initial_bound: Optional[float] = None,
    *,
    resolution: Optional[float] = None,
    checkpoints=None,
    audit_every: Optional[int] = None,
) -> PlanResult:
    """Tree planner in the state-cost space with a shrinking cost bound.

    Samples carry a cost coordinate drawn uniformly in [0, current bound];
    the augmented metric is state distance plus cost_weight times the cost
    gap normalized by the initial bound.  Children above the bound are
    rejected; every new solution lowers the bound and prunes nodes above
    it, so the stored tree always respects the bound.
    """
    if not 0.0 <= cost_weight < math.inf:
        raise UsageError("cost_weight must be finite and >= 0")
    # generous duration-cost scale for unit-speed systems
    scale = 2.0 * scenario.diagonal
    if initial_bound is not None and not initial_bound > 0.0:
        raise UsageError("initial_bound must be > 0 (or infinite)")
    bound = scale if initial_bound is None else float(initial_bound)
    sample_scale = bound if math.isfinite(bound) else scale
    w_eff = cost_weight / sample_scale
    run, tree, done = _kino_start(scenario, system, iterations, checkpoints, resolution)
    if done:
        return done

    best = None
    best_traj = None
    bounds_hist = []
    # 0.0 on live rows, inf on rows a bound drop pruned: x + 0.0 == x exactly
    pruned = np.zeros(iterations + 1)

    for it in range(1, iterations + 1):
        run.samples += 1
        x_rand = system.sample_state(stream, scenario)
        c_rand = stream.next_uniform01() * (bound if math.isfinite(bound) else sample_scale)
        run.nn_queries += 1
        dists = system.distances(tree.configs, x_rand)
        gap = tree.cost[: tree.size] - c_rand
        dists += np.multiply(np.abs(gap, out=gap), w_eff, out=gap)
        dists += pruned[: tree.size]
        sel = int(np.argmin(dists))

        child = _extend(run, system, stream, tree, sel, lambda cost: cost <= bound)
        if child is not None:
            new_state, control, duration, new_cost = child
            nid = tree.add(new_state, sel, duration, control)
            if scenario.goal.contains(system.positions(new_state)[0]) and new_cost < bound:
                bound = best = new_cost
                best_traj = _trajectory(tree, nid)
                bounds_hist.append(bound)
                # drop everything the new bound rules out
                drop = tree.cost[: tree.size] > bound
                tree.active[: tree.size][drop] = False
                pruned[: tree.size][drop] = np.inf

        if audit_every and it % audit_every == 0:
            live_costs = tree.cost[: tree.size][tree.active[: tree.size]]
            if live_costs.size and float(live_costs.max()) > bound + 1e-12:
                raise AuditError("stored node exceeds the current cost bound")
            tree.audit_costs()
        if it in run.due:
            live_n = int(tree.active[: tree.size].sum())
            run.record(it, best, live_n, max(0, live_n - 1))

    return run.result(best_traj, best, bounds=bounds_hist)


def cost_bounded_rrt(
    scenario: Scenario,
    system: DynamicalSystem,
    stream,
    bound: float,
    iterations: int,
    *,
    resolution: Optional[float] = None,
) -> PlanResult:
    """Probabilistically complete building block for the meta loop.

    Monte Carlo tree search that refuses nodes at or above the bound and
    stops at the first goal-reaching trajectory (strictly below the
    bound); the path is None when the budget runs out.  The one
    checkpoint stat is taken where the search stops.
    """
    run, tree, done = _kino_start(scenario, system, iterations, None, resolution)
    if done:
        return done
    for it in range(1, iterations + 1):
        run.samples += 1
        x_rand = system.sample_state(stream, scenario)
        run.nn_queries += 1
        sel = int(np.argmin(system.distances(tree.configs, x_rand)))
        child = _extend(run, system, stream, tree, sel, lambda cost: cost < bound)
        if child is None:
            continue
        new_state, control, duration, new_cost = child
        nid = tree.add(new_state, sel, duration, control)
        if scenario.goal.contains(system.positions(new_state)[0]):
            run.record(it, new_cost, tree.size, tree.size - 1)
            return run.result(_trajectory(tree, nid), new_cost)
    run.record(iterations, None, tree.size, tree.size - 1)
    return run.result(None, None)


def ao_meta(
    planner: Callable,
    beta: float,
    rounds: int,
    budget: int,
) -> PlanResult:
    """Meta loop: run a cost-bounded planner with geometrically lowering bounds.

    planner(bound, budget) must return a PlanResult: either a path whose
    best_cost is strictly below the bound, with at least one checkpoint
    stat, or path None.  Round 1 runs unbounded; afterwards the bound is
    (1 - beta) times the best cost.  Stops after `rounds` rounds or the
    first round that times out.  Counters are summed over every round
    run.  Round k is recorded at n = the samples of rounds 1..k, with nodes
    and edges from its last stat and cumulative collision_checks and work.
    """
    t0 = time.perf_counter()
    if not 0.0 < beta < 1.0:
        raise UsageError("beta must lie strictly inside (0, 1)")
    if rounds < 1:
        raise UsageError("rounds must be >= 1")
    if budget < 1:
        raise UsageError("budget must be >= 1")

    best = None
    best_sol = None
    bounds_hist = []
    records = []
    stats = []
    totals = {"samples": 0, "collision_checks": 0, "nn_queries": 0, "rewires": 0}
    for k in range(1, rounds + 1):
        bound = math.inf if best is None else (1.0 - beta) * best
        out = planner(bound, budget)
        for key in totals:
            totals[key] += out.counters[key]
        if out.path is None:
            break
        if not out.best_cost < bound:
            raise UsageError("planner returned a solution at or above its bound")
        best = out.best_cost
        best_sol = out.path
        bounds_hist.append(best)
        records.append((totals["samples"], best))
        last = out.checkpoint_stats[-1]
        stats.append(
            _checkpoint_stat(totals["samples"], best, last["nodes"], last["edges"], totals))

    return PlanResult(
        path=best_sol,
        best_cost=best,
        checkpoints=records,
        counters={**totals, "rounds": len(bounds_hist)},
        elapsed_ms=(time.perf_counter() - t0) * 1e3,
        checkpoint_stats=stats,
        bounds=bounds_hist,
    )
