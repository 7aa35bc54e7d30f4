"""Kinematic asymptotically optimal planners and their neighborhood rules.

Implements the batch roadmap planner (radius and k-nearest variants), the
classic tree planner, and the rewiring tree planner, together with the
shrinking connection-radius formulas they rely on.  All planners are pure
functions of (scenario, stream, parameters): same seed, same result.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from heapq import heappush, heappop
from typing import Optional

import numpy as np

from .errors import AuditError, UsageError, _whole
from .geometry import (
    CollisionChecker,
    GoalRegion,
    Path,
    Scenario,
    as_config,
)
from .nn import (NeighborIndex, _pair_distances, distance, knn_lists, radius_pairs,
                 row_distances, unit_ball_volume)
from .sampling import sample_free, samples_free

RADIUS_RULES = ("prm_star", "fmt_star_constant", "rrt_star_revised", "k_prm_star", "fixed")


@dataclass(frozen=True)
class RadiusRule:
    """Parameterization of the connection-neighborhood formulas.

    mu is an upper bound on the free-space measure (the domain box volume
    is always safe since every formula is a lower bound on the radius).
    """

    rule: str
    d: int
    mu: float
    theta: float = 0.2
    nu: float = 0.5
    eps: float = 0.5
    c_star_estimate: Optional[float] = None
    safety_factor: float = 1.001
    gamma_det: float = 3.0
    fixed_radius: Optional[float] = None

    def __post_init__(self):
        if self.rule not in RADIUS_RULES:
            raise UsageError(f"unknown radius rule {self.rule!r}")
        if self.d < 1:
            raise UsageError("dimension must be >= 1")
        if not self.mu > 0.0:
            raise UsageError("measure upper bound mu must be > 0")
        if not 0.0 < self.theta < 0.25:
            raise UsageError("theta must lie in (0, 1/4)")
        if not 0.0 < self.nu < 1.0:
            raise UsageError("nu must lie in (0, 1)")
        if not 0.0 < self.eps < 1.0:
            raise UsageError("eps must lie in (0, 1)")
        if not self.safety_factor >= 1.0:
            raise UsageError("safety_factor must be >= 1")
        if not self.gamma_det > 2.0:
            raise UsageError("gamma_det must be > 2")
        if self.c_star_estimate is not None and not self.c_star_estimate > 0.0:
            raise UsageError("c_star_estimate must be > 0")
        if self.rule == "fixed" and not (self.fixed_radius or 0.0) > 0.0:
            raise UsageError("fixed rule needs fixed_radius > 0")


def default_rule(kind: str, scenario: Scenario, **kwargs) -> RadiusRule:
    return RadiusRule(rule=kind, d=scenario.dimension, mu=scenario.measure_upper, **kwargs)


def _radius_coefficient(rule: RadiusRule) -> float:
    """The n-independent factor of the radius formula (safety included)."""
    d = rule.d
    zeta = unit_ball_volume(d)
    if rule.rule == "prm_star":
        coef = 2.0 * (1.0 + 1.0 / d) ** (1.0 / d) * (rule.mu / zeta) ** (1.0 / d)
    elif rule.rule == "fmt_star_constant":
        coef = 2.0 * (1.0 / d) ** (1.0 / d) * (rule.mu / zeta) ** (1.0 / d)
    elif rule.rule == "rrt_star_revised":
        if rule.c_star_estimate is None:
            raise UsageError("rrt_star_revised needs a c_star_estimate")
        inner = ((1.0 + rule.eps / 4.0) * rule.c_star_estimate) / (
            (d + 1.0) * rule.theta * (1.0 - rule.nu)
        )
        coef = (2.0 + rule.theta) * inner ** (1.0 / (d + 1.0)) * (rule.mu / zeta) ** (
            1.0 / (d + 1.0)
        )
    else:
        raise UsageError(f"rule {rule.rule!r} does not define a radius")
    return rule.safety_factor * coef


def connection_radius(rule: RadiusRule, n: int) -> float:
    """Connection radius at sample count n for the configured rule."""
    if n < 2:
        raise UsageError("n must be >= 2 (log 1 degenerates the bound)")
    if rule.rule == "fixed":
        return rule.safety_factor * float(rule.fixed_radius)
    if rule.rule == "k_prm_star":
        raise UsageError("k_prm_star is a neighbor-count rule; use k_connection")
    exponent = 1.0 / (rule.d + 1.0) if rule.rule == "rrt_star_revised" else 1.0 / rule.d
    return _radius_coefficient(rule) * (math.log(n) / n) ** exponent


def k_connection(d: int, n: int) -> int:
    """Smallest integer strictly greater than e (1 + 1/d) ln n."""
    if d < 1:
        raise UsageError("dimension must be >= 1")
    if n < 2:
        raise UsageError("n must be >= 2")
    return int(math.floor(math.e * (1.0 + 1.0 / d) * math.log(n))) + 1


def rgg_connectivity_radius(d: int, n: int) -> float:
    """Radius above which the uniform random geometric graph is surely connected."""
    if d < 1:
        raise UsageError("dimension must be >= 1")
    if n < 2:
        raise UsageError("n must be >= 2")
    zeta = unit_ball_volume(d)
    return (1.0 / zeta) ** (1.0 / d) * (math.log(n) / n) ** (1.0 / d)


def steer(from_, toward, eta: float) -> np.ndarray:
    """Move from `from_` toward `toward`, at most eta away."""
    if not eta > 0.0:
        raise UsageError("eta must be > 0")
    a = as_config(from_)
    b = as_config(toward, a.shape[0], "steer target")
    return np.array(_steer(a.tolist(), b.tolist(), eta)[0])


def _steer(a: list, b: list, eta: float):
    """steer on lists of floats: (the new point, whether it is b itself)."""
    dist = distance(b, a)
    if dist <= eta:
        return b, True
    s = eta / dist
    return [x + s * (y - x) for x, y in zip(a, b)], False


# ---------------------------------------------------------------------------
# graph structures


@dataclass
class Roadmap:
    """Undirected weighted roadmap in compressed sparse row (CSR) form.

    Vertex v is row v of the (n, d) `vertices` array.  Its neighbours are
    indices[indptr[v]:indptr[v + 1]], ascending by id, with the matching
    edge weights in the same slice of `weights`; every edge is stored once
    from each end.
    """

    vertices: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    start_id: int
    goal_ids: list
    goal: Optional[GoalRegion] = None

    @classmethod
    def from_edges(cls, vertices, a, b, w, start_id: int, goal_ids,
                   goal: Optional[GoalRegion] = None) -> "Roadmap":
        """Roadmap whose undirected edges are the distinct pairs (a[i], b[i]) of weight w[i]."""
        vertices = np.asarray(vertices, dtype=float)
        n = vertices.shape[0]
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        w = np.asarray(w, dtype=float)
        if not a.shape == b.shape == w.shape or np.any((a < 0) | (a >= n) | (b < 0) | (b >= n)):
            raise UsageError("edges need equal-length a, b and w, with ids in [0, n)")
        # each edge once from each end, sorted by the key source * n + neighbour
        order = np.argsort(np.concatenate([a * n + b, b * n + a]))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(a, minlength=n) + np.bincount(b, minlength=n), out=indptr[1:])
        return cls(vertices, indptr, np.concatenate([b, a])[order], np.concatenate([w, w])[order],
                   start_id, list(goal_ids), goal)

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2

    def neighbors(self, v: int):
        """(ids, weights) of v's neighbours, ascending by id."""
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.indices[lo:hi], self.weights[lo:hi]


class SearchTree(NeighborIndex):
    """Rooted tree with cached cost-from-start, shared by every tree planner.

    The tree is the NeighborIndex of its node configurations: node nid is
    point nid, so the planners query the tree itself.  Each node also
    stores its parent, the length of the edge to its parent (a duration in
    a kinodynamic tree), its cost, an active flag, its children and a
    control of width control_dim (0 unless the edges are propagated
    controls).  Stored costs always equal the parent-chain sum: reparenting
    recomputes the whole moved subtree.  `alive` counts the nodes still
    attached to the root; it equals `size` unless deactivate_and_prune
    dropped some.
    """

    def __init__(self, root_config: np.ndarray, capacity: int = 256, control_dim: int = 0):
        super().__init__(root_config.shape[0], capacity)
        capacity = self._points.shape[1]  # at least 1
        self.controls = np.zeros((capacity, control_dim))
        self.parent = np.full(capacity, -1, dtype=np.int64)
        self.edge_len = np.zeros(capacity)
        self.cost = np.zeros(capacity)
        self.active = np.zeros(capacity, dtype=bool)
        self.children = []
        self.alive = 0
        # not self.add: a subclass add may take its own node payload
        SearchTree.add(self, root_config, -1, 0.0)

    @property
    def size(self) -> int:
        return self._size

    configs = NeighborIndex.points

    def _grow(self) -> None:
        for name in ("controls", "parent", "edge_len", "cost", "active"):
            col = getattr(self, name)
            setattr(self, name, np.concatenate([col, np.zeros_like(col)]))

    def add(self, config, parent: int, edge_len: float, control=None) -> int:
        nid = self._size
        if nid == self.parent.shape[0]:
            self._grow()
        self.insert(nid, config)
        if control is not None:
            self.controls[nid] = control
        self.parent[nid] = parent
        self.edge_len[nid] = edge_len
        self.cost[nid] = edge_len if parent < 0 else self.cost[parent] + edge_len
        self.active[nid] = True
        self.children.append([])
        if parent >= 0:
            self.children[parent].append(nid)
        self.alive += 1
        return nid

    def config(self, nid: int) -> np.ndarray:
        return self._points[:, nid]

    def reparent(self, nid: int, new_parent: int, new_edge_len: float) -> None:
        # a parent inside nid's own subtree would close a cycle
        w = new_parent
        while w >= 0:
            if w == nid:
                raise UsageError(f"cannot reparent node {nid} onto itself or a descendant")
            w = self.parent[w]
        old = self.parent[nid]
        if old >= 0:
            self.children[old].remove(nid)
        self.parent[nid] = new_parent
        self.edge_len[nid] = new_edge_len
        self.children[new_parent].append(nid)
        # propagate immediately so cost coherence holds at any point
        stack = [nid]
        while stack:
            w = stack.pop()
            p = self.parent[w]
            self.cost[w] = self.cost[p] + self.edge_len[w] if p >= 0 else 0.0
            stack.extend(self.children[w])

    def deactivate_and_prune(self, nid: int) -> None:
        """Deactivate nid, then drop any resulting chain of dead leaves.

        A dropped node leaves its parent's children list and gets parent -1;
        the walk stops at an active node, a node with children or the root.
        """
        self.active[nid] = False
        w = nid
        while w > 0 and self.parent[w] >= 0 and not self.active[w] and not self.children[w]:
            p = self.parent[w]
            self.children[p].remove(w)
            self.parent[w] = -1
            self.alive -= 1
            w = p

    def trace(self, nid: int) -> list:
        """Node ids from the root to nid."""
        out = []
        while nid >= 0:
            out.append(int(nid))
            nid = self.parent[nid]
        out.reverse()
        return out

    def audit_costs(self, tol: float = 1e-9) -> None:
        """Raise AuditError unless stored costs equal the parent-chain sums.

        Walks the children lists from the root: each reached node must name
        the node that lists it as its parent and store that parent's cost
        plus its edge length, and exactly `alive` nodes must be reached.
        """
        seen = 0
        stack = [(0, -1)]
        while stack:
            w, p = stack.pop()
            if self.parent[w] != p:
                raise AuditError(f"node {w} is listed under {p} but names parent {self.parent[w]}")
            want = 0.0 if p < 0 else self.cost[p] + self.edge_len[w]
            if abs(self.cost[w] - want) > tol:
                raise AuditError(
                    f"cost mismatch at node {w}: stored {self.cost[w]}, chain {want}"
                )
            seen += 1
            stack.extend((c, w) for c in self.children[w])
        if seen != self.alive:
            raise AuditError("tree contains unreachable or cyclic nodes")


@dataclass
class PlanResult:
    """Outcome of one planner run.

    checkpoints holds (n, best_cost_or_None) pairs; checkpoint_stats holds
    the per-checkpoint counter snapshots the benchmark harness persists.
    """

    path: Optional[object]
    best_cost: Optional[float]
    checkpoints: list
    counters: dict
    elapsed_ms: float
    checkpoint_stats: list = field(default_factory=list)
    roadmap: Optional[Roadmap] = None
    roadmaps: Optional[list] = None
    bounds: Optional[list] = None


class _Run:
    """One planner execution: checker, checkpoints, clock, counters and records.

    Planners record a checkpoint with `if it in run.due: run.record(...)`.
    """

    def __init__(self, scenario, n, checkpoints, resolution=None, margin=0.0):
        self.t0 = time.perf_counter()
        self.scenario = scenario
        self.checker = CollisionChecker(scenario, resolution, margin)
        self.checkpoints = [n] if checkpoints is None else _checkpoint_list(checkpoints)
        if self.checkpoints[-1] > n:
            raise UsageError("checkpoints cannot exceed n")
        self.due = set(self.checkpoints)
        self.records = []
        self.stats = []
        self.samples = 0
        self.nn_queries = 0
        self.rewires = 0

    def counters(self) -> dict:
        return {"samples": self.samples, "collision_checks": self.checker.checks,
                "nn_queries": self.nn_queries, "rewires": self.rewires}

    def record(self, n, cost, nodes, edges) -> None:
        self.records.append((n, cost))
        self.stats.append(_checkpoint_stat(n, cost, nodes, edges, self.counters()))

    def tree_checkpoint(self, it, tree, goal_nodes) -> None:
        """At a due iteration, record the cheapest goal node's cost and the tree's size."""
        if it in self.due:
            top = _cheapest(tree, goal_nodes)
            self.record(it, None if top is None else top[0], tree.size, tree.size - 1)

    def trivial(self, path) -> PlanResult:
        """Result for a start already inside the goal: the one-state path at cost 0."""
        for c in self.checkpoints:
            self.record(c, 0.0, 1, 0)
        return self.result(path, 0.0)

    def result(self, path, best, **extra) -> PlanResult:
        return PlanResult(
            path=path,
            best_cost=best,
            checkpoints=self.records,
            counters=self.counters(),
            elapsed_ms=(time.perf_counter() - self.t0) * 1e3,
            checkpoint_stats=self.stats,
            **extra,
        )


def _checkpoint_list(checkpoints) -> list:
    """The checkpoints as strictly ascending positive whole numbers, or UsageError."""
    cps = [_whole(c) for c in checkpoints]
    if not cps or cps[0] <= 0 or any(a >= b for a, b in zip(cps, cps[1:])):
        raise UsageError("checkpoints must be strictly ascending positive integers")
    return cps


def _checkpoint_stat(n, cost, nodes, edges, counters) -> dict:
    """One checkpoint's record: work is the sum of the run's counters."""
    return {"n": n, "cost": cost, "nodes": nodes, "edges": edges,
            "collision_checks": counters["collision_checks"], "work": sum(counters.values())}


def _kinematic_start(run, start, goal):
    """Check the goal and, counted, the start: (start, None), or (start, trivial result)."""
    if goal is None:
        raise UsageError("scenario has no goal region")
    start = as_config(start, run.scenario.dimension)
    if not run.checker.point_valid(start):
        raise UsageError("start configuration is invalid")
    if goal.contains(start):
        return start, run.trivial(Path(waypoints=(start.copy(),), cost=0.0))
    return start, None


def _cheapest(tree, nodes):
    """(cost, id) of the cheapest of the given tree nodes, lowest id on ties; None if empty."""
    return min(((float(tree.cost[g]), g) for g in nodes), default=None)


# ---------------------------------------------------------------------------
# shortest path


def shortest_path(roadmap: Roadmap) -> Optional[Path]:
    """Minimum-cost start-to-goal-set path by A*.

    The heuristic is the Euclidean distance to the goal-ball center minus
    the goal radius, clamped at zero (admissible and consistent); without
    a goal region it degrades to Dijkstra.  It is read from one table per
    call, `heur`, built over all vertices.
    """
    goals = set(roadmap.goal_ids)
    if not goals:
        return None
    start = roadmap.start_id

    n = roadmap.vertices.shape[0]
    if roadmap.goal is not None:
        dists = row_distances(roadmap.vertices, roadmap.goal.center)
        heur = np.maximum(dists - roadmap.goal.radius, 0.0).tolist()
    else:
        heur = [0.0] * n

    indptr = roadmap.indptr.tolist()
    dist = [math.inf] * n
    dist[start] = 0.0
    parent = [-1] * n
    closed = bytearray(n)
    heap = [(heur[start], start)]
    found = None
    while heap:
        f, v = heappop(heap)
        if closed[v]:
            continue
        closed[v] = 1
        if v in goals:
            found = v
            break
        dv = dist[v]
        lo, hi = indptr[v], indptr[v + 1]
        for u, w in zip(roadmap.indices[lo:hi].tolist(), roadmap.weights[lo:hi].tolist()):
            nd = dv + w
            if nd < dist[u]:
                dist[u] = nd
                parent[u] = v
                heappush(heap, (nd + heur[u], u))
    if found is None:
        return None
    ids = []
    v = found
    while v != -1:
        ids.append(v)
        v = parent[v]
    ids.reverse()
    waypoints = tuple(roadmap.vertices[i].copy() for i in ids)
    return Path(waypoints=waypoints, cost=dist[found])


# ---------------------------------------------------------------------------
# roadmap planner


def _connect_prefix(run, configs, nv, rule, goal_region):
    """Build the roadmap over the first nv stored configurations."""
    d = run.scenario.dimension
    # the neighborhoods cover exactly this prefix, so they never see
    # samples from a later checkpoint
    pts = configs[:nv]
    n_for_rule = max(nv, 2)
    use_k = rule.rule == "k_prm_star"
    if use_k:
        a, b = knn_lists(pts, k_connection(d, n_for_rule))
    else:
        a, b = radius_pairs(pts, connection_radius(rule, n_for_rule))
    # one neighborhood query per vertex
    run.nn_queries += nv
    # canonical (min, max) orientation
    a, b = np.minimum(a, b), np.maximum(a, b)
    if use_k:
        # directed k-lists may repeat a pair from both sides; the roadmap
        # does not depend on the order its edges come in
        key = np.sort(a * np.int64(nv) + b)
        key = key[np.diff(key, prepend=-1) != 0]
        a, b = np.divmod(key, nv)
    weights = _pair_distances(pts, a, b)
    keep = run.checker.edges_valid(pts, a, b, weights)
    # one at a time, so only one unfiltered array is copied at once
    a = a[keep]
    b = b[keep]
    weights = weights[keep]

    ball = row_distances(pts, goal_region.center) <= goal_region.radius
    goal_ids = sorted({1, *np.nonzero(ball)[0].tolist()})
    return Roadmap.from_edges(pts, a, b, weights, 0, goal_ids, goal_region)


def prm_star(
    scenario: Scenario,
    stream,
    n: int,
    rule: Optional[RadiusRule] = None,
    *,
    resolution: Optional[float] = None,
    checkpoints=None,
    max_attempts: int = 10_000,
    start=None,
    goal: Optional[GoalRegion] = None,
    margin: float = 0.0,
) -> PlanResult:
    """Batch roadmap planner over n free samples, solved by A*.

    The vertex set is {start, goal center} plus n free-space samples; each
    vertex connects to its shrinking neighborhood (radius rule, or k rule
    for k_prm_star) through validated edges.  Returns the best path at
    each checkpoint prefix; no path is a result, not an error.
    """
    if n < 2:
        raise UsageError("n must be >= 2")
    rule = rule if rule is not None else default_rule("prm_star", scenario)
    run = _Run(scenario, n, checkpoints, resolution, margin)
    goal = goal if goal is not None else scenario.goal
    start, done = _kinematic_start(run, start if start is not None else scenario.start, goal)
    if done:
        return done

    samples = samples_free(stream, scenario, n, max_attempts, margin)
    configs = np.vstack([start, goal.center, samples])
    run.samples += n

    if stream.kind == "halton" and rule.rule not in ("k_prm_star",):
        # deterministic-sampling guard: the radius must dominate the
        # dispersion bound n^(-1/d) by the configured factor; the ratio
        # grows with n, so the first checkpoint prefix is the binding one
        nv = run.checkpoints[0] + 2
        r_first = connection_radius(rule, nv)
        bound = rule.gamma_det * nv ** (-1.0 / scenario.dimension)
        if r_first < bound:
            raise UsageError(
                f"halton run fails the dispersion guard: r_n={r_first:.6g} < "
                f"{rule.gamma_det} * n^(-1/d)={bound:.6g}; increase n"
            )

    roadmap = None
    path = None
    for c in run.checkpoints:
        roadmap = _connect_prefix(run, configs, c + 2, rule, goal)
        path = shortest_path(roadmap)
        run.record(c, path.cost if path is not None else None, c + 2, roadmap.num_edges)

    best = run.records[-1][1]
    return run.result(path if best is not None else None, best, roadmap=roadmap)


# ---------------------------------------------------------------------------
# tree planners


def _tree_start(scenario, n, eta, goal_bias, checkpoints, resolution):
    """Check the shared tree parameters: (run, rooted tree, trivial result or None)."""
    if n < 2:
        raise UsageError("n must be >= 2")
    if not eta > 0.0:
        raise UsageError("eta must be > 0")
    if not 0.0 <= goal_bias <= 1.0:
        raise UsageError("goal_bias must lie in [0, 1]")
    run = _Run(scenario, n, checkpoints, resolution)
    start, done = _kinematic_start(run, scenario.start, scenario.goal)
    return run, SearchTree(start), done


def _extension(run, tree, stream, eta, goal_bias, max_attempts):
    """Draw a target (the goal centre at rate goal_bias) and steer from its nearest node.

    Counts the sample and the nearest query.  Returns (nearest id, new
    configuration as a list of floats, edge check), or None when the step
    stays put.  The check takes the new configuration and a node as lists.
    Nodes are known free (the root passed point_valid, the rest a checked
    edge), so when the new configuration is the free sample itself the
    check skips the end tests.
    """
    run.samples += 1
    if stream.next_uniform01() < goal_bias:
        target, drawn = run.scenario.goal.center, False
    else:
        target, drawn = sample_free(stream, run.scenario, max_attempts, run.checker.margin), True
    run.nn_queries += 1
    near = tree.nearest_id(target)
    a = tree.config(near).tolist()
    v, reached = _steer(a, target.tolist(), eta)
    check = run.checker._edge_between_free if reached and drawn else run.checker.edge_valid
    return None if v == a else (near, v, check)


def _tree_result(run, tree, goal_nodes) -> PlanResult:
    """Result for the root-to-node path of the cheapest goal node, or no path."""
    top = _cheapest(tree, goal_nodes)
    if top is None:
        return run.result(None, None)
    best, node = top
    return run.result(Path(waypoints=tuple(tree.configs[tree.trace(node)]), cost=best), best)


def rrt(
    scenario: Scenario,
    stream,
    n: int,
    eta: float,
    goal_bias: float = 0.05,
    *,
    resolution: Optional[float] = None,
    checkpoints=None,
    max_attempts: int = 10_000,
) -> PlanResult:
    """Classic tree planner: the first goal-ball connection fixes the path."""
    run, tree, done = _tree_start(scenario, n, eta, goal_bias, checkpoints, resolution)
    if done:
        return done
    goal_nodes = []
    for it in range(1, n + 1):
        step = _extension(run, tree, stream, eta, goal_bias, max_attempts)
        if step is not None:
            near, v, check_edge = step
            a = tree.config(near).tolist()
            if check_edge(v, a):
                vid = tree.add(v, near, distance(v, a))
                if not goal_nodes and scenario.goal.contains(v):
                    goal_nodes.append(vid)
        run.tree_checkpoint(it, tree, goal_nodes)
    return _tree_result(run, tree, goal_nodes)


def rrt_star(
    scenario: Scenario,
    stream,
    n: int,
    eta: float,
    rule: Optional[RadiusRule] = None,
    goal_bias: float = 0.05,
    *,
    eta_max: Optional[float] = None,
    resolution: Optional[float] = None,
    checkpoints=None,
    max_attempts: int = 10_000,
    audit_every: Optional[int] = None,
) -> PlanResult:
    """Rewiring tree planner.

    Per iteration: sample, steer from the nearest node and collect the
    neighborhood within min(rule radius, eta_max), ids ascending.  Edges
    are validated lazily.  The parent is the first neighbor with a valid
    edge in (cost + dist, dist, id) order: each step takes the argmin of
    cost + dist over the unchecked rest, and an exact tie the argmin of
    dist, whose first minimum is the lowest id.  Then each neighbor whose
    cost the new node would lower, in (dist, id) order by a stable sort of
    those few, is rewired if its edge is valid (a verdict from the parent
    walk is reused), propagating cost updates immediately.  collision_checks
    counts the edges actually checked.  Until a first solution exists the
    radius rule runs on a conservative optimal-cost estimate (domain
    diagonal times dimension); after that, on the first solution's cost.
    """
    rule = rule if rule is not None else default_rule("rrt_star_revised", scenario)
    if rule.rule == "k_prm_star":
        raise UsageError("rrt_star needs a radius rule, not the k rule")
    eta_max = 2.0 * eta if eta_max is None else float(eta_max)
    if not eta_max > 0.0:
        raise UsageError("eta_max must be > 0")
    run, tree, done = _tree_start(scenario, n, eta, goal_bias, checkpoints, resolution)
    if done:
        return done
    if rule.rule == "rrt_star_revised" and rule.c_star_estimate is None:
        rule = replace(rule, c_star_estimate=scenario.diagonal * scenario.dimension)

    goal_nodes = []
    for it in range(1, n + 1):
        step = _extension(run, tree, stream, eta, goal_bias, max_attempts)
        if step is not None:
            _, v, check_edge = step
            r = min(connection_radius(rule, max(tree.size, 2)), eta_max)
            run.nn_queries += 1
            ids, dists = tree.within_radius(v, r)
            cost = tree.cost[ids]  # adding v leaves these costs as they are
            through = cost + dists
            valid = {}  # edge verdicts by position in the near set, shared with the rewire walk
            pick = -1
            for _ in range(ids.shape[0]):
                j = int(through.argmin())
                tied = (through == through[j]).nonzero()[0]
                j = int(tied[dists[tied].argmin()]) if tied.shape[0] > 1 else j
                valid[j] = check_edge(v, tree.config(ids[j]).tolist())
                if valid[j]:
                    pick = j
                    break
                through[j] = math.inf
            if pick >= 0:
                vid = tree.add(v, int(ids[pick]), float(dists[pick]))
                if scenario.goal.contains(v):
                    if not goal_nodes and rule.rule == "rrt_star_revised":
                        rule = replace(rule, c_star_estimate=float(tree.cost[vid]))
                    goal_nodes.append(vid)
                base = tree.cost[vid]
                cand = (base + dists < cost).nonzero()[0]
                for j in cand[dists[cand].argsort(kind="stable")].tolist():
                    u = int(ids[j])
                    if base + dists[j] < tree.cost[u]:
                        if j not in valid:
                            valid[j] = check_edge(v, tree.config(u).tolist())
                        if valid[j]:
                            tree.reparent(u, vid, float(dists[j]))
                            run.rewires += 1
        if audit_every and it % audit_every == 0:
            tree.audit_costs()
        run.tree_checkpoint(it, tree, goal_nodes)
    return _tree_result(run, tree, goal_nodes)
