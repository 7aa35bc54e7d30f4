"""Implicit tensor-roadmap search for disc robots sharing one workspace.

Each robot gets its own roadmap over its inflated-obstacle free space; the
planner grows a tree over tuples of per-robot roadmap vertices (the
implicit product graph) without ever materializing that product.  A
tensor vertex is represented as a plain tuple of per-robot vertex ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Tuple

import numpy as np

from .errors import AuditError, SaturationError, UsageError
from .geometric import PlanResult, SearchTree, _Run, _cheapest, prm_star
from .geometry import Scenario, _check_resolution, _composite_free, points_valid
from .nn import distance, row_distances

# a tensor vertex is one roadmap vertex id per robot
TensorVertex = Tuple[int, ...]


@dataclass(frozen=True)
class CompositeConfig:
    """Positions of all robots plus their radii."""

    per_robot: tuple
    robot_radii: tuple


@dataclass(frozen=True)
class CompositePath:
    """Synchronized multi-robot solution: equal-length per-robot waypoint arrays."""

    per_robot: tuple
    cost: float


def build_per_robot_roadmaps(
    scenario: Scenario,
    robots,
    stream,
    n: int,
    rule=None,
    *,
    resolution: Optional[float] = None,
    max_attempts: int = 10_000,
):
    """One roadmap per robot over its radius-inflated free space."""
    robots = tuple(robots) if robots is not None else scenario.robots
    if not robots:
        raise UsageError("scenario defines no robots")
    roadmaps = []
    for i, rb in enumerate(robots):
        if not points_valid(scenario, rb.start[None, :], margin=rb.radius)[0]:
            raise SaturationError(
                f"robot {i} cannot stand at its start: inflated obstacles "
                "saturate its free space"
            )
        res = prm_star(
            scenario,
            stream,
            n,
            rule,
            resolution=resolution,
            max_attempts=max_attempts,
            start=rb.start,
            goal=rb.goal,
            margin=rb.radius,
        )
        roadmaps.append(res.roadmap)
    return roadmaps


def composite_edge_valid(scenario: Scenario, a: CompositeConfig, b: CompositeConfig,
                         rho: float) -> bool:
    """Synchronized linear motion check at parameter spacing <= rho.

    Every sampled composite configuration must keep each robot inside its
    inflated free space and every robot pair at least the sum of their
    radii apart.
    """
    if len(a.per_robot) != len(b.per_robot):
        raise UsageError("composite configurations have different robot counts")
    if tuple(a.robot_radii) != tuple(b.robot_radii):
        raise UsageError("composite configurations have different robot radii")
    _check_resolution(rho)
    pa, pb = ([p if type(p) is list else list(map(float, p)) for p in c.per_robot] for c in (a, b))
    if not pa or any(len(p) != scenario.dimension for p in pa + pb):
        raise UsageError(f"composite configurations need {scenario.dimension}-D positions")
    return _composite_free(scenario._bounds, pa, pb, list(map(float, a.robot_radii)), rho)


class _TensorTree(SearchTree):
    """Tree over discovered tensor vertices; never enumerates the product graph.

    A node's configuration is its key, one int64 roadmap vertex id per
    robot, so column nid of the tree's store feeds the distance tables;
    positions come from the roadmaps, and the tree bookkeeping is
    SearchTree's.
    """

    def __init__(self, scenario, roadmaps, radii, rho, root_key):
        self.scenario = scenario
        self.roadmaps = roadmaps
        self.radii = tuple(radii)
        self.rho = rho
        self.r = len(roadmaps)
        self.d = scenario.dimension
        self.keys = [root_key]
        self.key_to_id = {root_key: 0}
        # per robot: vertex -> closed_neighborhood(i, vertex)
        self.closed = [{} for _ in range(self.r)]
        # per robot: inf over its roadmap vertices between neighbour passes
        self.step_tables = [np.full(len(rm.vertices), np.inf) for rm in roadmaps]
        # unordered key pair -> composite edge verdict
        self.edge_verdict = {}
        # per robot: its roadmap's positions as lists of floats, for composite()
        self.positions = [rm.vertices.tolist() for rm in roadmaps]
        super().__init__(np.array(root_key, dtype=float))
        # the store grows by empty_like, so int64 keys stay int64
        self._points[:, 1:] = 0.0
        self._points = self._points.astype(np.int64)

    def composite(self, key) -> CompositeConfig:
        return CompositeConfig(tuple(pos[v] for pos, v in zip(self.positions, key)), self.radii)

    def add(self, key, parent: int, edge_cost: float) -> int:
        nid = super().add(key, parent, edge_cost)
        self.keys.append(key)
        self.key_to_id[key] = nid
        return nid

    def distances(self, q_flat: np.ndarray) -> np.ndarray:
        """Summed per-robot Euclidean distance from q_flat to every tree vertex.

        One table per robot over its roadmap vertices, gathered through the
        tree's key columns and summed robot after robot.
        """
        dist = 0.0
        for rm, col, q in zip(self.roadmaps, self.configs.T, q_flat.reshape(self.r, self.d)):
            dist = dist + row_distances(rm.vertices, q)[col]
        return dist

    def nearest(self, q_flat: np.ndarray) -> int:
        """Tree vertex with the least distances entry; ties go to the lowest id."""
        return int(np.argmin(self.distances(q_flat)))

    def closed_neighborhood(self, i: int, v: int):
        """Sorted ids of robot i's vertex v and its roadmap neighbours, coordinates, step lengths."""
        got = self.closed[i].get(v)
        if got is None:
            rm = self.roadmaps[i]
            nbrs = rm.neighbors(v)[0]
            ids = np.insert(nbrs, np.searchsorted(nbrs, v), v)
            coords = rm.vertices[ids]
            got = self.closed[i][v] = (ids, coords, row_distances(coords, rm.vertices[v]))
        return got

    def discovered_neighbors(self, key):
        """Other tree vertices adjacent to key in the product graph: ascending ids, weights.

        Each robot's steps from key's vertex are gathered through its inf
        table and summed robot after robot: a weight is finite exactly when
        every robot stands on key's vertex or a roadmap neighbour of it.
        """
        total = 0.0
        for i, (table, col) in enumerate(zip(self.step_tables, self.configs.T)):
            ids, _, steps = self.closed_neighborhood(i, key[i])
            table[ids] = steps
            total = total + table[col]
            table[ids] = np.inf
        own = self.key_to_id.get(key)
        if own is not None:
            total[own] = np.inf
        ids = np.flatnonzero(total < np.inf)
        return ids, total[ids]

    def valid_edge_to(self, checker_counter, ka, kb) -> bool:
        """composite_edge_valid with a per-run memo of both verdicts on unordered key pairs."""
        pair = (ka, kb) if ka <= kb else (kb, ka)
        ok = self.edge_verdict.get(pair)
        if ok is None:
            checker_counter.checks += 1
            ok = self.edge_verdict[pair] = composite_edge_valid(
                self.scenario, self.composite(ka), self.composite(kb), self.rho)
        return ok

    def audit_costs(self, tol: float = 1e-9) -> None:
        """Recheck every stored edge length as a sum of per-robot distances, then the core audit."""
        for nid in range(1, self.size):
            pairs = zip(self.positions, self.keys[nid], self.keys[self.parent[nid]])
            want = sum(distance(pos[a], pos[b]) for pos, a, b in pairs)
            if abs(self.edge_len[nid] - want) > tol:
                raise AuditError(f"tensor tree edge length mismatch at {nid}")
        super().audit_costs(tol)


def _expand_candidate(tree: _TensorTree, q_rand: np.ndarray):
    """Greedy componentwise step from the tree vertex nearest to q_rand.

    q_rand is the composite sample flattened to (r * d,), robot after
    robot.  Each robot moves to the roadmap neighbour (staying put
    allowed) closest to its component of q_rand, ties to the lower vertex
    id.  Returns (source_id, new_key) or None when no robot moves; the
    composite edge is not validated here.
    """
    near = tree.nearest(q_rand)
    key = tree.keys[near]
    new_key = []
    for i, target in enumerate(q_rand.reshape(tree.r, tree.d)):
        ids, coords, _ = tree.closed_neighborhood(i, key[i])
        # argmin over the sorted ids keeps the (distance, id) tie-break
        new_key.append(int(ids[np.argmin(row_distances(coords, target))]))
    new_key = tuple(new_key)
    if new_key == key:
        return None
    return near, new_key


def drrt_star(
    scenario: Scenario,
    robots,
    stream,
    n_roadmap: int,
    iterations: int,
    rule=None,
    *,
    goal_bias: float = 0.1,
    resolution: Optional[float] = None,
    checkpoints=None,
    max_attempts: int = 10_000,
    audit_every: Optional[int] = None,
) -> PlanResult:
    """Tree search over the implicit tensor roadmap with rewiring.

    Each iteration steps greedily from the tree vertex nearest to a random
    composite sample: every robot moves to the roadmap neighbour (or stays)
    closest to its component of the sample.  The composite goal
    configuration is the sample at rate goal_bias (expansions cannot
    otherwise hit the measure-zero goal tuple at desk scale); a newly
    discovered vertex picks the cheapest valid parent among discovered
    adjacent vertices and then tries to rewire them through itself.
    Composite cost is the sum of per-robot path lengths.
    """
    if iterations < 1:
        raise UsageError("iterations must be >= 1")
    if not 0.0 <= goal_bias <= 1.0:
        raise UsageError("goal_bias must lie in [0, 1]")
    robots = tuple(robots) if robots is not None else scenario.robots
    if not robots:
        raise UsageError("scenario defines no robots")
    run = _Run(scenario, iterations, checkpoints, resolution)
    rho = run.checker.resolution

    roadmaps = build_per_robot_roadmaps(
        scenario, robots, stream, n_roadmap, rule,
        resolution=rho, max_attempts=max_attempts,
    )
    radii = tuple(rb.radius for rb in robots)
    root_key = tuple(0 for _ in robots)
    tree = _TensorTree(scenario, roadmaps, radii, rho, root_key)

    for i, j in combinations(range(len(robots)), 2):
        if distance(tree.positions[i][0], tree.positions[j][0]) < radii[i] + radii[j]:
            raise UsageError(f"robots {i} and {j} overlap at their starts")

    goal_sets = [set(rm.goal_ids) for rm in roadmaps]

    def is_goal(key) -> bool:
        return all(v in goals for v, goals in zip(key, goal_sets))

    goal_ids = [0] if is_goal(root_key) else []
    goal_sample = np.concatenate([rb.goal.center for rb in robots])

    def settle(key, nid) -> None:
        """Choose-parent, then rewire, over one pass of key's discovered neighbours.

        A key not in the tree yet (nid None) joins it under the first
        neighbour with a valid edge; a tree vertex moves only to a strictly
        cheaper one, so the root (cost 0) never moves.
        """
        ids, weights = tree.discovered_neighbors(key)
        # stable over ascending ids: the (cost + weight, id) order
        order = np.argsort(tree.cost[ids] + weights, kind="stable")
        ids, weights = ids[order], weights[order]
        for c, w in zip(ids.tolist(), weights.tolist()):
            if nid is not None and tree.cost[c] + w >= tree.cost[nid]:
                break
            if tree.valid_edge_to(run.checker, tree.keys[c], key):
                if nid is None:
                    nid = tree.add(key, c, w)
                    if is_goal(key):
                        goal_ids.append(nid)
                else:
                    tree.reparent(nid, c, w)
                    run.rewires += 1
                break
        if nid is None:
            return
        # a candidate failing now fails for the rest of the loop: rewiring
        # only lowers costs, and no ancestor of nid (its parent included)
        # ever passes, so cost[nid] stays put
        keep = tree.cost[nid] + weights < tree.cost[ids]
        for c, w in zip(ids[keep].tolist(), weights[keep].tolist()):
            if (tree.cost[nid] + w < tree.cost[c]
                    and tree.valid_edge_to(run.checker, key, tree.keys[c])):
                tree.reparent(c, nid, w)
                run.rewires += 1

    for it in range(1, iterations + 1):
        run.samples += 1
        if stream.next_uniform01() < goal_bias:
            q_rand = goal_sample
        else:
            q_rand = np.concatenate([stream.next_point(scenario.domain) for _ in robots])
        run.nn_queries += 1
        expansion = _expand_candidate(tree, q_rand)
        if expansion is not None:
            new_key = expansion[1]
            settle(new_key, tree.key_to_id.get(new_key))
        # deterministic sweep so relaxations reach vertices greedy
        # expansion never targets; keeps the discovered subgraph at the
        # Bellman fixed point given enough iterations
        sweep = it % tree.size
        settle(tree.keys[sweep], sweep)
        if audit_every and it % audit_every == 0:
            tree.audit_costs()
        run.tree_checkpoint(it, tree, goal_ids)

    top = _cheapest(tree, goal_ids)
    if top is None:
        return run.result(None, None, roadmaps=roadmaps)
    best, node = top
    # key column i along the path holds robot i's roadmap vertices
    path_keys = tree.configs[tree.trace(node)].T
    per_robot = tuple(rm.vertices[col] for rm, col in zip(roadmaps, path_keys))
    return run.result(CompositePath(per_robot=per_robot, cost=best), best, roadmaps=roadmaps)
