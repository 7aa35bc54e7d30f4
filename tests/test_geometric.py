import dataclasses
import heapq
import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aoplan import (
    AuditError,
    GoalRegion,
    HaltonStream,
    Roadmap,
    SearchTree,
    UniformStream,
    UsageError,
    cost_bounded_rrt,
    default_rule,
    edge_valid,
    path_cost,
    prm_star,
    rrt,
    rrt_star,
    run_planner,
    scenario_from_dict,
    shortest_path,
    single_integrator_2d,
)
from aoplan.nn import distance, row_distances

from conftest import OPT_BOX, OPT_EMPTY, pocket_scenario


def adjacent(roadmap, v):
    """v's neighbours as {id: weight}."""
    ids, weights = roadmap.neighbors(v)
    return dict(zip(ids.tolist(), weights.tolist()))


def dijkstra_reference(roadmap):
    """Plain Dijkstra over the roadmap, goal set = roadmap.goal_ids."""
    dist = {roadmap.start_id: 0.0}
    heap = [(0.0, roadmap.start_id)]
    done = set()
    goals = set(roadmap.goal_ids)
    while heap:
        dv, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        if v in goals:
            return dv
        for u, w in adjacent(roadmap, v).items():
            nd = dv + w
            if nd < dist.get(u, math.inf):
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return None


# --- roadmap planner --------------------------------------------------------


def test_prm_star_empty_square_reaches_near_optimal(empty_square):
    res = prm_star(empty_square, UniformStream(2, 7), 2000)
    assert res.best_cost is not None
    assert res.best_cost <= 1.19
    assert res.best_cost >= OPT_EMPTY - empty_square.goal.radius - 1e-9
    assert res.path.cost == pytest.approx(res.best_cost, abs=1e-12)
    assert np.allclose(res.path.waypoints[0], empty_square.start)
    end_gap = np.linalg.norm(res.path.waypoints[-1] - empty_square.goal.center)
    assert end_gap <= empty_square.goal.radius + 1e-12


def test_prm_star_path_edges_are_valid(empty_square):
    res = prm_star(empty_square, UniformStream(2, 1), 500)
    rho = empty_square.default_resolution()
    for a, b in zip(res.path.waypoints, res.path.waypoints[1:]):
        assert edge_valid(empty_square, a, b, rho)
    assert res.path.cost == pytest.approx(path_cost(res.path.waypoints), abs=1e-9)


@pytest.mark.parametrize("planner", ["prm-star", "k-prm-star", "rrt", "rrt-star", "sst", "ao-rrt",
                                     "cost-bounded-rrt"])
def test_start_inside_goal(planner):
    sc = scenario_from_dict({
        "dimension": 2, "domain": {"min": [0, 0], "max": [1, 1]}, "obstacles": [],
        "start": [0.5, 0.5], "goal": {"center": [0.52, 0.5], "radius": 0.1},
    })
    if planner == "cost-bounded-rrt":
        cps = (10,)  # one checkpoint, at the budget
        res = cost_bounded_rrt(sc, single_integrator_2d(), UniformStream(2, 0), math.inf, 10)
    else:
        cps = (4, 10)
        res = run_planner(sc, planner, UniformStream(2, 0), 10, {}, checkpoints=cps)
    # the kinematic planners count their start validity check; the
    # kinodynamic ones do not check the start
    checks = 1 if planner in ("prm-star", "k-prm-star", "rrt", "rrt-star") else 0
    assert res.best_cost == 0.0
    assert len(res.path.waypoints) == 1
    assert res.checkpoints == [(c, 0.0) for c in cps]
    assert res.checkpoint_stats == [
        {"n": c, "cost": 0.0, "nodes": 1, "edges": 0, "collision_checks": checks, "work": checks}
        for c in cps
    ]


def test_prm_star_walled_goal_returns_no_path():
    res = prm_star(pocket_scenario(), UniformStream(2, 5), 200)
    assert res.best_cost is None
    assert res.path is None
    assert res.checkpoints == [(200, None)]


def test_prm_star_roadmap_invariants(box_square):
    res = prm_star(box_square, UniformStream(2, 9), 400)
    rm = res.roadmap
    rho = box_square.default_resolution()
    checked = 0
    for u in range(len(rm.vertices)):
        for v, w in adjacent(rm, u).items():
            assert adjacent(rm, v)[u] == w
            assert w == pytest.approx(
                float(np.linalg.norm(rm.vertices[u] - rm.vertices[v])), abs=1e-9)
            if u < v and checked < 200:
                assert edge_valid(box_square, rm.vertices[u], rm.vertices[v], rho)
                checked += 1


def test_prm_star_checkpoints_are_prefix_runs(empty_square):
    res = prm_star(empty_square, UniformStream(2, 21), 800, checkpoints=[200, 800])
    assert [n for n, _ in res.checkpoints] == [200, 800]
    assert all(c is not None for _, c in res.checkpoints)
    solo = prm_star(empty_square, UniformStream(2, 21), 200)
    assert solo.best_cost == pytest.approx(res.checkpoints[0][1], abs=1e-12)


def test_k_prm_star_runs(empty_square):
    rule = default_rule("k_prm_star", empty_square)
    res = prm_star(empty_square, UniformStream(2, 13), 700, rule)
    assert res.best_cost is not None
    assert res.best_cost <= 1.25


def test_prm_star_halton_guard():
    sc = scenario_from_dict({
        "dimension": 2, "domain": {"min": [0, 0], "max": [1, 1]}, "obstacles": [],
        "start": [0.1, 0.1], "goal": {"center": [0.9, 0.9], "radius": 0.02},
    })
    with pytest.raises(UsageError):
        prm_star(sc, HaltonStream(2), 50)
    res = prm_star(sc, HaltonStream(2), 300)
    assert res.best_cost is not None


def test_prm_star_usage_errors(empty_square):
    with pytest.raises(UsageError):
        prm_star(empty_square, UniformStream(2, 0), 1)
    with pytest.raises(UsageError):
        prm_star(empty_square, UniformStream(2, 0), 100, checkpoints=[50, 20])
    with pytest.raises(UsageError):
        prm_star(empty_square, UniformStream(2, 0), 100, checkpoints=[500])


# --- shortest path -----------------------------------------------------------


def two_vertex_roadmap(weight=5.0):
    return Roadmap.from_edges([[0.0, 0.0], [weight, 0.0]], [0], [1], [weight], 0, [1])


def test_shortest_path_two_vertices():
    path = shortest_path(two_vertex_roadmap())
    assert path.cost == pytest.approx(5.0)
    assert len(path.waypoints) == 2


def test_shortest_path_triangle():
    vertices = [[0.0, 0.0], [5.0, 0.0], [3.0, 0.0]]
    rm = Roadmap.from_edges(vertices, [0, 2], [2, 1], [3.0, 4.0], 0, [1])
    assert shortest_path(rm).cost == pytest.approx(7.0)
    rm = Roadmap.from_edges(vertices, [0, 2, 0], [2, 1, 1], [3.0, 4.0, 5.0], 0, [1])
    assert shortest_path(rm).cost == pytest.approx(5.0)


def test_shortest_path_disconnected_returns_none():
    rm = Roadmap.from_edges([[0.0, 0.0], [1.0, 0.0]], [], [], [], 0, [1])
    assert shortest_path(rm) is None


def test_astar_matches_dijkstra_on_random_roadmap(empty_square):
    res = prm_star(empty_square, UniformStream(2, 31), 500)
    path = shortest_path(res.roadmap)
    ref = dijkstra_reference(res.roadmap)
    assert path.cost == pytest.approx(ref, abs=1e-9)


def per_push_astar(roadmap):
    """shortest_path's A* with the heuristic computed per push: (waypoint bytes, repr(cost))."""
    goal = roadmap.goal

    def heur(v):
        if goal is None:
            return 0.0
        return max(0.0, distance(roadmap.vertices[v].tolist(), goal.center.tolist()) - goal.radius)

    start = roadmap.start_id
    goals = set(roadmap.goal_ids)
    dist, parent, closed = {start: 0.0}, {start: -1}, set()
    heap = [(heur(start), start)]
    while heap:
        _, v = heapq.heappop(heap)
        if v in closed:
            continue
        closed.add(v)
        if v in goals:
            cost, ids = dist[v], []
            while v != -1:
                ids.append(v)
                v = parent[v]
            return [roadmap.vertices[i].tobytes() for i in reversed(ids)], repr(cost)
        for u, w in adjacent(roadmap, v).items():
            nd = dist[v] + w
            if nd < dist.get(u, math.inf):
                dist[u] = nd
                parent[u] = v
                heapq.heappush(heap, (nd + heur(u), u))
    return None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_heuristic_table_keeps_per_push_paths(box_square, seed):
    rm = prm_star(box_square, UniformStream(2, seed), 2000).roadmap
    # the goal set is the vertices that GoalRegion.contains accepts
    assert all(box_square.goal.contains(rm.vertices[g]) for g in rm.goal_ids)
    for roadmap in (rm, dataclasses.replace(rm, goal=None)):
        path = shortest_path(roadmap)
        got = [q.tobytes() for q in path.waypoints], repr(path.cost)
        assert got == per_push_astar(roadmap)


def test_goal_set_membership_equals_contains_on_the_sphere(box_square):
    # points within 3 ulps of the goal sphere, where lengths summed in
    # another order, or with fused multiply-adds, round differently
    goal = box_square.goal
    rng = np.random.default_rng(5)
    t = rng.uniform(0.0, 2.0 * np.pi, 20000)
    pts = goal.center + goal.radius * np.column_stack([np.cos(t), np.sin(t)])
    steps = rng.integers(-3, 4, pts.shape)
    for s in range(3):
        pts = np.where(steps > s, np.nextafter(pts, np.inf),
                       np.where(steps < -s, np.nextafter(pts, -np.inf), pts))
    inside = row_distances(pts, goal.center) <= goal.radius
    assert inside.tolist() == [goal.contains(p) for p in pts]
    assert 0 < inside.sum() < len(pts)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 12), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_from_edges_csr_properties(n, density, seed):
    rng = np.random.default_rng(seed)
    vertices = rng.random((n, 2))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    a = np.array([p[0] for p in pairs], dtype=np.int64)
    b = np.array([p[1] for p in pairs], dtype=np.int64)
    w = np.linalg.norm(vertices[a] - vertices[b], axis=1)
    # as in prm_star: vertex 1 is the goal center, the goal set is the ball
    goal = GoalRegion(center=vertices[1], radius=0.2)
    goal_ids = [v for v in range(n) if goal.contains(vertices[v])]
    rm = Roadmap.from_edges(vertices, a, b, w, 0, goal_ids, goal)

    assert rm.num_edges == len(pairs)
    for u in range(n):
        ids, _ = rm.neighbors(u)
        assert np.all(np.diff(ids) > 0)
        for v, weight in adjacent(rm, u).items():
            assert adjacent(rm, v)[u] == weight
    path = shortest_path(rm)
    ref = dijkstra_reference(rm)
    if ref is None:
        assert path is None
    else:
        assert path.cost == pytest.approx(ref, abs=1e-9)

    # the same edges listed in another order and orientation
    order = rng.permutation(len(pairs))
    flip = rng.random(len(pairs)) < 0.5
    a2, b2 = np.where(flip, b, a)[order], np.where(flip, a, b)[order]
    again = shortest_path(Roadmap.from_edges(vertices, a2, b2, w[order], 0, goal_ids, goal))
    if path is None:
        assert again is None
    else:
        assert repr(again.cost) == repr(path.cost)
        assert [q.tobytes() for q in again.waypoints] == [q.tobytes() for q in path.waypoints]


def test_from_edges_rejects_bad_edges():
    with pytest.raises(UsageError):
        Roadmap.from_edges([[0.0, 0.0], [1.0, 0.0]], [0], [2], [1.0], 0, [1])
    with pytest.raises(UsageError):
        Roadmap.from_edges([[0.0, 0.0], [1.0, 0.0]], [0], [1], [1.0, 2.0], 0, [1])


# --- classic tree planner ----------------------------------------------------


def test_rrt_goal_bias_one_builds_straight_chain():
    sc = scenario_from_dict({
        "dimension": 2, "domain": {"min": [0, 0], "max": [1, 1]}, "obstacles": [],
        "start": [0.1, 0.1], "goal": {"center": [0.9, 0.9], "radius": 0.0},
    })
    eta = 0.25
    steps = math.ceil(OPT_EMPTY / eta)
    res = rrt(sc, UniformStream(2, 0), steps + 2, eta, goal_bias=1.0)
    assert res.best_cost == pytest.approx(OPT_EMPTY, abs=1e-9)
    assert len(res.path.waypoints) == steps + 1


def test_rrt_succeeds_in_empty_square(empty_square):
    res = rrt(empty_square, UniformStream(2, 3), 5000, eta=0.15)
    assert res.best_cost is not None
    assert res.best_cost >= OPT_EMPTY - empty_square.goal.radius - 1e-9


def test_rrt_first_connection_fixes_cost(empty_square):
    res = rrt(empty_square, UniformStream(2, 3), 4000, eta=0.15,
              checkpoints=[1000, 2000, 4000])
    defined = [c for _, c in res.checkpoints if c is not None]
    assert len(set(defined)) <= 1


def test_rrt_obstructed_goal_returns_no_path():
    sc = scenario_from_dict({
        "dimension": 2, "domain": {"min": [0, 0], "max": [1, 1]},
        "obstacles": [{"type": "box", "min": [0.8, 0.8], "max": [1.0, 1.0]}],
        "start": [0.1, 0.1], "goal": {"center": [0.92, 0.92], "radius": 0.05},
    })
    res = rrt(sc, UniformStream(2, 8), 800, eta=0.2)
    assert res.best_cost is None


# --- rewiring tree planner ---------------------------------------------------


def test_rrt_star_empty_square_seed11(empty_square):
    res = rrt_star(empty_square, UniformStream(2, 11), 4000, eta=0.15)
    assert res.best_cost is not None
    assert res.best_cost <= 1.17
    assert res.best_cost >= OPT_EMPTY - empty_square.goal.radius - 1e-9


def test_rrt_star_checkpoints_non_increasing(empty_square):
    res = rrt_star(empty_square, UniformStream(2, 17), 3000, eta=0.15,
                   checkpoints=[500, 1000, 2000, 3000])
    defined = [c for _, c in res.checkpoints if c is not None]
    assert all(b <= a + 1e-12 for a, b in zip(defined, defined[1:]))


def test_rrt_star_box_scene_approaches_oracle(box_square):
    res = rrt_star(box_square, UniformStream(2, 23), 6000, eta=0.1)
    assert res.best_cost is not None
    assert res.best_cost <= 0.88
    assert res.best_cost >= OPT_BOX - box_square.goal.radius - 1e-9


def test_rrt_star_audit_mode_passes(empty_square):
    res = rrt_star(empty_square, UniformStream(2, 29), 1500, eta=0.15,
                   audit_every=250)
    assert res.best_cost is not None


def test_rrt_star_path_is_valid_chain(box_square):
    res = rrt_star(box_square, UniformStream(2, 5), 3000, eta=0.12)
    rho = box_square.default_resolution()
    wp = res.path.waypoints
    assert np.allclose(wp[0], box_square.start)
    assert np.linalg.norm(wp[-1] - box_square.goal.center) <= box_square.goal.radius + 1e-12
    for a, b in zip(wp, wp[1:]):
        assert edge_valid(box_square, a, b, rho)
    assert res.path.cost == pytest.approx(path_cost(wp), abs=1e-9)


class ScriptedStream:
    """A uniform-kind stream that always samples (0.5 >= goal_bias) and yields the given points."""

    kind = "uniform"

    def __init__(self, points):
        self._points = iter(points)

    def next_uniform01(self):
        return 0.5

    def next_point(self, domain):
        return np.array(next(self._points), dtype=float)


def test_rrt_star_parent_ties_go_to_the_nearer_node():
    # the start and node (0.5, 0.25) both reach (0.75, 0.25) at cost 0.5;
    # (cost + dist, dist, id) order takes the nearer node, not the lower id
    sc = scenario_from_dict({
        "dimension": 2, "domain": {"min": [0, 0], "max": [1, 1]}, "obstacles": [],
        "start": [0.25, 0.25], "goal": {"center": [0.75, 0.25], "radius": 0.02},
    })
    res = rrt_star(sc, ScriptedStream([(0.5, 0.25), (0.75, 0.25)]), 2, 0.5, goal_bias=0.0)
    assert [w.tolist() for w in res.path.waypoints] == [[0.25, 0.25], [0.5, 0.25], [0.75, 0.25]]
    assert res.best_cost == 0.5


def test_rrt_star_deterministic(empty_square):
    a = rrt_star(empty_square, UniformStream(2, 77), 1200, eta=0.15)
    b = rrt_star(empty_square, UniformStream(2, 77), 1200, eta=0.15)
    assert a.best_cost == b.best_cost
    assert a.counters == b.counters


@pytest.mark.parametrize("planner", [rrt, rrt_star])
@pytest.mark.parametrize("n,eta,goal_bias", [
    (1, 0.1, 0.05),  # n below 2
    (100, 0.0, 0.05),  # eta not positive
    (100, 0.1, -0.1),  # goal_bias below 0
    (100, 0.1, 1.1),  # goal_bias above 1
])
def test_tree_planners_reject_bad_parameters(empty_square, planner, n, eta, goal_bias):
    with pytest.raises(UsageError):
        planner(empty_square, UniformStream(2, 0), n, eta=eta, goal_bias=goal_bias)


def test_rrt_star_rejects_nonpositive_eta_max(empty_square):
    with pytest.raises(UsageError):
        rrt_star(empty_square, UniformStream(2, 0), 100, eta=0.1, eta_max=0.0)


def test_rrt_star_rejects_k_rule(empty_square):
    with pytest.raises(UsageError):
        rrt_star(empty_square, UniformStream(2, 0), 100, eta=0.1,
                 rule=default_rule("k_prm_star", empty_square))


# --- search tree -------------------------------------------------------------


def test_search_tree_costs_and_reparent():
    tree = SearchTree(np.array([0.0, 0.0]))
    a = tree.add(np.array([1.0, 0.0]), 0, 1.0)
    b = tree.add(np.array([2.0, 0.0]), a, 1.0)
    c = tree.add(np.array([2.0, 1.0]), b, 1.0)
    assert tree.cost[c] == pytest.approx(3.0)
    before = tree.cost[[a, b, c]].copy()
    # shortcut b directly to the root with a cheaper edge
    tree.reparent(b, 0, 1.5)
    assert tree.cost[b] == pytest.approx(1.5)
    assert tree.cost[c] == pytest.approx(2.5)
    after = tree.cost[[a, b, c]]
    assert np.all(after <= before + 1e-12)
    tree.audit_costs()


def test_search_tree_rejects_reparent_into_own_subtree():
    def hung(signum, frame):
        raise TimeoutError("reparent did not return within 10 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    try:
        tree = _chain(2)
        before = (tree.parent.copy(), tree.cost.copy(), [list(c) for c in tree.children])
        with pytest.raises(UsageError):
            tree.reparent(1, 2, 1.0)  # onto its own child
        with pytest.raises(UsageError):
            tree.reparent(1, 1, 1.0)  # onto itself
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    # rejected before any mutation
    assert np.array_equal(tree.parent, before[0]) and np.array_equal(tree.cost, before[1])
    assert tree.children == before[2]
    tree.audit_costs()


def test_search_tree_audit_detects_corruption():
    tree = SearchTree(np.array([0.0, 0.0]))
    a = tree.add(np.array([1.0, 0.0]), 0, 1.0)
    tree.cost[a] = 0.5
    with pytest.raises(AuditError):
        tree.audit_costs()


def _chain(nodes, step=1.0):
    """A tree whose nodes form one chain root -> 1 -> ... -> nodes."""
    tree = SearchTree(np.zeros(2))
    for i in range(nodes):
        tree.add(np.array([i + 1.0, 0.0]), i, step)
    return tree


def test_search_tree_audit_detects_unreachable_node():
    tree = _chain(2)
    tree.children[0].remove(1)
    with pytest.raises(AuditError):
        tree.audit_costs()


def test_search_tree_audit_detects_parent_cycle():
    # 1 and 2 point at each other, detached from the root
    tree = _chain(3)
    tree.children[0].remove(1)
    tree.parent[1] = 2
    tree.children[2].append(1)
    with pytest.raises(AuditError):
        tree.audit_costs()
    # the same cycle still listed under the root must not loop forever
    tree = _chain(3)
    tree.children[2].append(1)
    with pytest.raises(AuditError):
        tree.audit_costs()


def test_search_tree_audit_detects_parent_not_matching_children_lists():
    tree = _chain(2)
    b = tree.add(np.array([0.0, 1.0]), 0, 1.0)
    # node 2 stays listed under 1 but names 1's equal-cost sibling as parent
    tree.parent[2] = b
    with pytest.raises(AuditError):
        tree.audit_costs()


def test_prune_stops_at_active_node_and_at_root():
    tree = _chain(3)
    tree.active[1] = False
    tree.deactivate_and_prune(3)
    # 2 is still active, so only 3 goes
    assert tree.alive == 3 and tree.children[2] == [] and tree.parent[3] == -1
    tree.deactivate_and_prune(2)
    # 1 is inactive and now a leaf, so it goes too; the root stays
    assert tree.alive == 1 and tree.children[0] == []
    tree.audit_costs()

    tree = _chain(1)
    tree.deactivate_and_prune(0)
    assert tree.alive == 2  # an inactive root with a child stays whole
    tree.deactivate_and_prune(1)
    assert tree.alive == 1 and tree.size == 2 and tree.parent[0] == -1
    tree.audit_costs()


def test_prune_stops_at_node_with_children():
    tree = _chain(1)
    b = tree.add(np.array([1.0, 1.0]), 1, 1.0)
    c = tree.add(np.array([2.0, 1.0]), 1, 1.0)
    tree.active[1] = False
    tree.deactivate_and_prune(b)
    assert tree.alive == 3 and tree.children[1] == [c]
    tree.audit_costs()


def _attached(tree):
    """Nodes whose parent chain reaches the root, by brute force."""
    out = []
    for w in range(tree.size):
        v = w
        while v > 0:
            v = tree.parent[v]
        if v == 0:
            out.append(w)
    return out


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(
    st.tuples(st.sampled_from(("add", "reparent", "prune")), st.integers(0, 10**6),
              st.integers(0, 10**6), st.floats(0.0, 10.0)),
    max_size=80,
))
def test_search_tree_random_operations_keep_costs_coherent(ops):
    tree = SearchTree(np.zeros(2), capacity=4)
    for op, i, j, length in ops:
        attached = _attached(tree)
        if op == "add":
            tree.add(np.array([length, float(i)]), attached[i % len(attached)], length)
        elif op == "reparent" and len(attached) > 1:
            nid = attached[1:][i % (len(attached) - 1)]
            below = set()
            stack = [nid]
            while stack:
                w = stack.pop()
                below.add(w)
                stack.extend(tree.children[w])
            targets = [w for w in attached if w not in below]
            tree.reparent(nid, targets[j % len(targets)], length)
        elif op == "prune":
            tree.deactivate_and_prune(attached[i % len(attached)])
        attached = _attached(tree)
        assert tree.alive == len(attached)
        for w in attached:
            chain = 0.0
            for v in tree.trace(w)[1:]:
                chain += tree.edge_len[v]
            assert tree.cost[w] == chain
        tree.audit_costs()


def test_search_tree_trace_order():
    tree = SearchTree(np.array([0.0, 0.0]))
    a = tree.add(np.array([1.0, 0.0]), 0, 1.0)
    b = tree.add(np.array([1.0, 1.0]), a, 1.0)
    ids = tree.trace(b)
    assert ids == [0, a, b]
    wp = tree.configs[ids]
    assert np.allclose(wp[0], (0, 0))
    assert np.allclose(wp[-1], (1, 1))
    assert len(wp) == 3


@pytest.mark.parametrize("d", [1, 2, 3])
def test_search_tree_configs_rows_survive_growth(d):
    rng = np.random.default_rng(d)
    pts = rng.standard_normal((40, d))
    tree = SearchTree(pts[0], capacity=4)
    for i in range(1, 40):
        tree.add(pts[i], i - 1, 1.0)
        # configs reads back every inserted row, across each _grow
        assert np.array_equal(tree.configs, pts[: i + 1])
        assert np.array_equal(tree.config(i), pts[i])
    ids = tree.trace(39)[::3]
    rows = tree.configs[ids]
    assert rows.flags["C_CONTIGUOUS"]
    assert rows.tobytes() == pts[ids].tobytes()


def test_search_tree_grows_from_capacity_zero():
    tree = SearchTree(np.zeros(2), capacity=0)
    for i in range(1, 5):
        assert tree.add(np.array([float(i), 0.0]), i - 1, 1.0) == i
    assert tree.configs[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert tree.cost[:5].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    tree.audit_costs()


def test_search_tree_answers_its_own_queries_across_growth():
    # the configurations and the node arrays both double from capacity 4
    rng = np.random.default_rng(5)
    pts = np.round(rng.random((50, 2)) * 4) / 4  # quarter grid: many tied distances
    tree = SearchTree(pts[0], capacity=4)
    for i in range(1, 50):
        assert tree.add(pts[i], (i - 1) // 2, 1.0) == i
    assert len(tree) == tree.size == 50
    assert np.array_equal(tree.configs, pts)
    assert tree.parent[49] == 24 and tree.cost[49] == tree.cost[24] + 1.0
    for q in rng.random((10, 2)):
        scan = [(distance(p.tolist(), q.tolist()), i) for i, p in enumerate(pts)]
        assert tree.nearest_id(q) == min(scan)[1]
        want = [s for s in scan if s[0] <= 0.3]  # in id order, as the ball returns it
        ids, dists = tree.within_radius(q, 0.3)
        assert ids.tolist() == [i for _, i in want]
        assert dists.tolist() == [d for d, _ in want]
