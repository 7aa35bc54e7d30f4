import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoplan import (
    AuditError,
    BallObstacle,
    Box,
    BoxObstacle,
    CompositeConfig,
    Roadmap,
    SaturationError,
    Scenario,
    UniformStream,
    UsageError,
    build_per_robot_roadmaps,
    composite_edge_valid,
    drrt_star,
    points_valid,
    run_planner,
    scenario_from_dict,
    segments_valid,
    shortest_path,
)
from aoplan import multirobot
from aoplan.geometry import _composite_free
from aoplan.multirobot import _expand_candidate, _TensorTree
from aoplan.nn import _pair_distances, distance


def empty_multi(robots):
    return scenario_from_dict({
        "dimension": 2, "domain": {"min": [0, 0], "max": [1, 1]},
        "obstacles": [], "robots": robots,
    })


SWAP_ROBOTS = [
    {"radius": 0.05, "start": [0.1, 0.5], "goal": {"center": [0.9, 0.5], "radius": 0.05}},
    {"radius": 0.05, "start": [0.9, 0.5], "goal": {"center": [0.1, 0.5], "radius": 0.05}},
]


# --- composite edges ---------------------------------------------------------


def cc(points, radii):
    return CompositeConfig(
        per_robot=tuple(np.asarray(p, dtype=float) for p in points),
        robot_radii=tuple(radii),
    )


def flat(points):
    """A composite sample as _expand_candidate takes it: robot after robot."""
    return np.concatenate([np.asarray(p, dtype=float) for p in points])


def test_parallel_motion_far_apart_is_valid():
    sc = empty_multi(SWAP_ROBOTS)
    a = cc([(0.1, 0.2), (0.1, 0.8)], (0.05, 0.05))
    b = cc([(0.9, 0.2), (0.9, 0.8)], (0.05, 0.05))
    assert composite_edge_valid(sc, a, b, 0.01)


def test_swap_along_same_line_collides():
    sc = empty_multi(SWAP_ROBOTS)
    a = cc([(0.1, 0.5), (0.9, 0.5)], (0.05, 0.05))
    b = cc([(0.9, 0.5), (0.1, 0.5)], (0.05, 0.05))
    assert not composite_edge_valid(sc, a, b, 0.01)


def test_single_robot_reduces_to_margin_edge_check():
    sc = scenario_from_dict({
        "dimension": 2, "domain": {"min": [0, 0], "max": [1, 1]},
        "obstacles": [{"type": "box", "min": [0.4, 0.4], "max": [0.6, 0.6]}],
        "robots": [{"radius": 0.05, "start": [0.1, 0.1],
                    "goal": {"center": [0.9, 0.9], "radius": 0.05}}],
    })
    cases = [((0.1, 0.1), (0.9, 0.9)), ((0.1, 0.3), (0.9, 0.3)),
             ((0.1, 0.32), (0.9, 0.32)), ((0.2, 0.2), (0.2, 0.8))]
    for a, b in cases:
        composite = composite_edge_valid(sc, cc([a], [0.05]), cc([b], [0.05]), 0.01)
        plain = bool(segments_valid(
            sc, np.asarray(a)[None, :], np.asarray(b)[None, :], 0.01, margin=0.05)[0])
        assert composite == plain


def test_contact_separation_is_allowed():
    sc = empty_multi(SWAP_ROBOTS)
    # dyadic coordinates so the vertical gap is exactly the radius sum
    radii = (0.0625, 0.0625)
    a = cc([(0.25, 0.25), (0.25, 0.375)], radii)
    b = cc([(0.75, 0.25), (0.75, 0.375)], radii)
    assert composite_edge_valid(sc, a, b, 0.01)
    tighter = cc([(0.75, 0.25), (0.75, 0.3125)], radii)
    assert not composite_edge_valid(sc, a, tighter, 0.01)


def composite_rows(scenario, a, b, radii, rho):
    """Reference composite check over every row k = 0..m of every robot.

    One points_valid call per robot, one gap array per robot pair; the
    step count and the gaps are lengths of the package's kernel.
    """
    pa = np.array(a, dtype=float)
    pb = np.array(b, dtype=float)
    r, d = pa.shape
    k = np.arange(r)
    m = max(1, int(np.ceil(_pair_distances(np.vstack([pa, pb]), k, k + r).max() / rho)))
    # (m + 1, robots, d): row k puts robot i at t_k * (b_i - a_i) + a_i
    tracks = (np.arange(m + 1) / m)[:, None, None] * (pb - pa) + pa
    if not all(points_valid(scenario, tracks[:, i], radii[i]).all() for i in range(r)):
        return False
    rows = tracks.reshape(-1, d)
    for i, j in itertools.combinations(range(r), 2):
        gap = _pair_distances(rows, np.arange(i, len(rows), r), np.arange(j, len(rows), r))
        if np.any(gap < radii[i] + radii[j]):
            return False
    return True


# sixteenths put obstacle faces, robot radii and track coordinates on one
# exact grid, so edges that graze a margin or touch another robot are common
sixteenth = st.integers(0, 16).map(lambda k: k / 16)
coordinate = st.one_of(sixteenth, st.floats(0.0, 1.0))
point = st.tuples(coordinate, coordinate)
box_obstacle = st.tuples(point, point).map(
    lambda pq: BoxObstacle(lo=np.minimum(*pq), hi=np.maximum(*pq)))
ball_obstacle = st.builds(BallObstacle, center=point.map(np.array),
                          radius=st.integers(1, 4).map(lambda k: k / 16))
robot_radius = st.one_of(st.sampled_from([0.0, 0.0625, 0.125]), st.floats(0.0, 0.2))


CENTRE_BOX = BoxObstacle(lo=np.array([0.375, 0.375]), hi=np.array([0.625, 0.625]))


@settings(max_examples=300, deadline=None)
# one robot passes the box 3/32 away, the other far from it: the small robot
# is clear at its own radius but not at the other's, the large one collides
# at its own radius but not at the other's
@example(obstacles=[CENTRE_BOX], rho=0.0625, robots=[
    ((0.25, 0.71875), (0.75, 0.71875), 0.0625), ((0.25, 0.125), (0.75, 0.125), 0.125)])
@example(obstacles=[CENTRE_BOX], rho=0.0625, robots=[
    ((0.25, 0.28125), (0.75, 0.28125), 0.125), ((0.25, 0.90625), (0.75, 0.90625), 0.0625)])
@given(obstacles=st.lists(st.one_of(box_obstacle, ball_obstacle), max_size=3),
       robots=st.integers(1, 3).flatmap(
           lambda r: st.lists(st.tuples(point, point, robot_radius), min_size=r, max_size=r)),
       rho=st.sampled_from([0.01, 0.0625, 0.3]))
def test_composite_edge_valid_matches_per_robot_loop(obstacles, robots, rho):
    # built directly: a parsed scenario would reject robots that start in collision
    sc = Scenario(dimension=2, domain=Box(lo=np.zeros(2), hi=np.ones(2)),
                  obstacles=tuple(obstacles), start=None, goal=None)
    radii = [radius for _, _, radius in robots]
    a = [start for start, _, _ in robots]
    b = [end for _, end, _ in robots]
    assert composite_edge_valid(sc, cc(a, radii), cc(b, radii), rho) == composite_rows(
        sc, a, b, radii, rho)


def unit_box_scenario(d, obstacles=()):
    # built directly: a parsed scenario would reject robots that start in collision
    return Scenario(dimension=d, domain=Box(lo=np.zeros(d), hi=np.ones(d)),
                    obstacles=tuple(obstacles), start=None, goal=None)


def composite_case(d):
    """(d, obstacles, robots, rho) on the unit box, coordinates often on the sixteenth grid."""
    pt = st.tuples(*[coordinate] * d)
    box = st.tuples(pt, pt).map(lambda pq: BoxObstacle(lo=np.minimum(*pq), hi=np.maximum(*pq)))
    ball = st.builds(BallObstacle, center=pt.map(np.array),
                     radius=st.integers(1, 4).map(lambda k: k / 16))
    robots = st.integers(1, 3).flatmap(
        lambda r: st.lists(st.tuples(pt, pt, robot_radius), min_size=r, max_size=r))
    return st.tuples(st.just(d), st.lists(st.one_of(box, ball), max_size=3), robots,
                     st.sampled_from([0.01, 0.0625, 0.3]))


def one_item_and_rows(case):
    d, obstacles, robots, rho = case
    sc = unit_box_scenario(d, obstacles)
    a = [[float(x) for x in start] for start, _, _ in robots]
    b = [[float(x) for x in end] for _, end, _ in robots]
    radii = [float(radius) for _, _, radius in robots]
    rows = composite_rows(sc, a, b, radii, rho)
    return sc, a, b, radii, _composite_free(sc._bounds, a, b, radii, rho), rows


# the exact-contact pair of test_contact_separation_is_allowed: every row's
# gap ties the radii sum, so the pair is settled by its full-row scan
CONTACT_CASE = (2, [], [((0.25, 0.25), (0.75, 0.25), 0.0625),
                        ((0.25, 0.375), (0.75, 0.375), 0.0625)], 0.3)
# two robots in contact moving side by side: the first row's gap is exactly
# the radii sum and a later row's rounds below it, found by the full-row scan
SIDE_BY_SIDE_CASE = (2, [], [((0.39, 0.25), (0.55, 0.43), 0.0625),
                             ((0.39, 0.375), (0.55, 0.5549999999999999), 0.0625)], 0.3)
# a step of exactly 8 subdivisions
WHOLE_STEP_CASE = (3, [], [((0.25, 0.25, 0.25), (0.75, 0.25, 0.25), 0.0625)], 0.0625)
# tracks that start on the domain boundary, or leave it by one ulp; computed
# points lie between a track's first and last
WALL_CASE = (2, [], [((0.0, 0.5), (0.4, 0.8), 0.0625)], 0.3)
OUT_BY_ULP_CASE = (2, [], [((0.5, 0.5), (1.0 + 2.0 ** -52, 0.75), 0.0625)], 0.3)
# b touches the box, but the last point, computed as 1.0*(b - a) + a, stops
# one ulp short of it
SHORT_OF_BOX_CASE = (2, [BoxObstacle(lo=np.array([0.1, 0.4]), hi=np.array([0.3, 0.6]))],
                     [((0.8132702392002724, 0.5), (0.3, 0.5), 0.0)], 0.3)


@settings(max_examples=300, deadline=None)
@example(case=CONTACT_CASE)
@example(case=WALL_CASE)
@example(case=WHOLE_STEP_CASE)
@example(case=OUT_BY_ULP_CASE)
@example(case=SHORT_OF_BOX_CASE)
@given(case=st.sampled_from([2, 3]).flatmap(composite_case))
def test_one_item_composite_check_matches_batch_rows(case):
    sc, a, b, radii, got, rows = one_item_and_rows(case)
    assert got == rows
    assert composite_edge_valid(sc, cc(a, radii), cc(b, radii), case[3]) == rows


@pytest.mark.parametrize("case, want", [
    (WALL_CASE, True), (OUT_BY_ULP_CASE, False), (SHORT_OF_BOX_CASE, True),
    (CONTACT_CASE, True), (WHOLE_STEP_CASE, True), (SIDE_BY_SIDE_CASE, False)])
def test_one_item_composite_check_decides_on_boundaries(case, want):
    assert one_item_and_rows(case)[-2:] == (want, want)


def test_mismatched_robot_counts_rejected():
    sc = empty_multi(SWAP_ROBOTS)
    with pytest.raises(UsageError):
        composite_edge_valid(sc, cc([(0.1, 0.1)], [0.05]),
                             cc([(0.2, 0.2), (0.3, 0.3)], [0.05, 0.05]), 0.01)


def test_mismatched_robot_radii_rejected():
    sc = empty_multi(SWAP_ROBOTS)
    with pytest.raises(UsageError):
        composite_edge_valid(sc, cc([(0.1, 0.1), (0.9, 0.9)], [0.05, 0.05]),
                             cc([(0.2, 0.2), (0.8, 0.8)], [0.05, 0.04]), 0.01)


@pytest.mark.parametrize("a,b,rho", [
    ([(0.1, 0.1), (0.9, 0.9)], [(0.2, 0.2), (0.8, 0.8)], 0.0),  # no positive resolution
    ([(0.1, 0.1, 0.5), (0.9, 0.9, 0.5)], [(0.2, 0.2, 0.5), (0.8, 0.8, 0.5)], 0.01),  # 3-D in 2-D
])
def test_bad_composite_inputs_rejected(a, b, rho):
    sc = empty_multi(SWAP_ROBOTS)
    with pytest.raises(UsageError):
        composite_edge_valid(sc, cc(a, [0.05, 0.05]), cc(b, [0.05, 0.05]), rho)


# --- expansion ---------------------------------------------------------------


def square_roadmap(shift=0.0):
    coords = [(0.2, 0.2), (0.8, 0.2), (0.2, 0.8), (0.8, 0.8)]
    vertices = np.array([[x + shift, y] for x, y in coords])
    a, b = np.array([0, 0, 1, 2]), np.array([1, 2, 3, 3])
    weights = [float(np.linalg.norm(vertices[u] - vertices[v])) for u, v in zip(a, b)]
    return Roadmap.from_edges(vertices, a, b, weights, 0, [3])


def hand_tree(scenario, roadmaps):
    # zero radii: the synthetic fixture stacks both robots on one roadmap
    return _TensorTree(scenario, roadmaps, (0.0, 0.0),
                       scenario.default_resolution(), (0, 0))


def test_expansion_picks_componentwise_nearest():
    sc = empty_multi([
        {"radius": 0.02, "start": [0.2, 0.2], "goal": {"center": [0.8, 0.8], "radius": 0.05}},
        {"radius": 0.02, "start": [0.2, 0.2], "goal": {"center": [0.8, 0.8], "radius": 0.05}},
    ])
    roadmaps = [square_roadmap(), square_roadmap()]
    tree = hand_tree(sc, roadmaps)
    q = flat([(0.85, 0.15), (0.15, 0.9)])
    out = _expand_candidate(tree, q)
    assert out is not None
    near, key = out
    assert composite_edge_valid(sc, tree.composite(tree.keys[near]),
                                tree.composite(key), tree.rho)
    # brute-force oracle: enumerate the whole adjacent candidate product
    best = None
    for c0 in [0, 1, 2]:
        for c1 in [0, 1, 2]:
            d = (np.linalg.norm(roadmaps[0].vertices[c0] - q[:2])
                 + np.linalg.norm(roadmaps[1].vertices[c1] - q[2:]))
            if best is None or d < best[0]:
                best = (d, (c0, c1))
    assert key == best[1]
    assert key == (1, 2)


def test_expansion_rejects_stay_put():
    sc = empty_multi([
        {"radius": 0.02, "start": [0.2, 0.2], "goal": {"center": [0.8, 0.8], "radius": 0.05}},
        {"radius": 0.02, "start": [0.2, 0.2], "goal": {"center": [0.8, 0.8], "radius": 0.05}},
    ])
    roadmaps = [square_roadmap(), square_roadmap()]
    tree = hand_tree(sc, roadmaps)
    q = flat([(0.2, 0.2), (0.2, 0.2)])
    assert _expand_candidate(tree, q) is None


def test_expansion_rejects_invalid_composite_edge():
    sc = scenario_from_dict({
        "dimension": 2, "domain": {"min": [0, 0], "max": [1, 1]},
        "obstacles": [{"type": "box", "min": [0.4, 0.4], "max": [0.6, 0.6]}],
        "robots": [{"radius": 0.02, "start": [0.1, 0.5],
                    "goal": {"center": [0.9, 0.5], "radius": 0.05}}],
    })
    # hand-planted edge straight through the box
    rm = Roadmap.from_edges([[0.1, 0.5], [0.9, 0.5]], [0], [1], [0.8], 0, [1])
    tree = _TensorTree(sc, [rm], (0.02,), sc.default_resolution(), (0,))
    q = flat([(0.9, 0.5)])
    out = _expand_candidate(tree, q)
    assert out == (0, (1,))
    assert not composite_edge_valid(sc, tree.composite((0,)), tree.composite((1,)),
                                    tree.rho)
    # a rejected pair is memoised too: asking again, either way round, checks nothing
    counter = SimpleNamespace(checks=0)
    assert not tree.valid_edge_to(counter, (0,), (1,))
    assert not tree.valid_edge_to(counter, (1,), (0,))
    assert counter.checks == 1


def random_roadmaps(seed, r, n, d=2):
    """r random roadmaps of n vertices each, with about half the pairs joined."""
    rng = np.random.default_rng(seed)
    roadmaps = []
    for _ in range(r):
        vertices = np.array([rng.random(d) for _ in range(n)])
        pairs = np.array([(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.5], dtype=np.int64).reshape(-1, 2)
        # weights are never read by the tree
        roadmaps.append(Roadmap.from_edges(vertices, pairs[:, 0], pairs[:, 1],
                                           np.zeros(len(pairs)), 0, []))
    return roadmaps


def random_tree(roadmaps, seed, size):
    r = len(roadmaps)
    sc = unit_box_scenario(roadmaps[0].vertices.shape[1])
    tree = _TensorTree(sc, roadmaps, (0.0,) * r, 0.01, (0,) * r)
    rng = np.random.default_rng(seed)
    n = len(roadmaps[0].vertices)
    for _ in range(size):
        key = tuple(int(v) for v in rng.integers(0, n, r))
        if key not in tree.key_to_id:
            tree.add(key, 0, 0.0)  # structure is irrelevant to neighbour lookup
    return tree, rng


@settings(max_examples=60, deadline=None)
@given(r=st.integers(1, 3), d=st.sampled_from([2, 3]), n=st.integers(2, 7),
       size=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_discovered_neighbors_and_edge_costs_match_brute_force(r, d, n, size, seed):
    roadmaps = random_roadmaps(seed, r, n, d)
    tree, rng = random_tree(roadmaps, seed + 1, size)
    queries = list(tree.keys) + [
        tuple(int(v) for v in rng.integers(0, n, r)) for _ in range(10)
    ]
    for key in queries:
        # oracle: scan every tree key for product adjacency
        want = {
            tid for tid, other in enumerate(tree.keys)
            if other != key and all(
                a == b or b in rm.neighbors(a)[0]
                for a, b, rm in zip(key, other, roadmaps)
            )
        }
        ids, weights = tree.discovered_neighbors(key)
        assert set(ids.tolist()) == want
        assert np.all(np.diff(ids) > 0)
        assert tree.key_to_id.get(key) not in ids.tolist()
        for tid, got in zip(ids.tolist(), weights.tolist()):
            total = 0.0
            for a, b, rm in zip(tree.keys[tid], key, roadmaps):
                total += distance(rm.vertices[a].tolist(), rm.vertices[b].tolist())
            assert got == total
        for i, v in enumerate(key):
            # staying put costs 0 in every robot
            nbr_ids, _, steps = tree.closed_neighborhood(i, v)
            assert steps[nbr_ids == v].tolist() == [0.0]


def test_tensor_tree_audit_catches_a_corrupted_edge_length():
    tree = hand_tree(empty_multi(SWAP_ROBOTS), [square_roadmap(), square_roadmap()])
    a = tree.add((1, 0), 0, 0.6)
    tree.add((3, 2), a, 0.6 + 0.6)
    tree.audit_costs()
    # shift cost with the edge so only the per-robot norm recheck can notice
    tree.edge_len[2] += 1e-6
    tree.cost[2] += 1e-6
    with pytest.raises(AuditError, match="edge length mismatch at 2"):
        tree.audit_costs()


def test_drrt_star_passes_the_audit_every_iteration(swap_scenario):
    res = drrt_star(swap_scenario, None, UniformStream(2, 4), 60, 300, audit_every=1)
    plain = drrt_star(swap_scenario, None, UniformStream(2, 4), 60, 300)
    assert repr(res.best_cost) == repr(plain.best_cost)
    assert res.counters == plain.counters


def distances_by_full_scan(tree, q_flat):
    """Each tree vertex's summed per-robot distance, one vertex and robot at a time."""
    targets = q_flat.reshape(tree.r, tree.d).tolist()
    want = []
    for key in tree.keys:
        total = 0.0
        for rm, v, q in zip(tree.roadmaps, key, targets):
            total += distance(rm.vertices[v].tolist(), q)
        want.append(total)
    return np.array(want)


def grid_roadmaps(seed, r, n, d):
    """r edgeless roadmaps on the quarter grid, so distances tie exactly."""
    rng = np.random.default_rng(seed)
    return [Roadmap.from_edges(rng.integers(0, 5, (n, d)) / 4, [], [], [], 0, [])
            for _ in range(r)]


@settings(max_examples=80, deadline=None)
@given(r=st.integers(1, 3), d=st.sampled_from([2, 3]), n=st.integers(2, 30),
       size=st.integers(0, 300), grid=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_tensor_distances_match_full_scan(r, d, n, size, grid, seed):
    roadmaps = (grid_roadmaps if grid else random_roadmaps)(seed, r, n, d)
    tree, rng = random_tree(roadmaps, seed + 1, size)
    # random samples, and quarter-grid samples equidistant from many vertices
    queries = [rng.random(r * d) for _ in range(5)]
    queries += [rng.integers(0, 5, r * d) / 4 for _ in range(5)]
    # a node's configuration is its key
    assert np.array_equal(tree.configs, np.array(tree.keys).reshape(tree.size, r))
    for q in queries:
        want = distances_by_full_scan(tree, q)
        assert np.array_equal(tree.distances(q), want)
        assert tree.nearest(q) == np.flatnonzero(want == want.min())[0]


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3])
def test_tensor_nearest_ties_go_to_the_lowest_id(r, d):
    # the root stands far away; every other vertex stands on corners of the
    # unit cube, all equidistant from its centre
    corners = [[(c >> j) & 1 for j in range(d)] for c in range(2 ** d)]
    rm = Roadmap.from_edges([[3.0] * d] + corners, [], [], [], 0, [])
    tree = _TensorTree(unit_box_scenario(d), [rm] * r, (0.0,) * r, 0.01, (0,) * r)
    keys = list(itertools.product(range(1, 2 ** d + 1), repeat=r))
    for i in np.random.default_rng(r * d).permutation(len(keys))[:20]:
        tree.add(keys[i], 0, 0.0)
    q = np.full(r * d, 0.5)
    want = distances_by_full_scan(tree, q)
    assert np.array_equal(tree.distances(q), want)
    assert np.all(want[1:] == want[1]) and want[0] > want[1]
    assert tree.nearest(q) == 1


def expand_by_loop(tree, q_rand):
    """Per-candidate reference for _expand_candidate: distance argmin, (dist, id) ties."""
    near = tree.nearest(q_rand)
    key = tree.keys[near]
    new_key = []
    for i, rm in enumerate(tree.roadmaps):
        target = q_rand.reshape(len(tree.roadmaps), -1)[i]
        best = None
        for c in [key[i]] + sorted(rm.neighbors(key[i])[0].tolist()):
            dist = distance(rm.vertices[c].tolist(), target.tolist())
            if best is None or (dist, c) < best:
                best = (dist, c)
        new_key.append(best[1])
    new_key = tuple(new_key)
    return None if new_key == key else (near, new_key)


@settings(max_examples=60, deadline=None)
@given(r=st.integers(1, 3), n=st.integers(2, 7), size=st.integers(0, 40),
       seed=st.integers(0, 2**32 - 1))
def test_vectorised_expansion_matches_per_candidate_loop(r, n, size, seed):
    roadmaps = random_roadmaps(seed, r, n)
    tree, rng = random_tree(roadmaps, seed + 1, size)
    for _ in range(10):
        q = flat([rng.random(2) for _ in range(r)])
        assert _expand_candidate(tree, q) == expand_by_loop(tree, q)


@pytest.mark.parametrize("p1, p2, want", [
    # dyadic coordinates: both exactly 0.25 from the target, the lower id wins
    ((0.25, 0.0), (0.0, 0.25), 1),
    # both lengths round alike when summed left to right, so the lower id
    # wins, though vertex 2 is one ulp closer under a fused dot product
    ((0.4025014618726901, 0.4039703948682469), (0.40250146187269, 0.403970394868247), 1),
])
def test_expansion_near_ties(p1, p2, want):
    # the higher id is listed first
    rm = Roadmap.from_edges([[1.0, 1.0], p1, p2], [0, 0], [2, 1], [0.0, 0.0], 0, [])
    sc = empty_multi([SWAP_ROBOTS[0]])
    tree = _TensorTree(sc, [rm], (0.0,), 0.01, (0,))
    q = flat([(0.0, 0.0)])
    assert expand_by_loop(tree, q) == (0, (want,))
    assert _expand_candidate(tree, q) == (0, (want,))


# --- per-robot roadmaps ------------------------------------------------------


def test_two_connected_roadmaps_in_empty_square():
    sc = empty_multi(SWAP_ROBOTS)
    roadmaps = build_per_robot_roadmaps(sc, None, UniformStream(2, 15), 600)
    assert len(roadmaps) == 2
    for rm in roadmaps:
        path = shortest_path(rm)
        assert path is not None


def test_single_robot_roadmap_is_plain_prm(swap_scenario):
    sc = empty_multi([SWAP_ROBOTS[0]])
    roadmaps = build_per_robot_roadmaps(sc, None, UniformStream(2, 3), 300)
    assert len(roadmaps) == 1
    rm = roadmaps[0]
    assert len(rm.vertices) == 302
    assert np.allclose(rm.vertices[0], (0.1, 0.5))
    assert np.allclose(rm.vertices[1], (0.9, 0.5))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_roadmap_goal_ids_are_the_vertices_in_the_robot_goal(swap_scenario, seed):
    # drrt_star reads its goal sets from goal_ids; the robots' positive
    # margins must not change which vertices GoalRegion.contains accepts
    roadmaps = build_per_robot_roadmaps(swap_scenario, None, UniformStream(2, seed), 500)
    for rb, rm in zip(swap_scenario.robots, roadmaps):
        assert rm.goal_ids == [v for v, q in enumerate(rm.vertices) if rb.goal.contains(q)]


def test_oversized_robot_saturates():
    sc = scenario_from_dict({
        "dimension": 2, "domain": {"min": [0, 0], "max": [1, 1]},
        "obstacles": [{"type": "box", "min": [0.45, 0.45], "max": [0.55, 0.55]}],
        "start": [0.1, 0.1], "goal": {"center": [0.9, 0.9], "radius": 0.05},
    })
    from aoplan import GoalRegion, RobotSpec

    big = RobotSpec(radius=2.0, start=np.array([0.1, 0.1]),
                    goal=GoalRegion(center=np.array([0.9, 0.9]), radius=0.05))
    with pytest.raises(SaturationError):
        build_per_robot_roadmaps(sc, [big], UniformStream(2, 0), 50)


# --- full planner ------------------------------------------------------------


def test_drrt_star_solves_swap_and_separation_audit(swap_scenario):
    res = drrt_star(swap_scenario, None, UniformStream(2, 42), 200, 4000,
                    audit_every=1000)
    assert res.best_cost is not None
    path = res.path
    n_pts = len(path.per_robot[0])
    assert all(len(track) == n_pts for track in path.per_robot)
    assert np.allclose(path.per_robot[0][0], (0.1, 0.5))
    assert np.allclose(path.per_robot[1][0], (0.9, 0.5))
    rho = swap_scenario.default_resolution()
    radii = tuple(rb.radius for rb in swap_scenario.robots)
    for k in range(n_pts - 1):
        a = cc([track[k] for track in path.per_robot], radii)
        b = cc([track[k + 1] for track in path.per_robot], radii)
        assert composite_edge_valid(swap_scenario, a, b, rho)
    # composite cost is the sum of per-robot polyline lengths
    total = sum(
        float(np.linalg.norm(np.diff(np.asarray(track), axis=0), axis=1).sum())
        for track in path.per_robot
    )
    assert res.best_cost == pytest.approx(total, abs=1e-9)


def test_drrt_star_single_robot_matches_graph_optimum():
    sc = empty_multi([{"radius": 0.05, "start": [0.1, 0.1],
                       "goal": {"center": [0.9, 0.9], "radius": 0.05}}])
    res = drrt_star(sc, None, UniformStream(2, 3), 200, 4000)
    ref = shortest_path(res.roadmaps[0])
    assert res.best_cost == pytest.approx(ref.cost, abs=1e-9)


def test_drrt_star_infeasible_corridor_swap():
    sc = scenario_from_dict({
        "dimension": 2, "domain": {"min": [0, 0], "max": [1, 0.5]}, "obstacles": [],
        "robots": [
            {"radius": 0.3, "start": [0.1, 0.25],
             "goal": {"center": [0.9, 0.25], "radius": 0.05}},
            {"radius": 0.3, "start": [0.9, 0.25],
             "goal": {"center": [0.1, 0.25], "radius": 0.05}},
        ],
    })
    res = drrt_star(sc, None, UniformStream(2, 1), 100, 1500)
    assert res.best_cost is None
    assert res.path is None


def test_drrt_star_overlapping_starts_rejected():
    sc = empty_multi([
        {"radius": 0.3, "start": [0.4, 0.5], "goal": {"center": [0.9, 0.5], "radius": 0.05}},
        {"radius": 0.3, "start": [0.6, 0.5], "goal": {"center": [0.1, 0.5], "radius": 0.05}},
    ])
    with pytest.raises(UsageError):
        drrt_star(sc, None, UniformStream(2, 0), 100, 200)


def test_drrt_star_deterministic(swap_scenario):
    a, b = (drrt_star(swap_scenario, None, UniformStream(2, 9), 150, 1200,
                      checkpoints=(300, 600, 1200)) for _ in range(2))
    assert repr(a.best_cost) == repr(b.best_cost)
    assert a.checkpoints == b.checkpoints
    assert a.checkpoint_stats == b.checkpoint_stats
    assert a.counters == b.counters
    assert [t.tobytes() for t in a.path.per_robot] == [t.tobytes() for t in b.path.per_robot]


def test_drrt_star_settles_each_vertex_in_one_pass(swap_scenario, monkeypatch):
    # one neighbourhood pass per expansion and one per sweep step
    calls = {"discovered": 0, "expansions": 0}
    discovered = _TensorTree.discovered_neighbors

    def counted_discovered(self, key):
        calls["discovered"] += 1
        return discovered(self, key)

    def counted_expand(tree, q_rand):
        out = _expand_candidate(tree, q_rand)
        calls["expansions"] += out is not None
        return out

    monkeypatch.setattr(_TensorTree, "discovered_neighbors", counted_discovered)
    monkeypatch.setattr(multirobot, "_expand_candidate", counted_expand)
    res = drrt_star(swap_scenario, None, UniformStream(2, 3), 150, 1500)
    assert repr(res.best_cost) == "1.7066157516423783"
    assert calls["discovered"] == 1500 + calls["expansions"]
    assert calls["discovered"] == 2770


@pytest.mark.parametrize("bias", [0.0, 1.0])
def test_run_planner_passes_goal_bias_to_drrt_star(swap_scenario, bias):
    got = run_planner(swap_scenario, "drrt-star", UniformStream(2, 3), 600,
                      {"n_roadmap": 100, "goal_bias": bias})
    want = drrt_star(swap_scenario, None, UniformStream(2, 3), 100, 600, goal_bias=bias)
    default = drrt_star(swap_scenario, None, UniformStream(2, 3), 100, 600)
    assert got.best_cost == want.best_cost
    assert got.counters == want.counters
    assert got.counters != default.counters
