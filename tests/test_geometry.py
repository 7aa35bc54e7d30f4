import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aoplan import (
    BallObstacle,
    Box,
    BoxObstacle,
    CollisionChecker,
    Path,
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    UsageError,
    edge_valid,
    load_scenario,
    make_path,
    path_clearance,
    path_cost,
    points_valid,
    refine_path,
    scenario_from_dict,
    segments_valid,
)
from aoplan.geometry import _rowdot, clearance_of_points
from aoplan.nn import _pair_distances

from conftest import pocket_scenario


def square(obstacles=(), start=(0.1, 0.1), goal=((0.9, 0.9), 0.02)):
    return scenario_from_dict({
        "dimension": 2,
        "domain": {"min": [0, 0], "max": [1, 1]},
        "obstacles": list(obstacles),
        "start": list(start),
        "goal": {"center": list(goal[0]), "radius": goal[1]},
    })


BOX = {"type": "box", "min": [0.4, 0.4], "max": [0.6, 0.6]}


def naive_edge_valid(scenario, a, b, rho):
    """Reference subdivision check: every point at spacing <= rho is valid.

    Exact endpoints at i = 0 and i = m; the interior points use the
    standard interpolation formula.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if tuple(a) > tuple(b):
        a, b = b, a
    m = max(1, int(math.ceil(float(np.linalg.norm(b - a)) / rho)))
    for i in range(m + 1):
        q = a if i == 0 else b if i == m else a + (i / m) * (b - a)
        if not CollisionChecker(scenario).point_valid(q):
            return False
    return True


# --- point validity -------------------------------------------------------


def test_point_valid_empty_square():
    assert CollisionChecker(square()).point_valid((0.5, 0.5))


def test_point_invalid_inside_box_obstacle():
    assert not CollisionChecker(square([BOX])).point_valid((0.5, 0.5))


def test_point_invalid_outside_domain():
    assert not CollisionChecker(square()).point_valid((1.2, 0.5))


def test_point_on_obstacle_boundary_is_invalid():
    sc = square([BOX])
    assert not CollisionChecker(sc).point_valid((0.4, 0.5))
    assert not CollisionChecker(sc).point_valid((0.6, 0.6))


def test_point_on_domain_boundary_is_valid():
    assert CollisionChecker(square()).point_valid((0.0, 0.5))


def test_ball_obstacle_closed():
    sc = square([{"type": "ball", "center": [0.5, 0.5], "radius": 0.1}])
    assert not CollisionChecker(sc).point_valid((0.6, 0.5))
    assert CollisionChecker(sc).point_valid((0.61, 0.5))


def test_point_valid_dimension_mismatch():
    with pytest.raises(UsageError):
        CollisionChecker(square()).point_valid((0.5, 0.5, 0.5))


# --- edge validity --------------------------------------------------------


def test_edge_valid_empty_square():
    assert edge_valid(square(), (0.1, 0.1), (0.9, 0.9), 0.01)


def test_edge_pierces_box():
    assert not edge_valid(square([BOX]), (0.1, 0.5), (0.9, 0.5), 0.01)


def test_edge_degenerate_point():
    assert edge_valid(square(), (0.3, 0.3), (0.3, 0.3), 0.01)


def test_edge_invalid_resolution():
    with pytest.raises(UsageError):
        edge_valid(square(), (0.1, 0.1), (0.2, 0.2), 0.0)


def test_edge_skims_past_obstacle():
    sc = square([BOX])
    assert edge_valid(sc, (0.1, 0.3), (0.9, 0.3), 0.01)


obstacle_st = st.one_of(
    st.tuples(
        st.floats(0.0, 0.7), st.floats(0.0, 0.7), st.floats(0.05, 0.3),
        st.floats(0.05, 0.3),
    ).map(lambda t: {"type": "box", "min": [t[0], t[1]],
                     "max": [min(1.0, t[0] + t[2]), min(1.0, t[1] + t[3])]}),
    st.tuples(
        st.floats(0.1, 0.9), st.floats(0.1, 0.9), st.floats(0.03, 0.25)
    ).map(lambda t: {"type": "ball", "center": [t[0], t[1]], "radius": t[2]}),
)

point_st = st.tuples(st.floats(-0.2, 1.2), st.floats(-0.2, 1.2))


@settings(max_examples=120, deadline=None)
@given(
    obstacles=st.lists(obstacle_st, max_size=3),
    a=point_st,
    b=point_st,
    rho=st.sampled_from([0.3, 0.05, 0.011, 0.004]),
)
def test_edge_valid_matches_naive_subdivision(obstacles, a, b, rho):
    sc = square(obstacles, start=(0.001, 0.001)) if _start_free(obstacles) else None
    if sc is None:
        return
    assert edge_valid(sc, a, b, rho) == naive_edge_valid(sc, a, b, rho)


def _start_free(obstacles):
    for ob in obstacles:
        if ob["type"] == "box":
            if ob["min"][0] <= 0.001 <= ob["max"][0] and ob["min"][1] <= 0.001 <= ob["max"][1]:
                return False
        else:
            if math.hypot(ob["center"][0] - 0.001, ob["center"][1] - 0.001) <= ob["radius"]:
                return False
    return True


@settings(max_examples=60, deadline=None)
@given(obstacles=st.lists(obstacle_st, max_size=2), a=point_st, b=point_st)
def test_edge_valid_symmetric(obstacles, a, b):
    if not _start_free(obstacles):
        return
    sc = square(obstacles, start=(0.001, 0.001))
    assert edge_valid(sc, a, b, 0.01) == edge_valid(sc, b, a, 0.01)


@settings(max_examples=60, deadline=None)
@given(obstacles=st.lists(obstacle_st, max_size=2), a=point_st, b=point_st)
def test_edge_refinement_monotone(obstacles, a, b):
    # halving the resolution can only add subdivision points
    if not _start_free(obstacles):
        return
    sc = square(obstacles, start=(0.001, 0.001))
    if not edge_valid(sc, a, b, 0.02):
        assert not edge_valid(sc, a, b, 0.01)


@settings(max_examples=40, deadline=None)
@given(q=point_st)
def test_point_valid_implies_degenerate_edge_valid(q):
    sc = square([BOX])
    if CollisionChecker(sc).point_valid(q):
        assert edge_valid(sc, q, q, 0.5)


def test_segments_valid_batch_agrees_with_scalar():
    sc = square([BOX, {"type": "ball", "center": [0.25, 0.75], "radius": 0.1}])
    rng = np.random.default_rng(0)
    a = rng.random((200, 2)) * 1.2 - 0.1
    b = rng.random((200, 2)) * 1.2 - 0.1
    batch = segments_valid(sc, a, b, 0.01)
    for i in range(200):
        assert batch[i] == edge_valid(sc, a[i], b[i], 0.01)


# --- path cost ------------------------------------------------------------


def test_path_cost_345():
    assert path_cost([(0, 0), (3, 4)]) == pytest.approx(5.0, abs=1e-12)


def test_path_cost_diagonal():
    assert path_cost([(0.1, 0.1), (0.9, 0.9)]) == pytest.approx(0.8 * math.sqrt(2), abs=1e-12)


def test_path_cost_single_point():
    assert path_cost([(0, 0)]) == 0.0


def test_path_cost_empty_is_usage_error():
    with pytest.raises(UsageError):
        path_cost([])


@settings(max_examples=50, deadline=None)
@given(
    pts=st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=1, max_size=6),
    shift=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
    scale=st.floats(0.1, 4.0),
)
def test_path_cost_translation_and_scaling(pts, shift, scale):
    base = path_cost(pts)
    shifted = path_cost([(x + shift[0], y + shift[1]) for x, y in pts])
    scaled = path_cost([(x * scale, y * scale) for x, y in pts])
    assert shifted == pytest.approx(base, rel=1e-9, abs=1e-9)
    assert scaled == pytest.approx(scale * base, rel=1e-9, abs=1e-9)


# --- clearance ------------------------------------------------------------


def test_clearance_center_of_empty_square():
    sc = square()
    path = make_path([(0.5, 0.5)])
    assert path_clearance(sc, path, 0.01) == pytest.approx(0.5, abs=1e-12)


def test_clearance_to_box_face():
    sc = square([BOX])
    path = make_path([(0.3, 0.5)])
    assert path_clearance(sc, path, 0.01) == pytest.approx(0.1, abs=1e-12)


def test_clearance_touching_obstacle_is_zero():
    sc = square([BOX])
    path = make_path([(0.2, 0.4), (0.4, 0.4)])
    assert path_clearance(sc, path, 0.01) == 0.0


def test_positive_clearance_implies_valid_waypoints():
    sc = square([BOX])
    path = make_path([(0.1, 0.1), (0.2, 0.15), (0.35, 0.2)])
    if path_clearance(sc, path, 0.005) > 0:
        assert all(CollisionChecker(sc).point_valid(w) for w in path.waypoints)


def test_refine_path_preserves_cost_and_geometry():
    path = make_path([(0.0, 0.0), (1.0, 0.0)])
    fine = refine_path(path, 0.1)
    assert fine.cost == path.cost
    assert len(fine.waypoints) == 11
    assert np.allclose(fine.waypoints[0], (0, 0))
    assert np.allclose(fine.waypoints[-1], (1, 0))
    gaps = [np.linalg.norm(b - a) for a, b in zip(fine.waypoints, fine.waypoints[1:])]
    assert max(gaps) <= 0.1 + 1e-12


# --- scenario loading -----------------------------------------------------


def test_load_scenario_roundtrip():
    text = """
    {"dimension": 2, "domain": {"min": [0,0], "max": [1,1]},
     "obstacles": [{"type": "box", "min": [0.4,0.4], "max": [0.6,0.6]}],
     "start": [0.1, 0.1], "goal": {"center": [0.9,0.9], "radius": 0.02},
     "optimal_cost": 1.0}
    """
    sc = load_scenario(text)
    assert sc.dimension == 2
    assert len(sc.obstacles) == 1
    assert isinstance(sc.obstacles[0], BoxObstacle)
    assert sc.optimal_cost == 1.0
    assert sc.measure_upper == pytest.approx(1.0)


def test_load_scenario_start_in_obstacle():
    text = """
    {"dimension": 2, "domain": {"min": [0,0], "max": [1,1]},
     "obstacles": [{"type": "box", "min": [0.0,0.0], "max": [0.3,0.3]}],
     "start": [0.1, 0.1], "goal": {"center": [0.9,0.9], "radius": 0.02}}
    """
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(text)
    assert "start" in str(err.value)


def test_load_scenario_missing_dimension():
    with pytest.raises(ScenarioParseError):
        load_scenario('{"domain": {"min": [0,0], "max": [1,1]}, "start": [0,0]}')


def test_load_scenario_malformed_json():
    with pytest.raises(ScenarioParseError):
        load_scenario("{not json")


def test_load_scenario_dimension_mismatch_has_field_path():
    text = """
    {"dimension": 3, "domain": {"min": [0,0,0], "max": [1,1,1]},
     "obstacles": [], "start": [0.1, 0.1],
     "goal": {"center": [0.9,0.9,0.9], "radius": 0.02}}
    """
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(text)
    assert err.value.field_path == "start"


def test_load_scenario_bad_obstacle_box():
    text = """
    {"dimension": 2, "domain": {"min": [0,0], "max": [1,1]},
     "obstacles": [{"type": "box", "min": [0.5,0.5], "max": [0.4,0.6]}],
     "start": [0.1, 0.1], "goal": {"center": [0.9,0.9], "radius": 0.02}}
    """
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(text)
    assert "obstacles[0]" in err.value.field_path


def test_load_scenario_ball_radius_positive():
    text = """
    {"dimension": 2, "domain": {"min": [0,0], "max": [1,1]},
     "obstacles": [{"type": "ball", "center": [0.5,0.5], "radius": 0.0}],
     "start": [0.1, 0.1], "goal": {"center": [0.9,0.9], "radius": 0.02}}
    """
    with pytest.raises(ScenarioValidationError):
        load_scenario(text)


def test_multirobot_scenario_loads_without_top_level_start():
    text = """
    {"dimension": 2, "domain": {"min": [0,0], "max": [1,1]}, "obstacles": [],
     "robots": [
       {"radius": 0.05, "start": [0.1,0.5], "goal": {"center": [0.9,0.5], "radius": 0.05}}
     ]}
    """
    sc = load_scenario(text)
    assert sc.start is None
    assert len(sc.robots) == 1
    assert sc.robots[0].radius == 0.05


def test_pocket_scenario_loads():
    sc = pocket_scenario()
    assert CollisionChecker(sc).point_valid(sc.start)
    assert not CollisionChecker(sc).point_valid(sc.goal.center)


def test_points_valid_vectorized_matches_scalar():
    sc = square([BOX, {"type": "ball", "center": [0.2, 0.8], "radius": 0.1}])
    rng = np.random.default_rng(3)
    pts = rng.random((500, 2)) * 1.4 - 0.2
    flags = points_valid(sc, pts)
    for i in range(0, 500, 17):
        assert flags[i] == CollisionChecker(sc).point_valid(pts[i])


# --- one-item checker -------------------------------------------------------


@st.composite
def one_item_scene(draw):
    """A d = 2..5 unit-cube scene with box and ball obstacles, a margin and a resolution."""
    d = draw(st.integers(2, 5))
    obstacles = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            lo = np.array([draw(st.floats(0.0, 0.7)) for _ in range(d)])
            hi = np.minimum(1.0, lo + [draw(st.floats(0.05, 0.3)) for _ in range(d)])
            obstacles.append(BoxObstacle(lo=lo, hi=hi))
        else:
            center = np.array([draw(st.floats(0.1, 0.9)) for _ in range(d)])
            obstacles.append(BallObstacle(center=center, radius=draw(st.floats(0.03, 0.25))))
    sc = Scenario(dimension=d, domain=Box(lo=np.zeros(d), hi=np.ones(d)),
                  obstacles=tuple(obstacles), start=None, goal=None)
    margin = draw(st.sampled_from([0.0, 0.002, 0.02]))
    rho = draw(st.one_of(st.sampled_from([1e-3, 0.5]), st.floats(1e-3, 0.5)))
    return sc, margin, rho, draw(st.integers(0, 2**32 - 1))


def snapped_segments(sc, margin, rng, n):
    """n segments; many endpoints lie on a domain face, a box face or a ball surface.

    Ball-surface points are placed along an axis or along a random
    direction, where the order of the squared terms decides the verdict.
    One segment in ten has zero length.
    """
    d = sc.dimension
    ends = []
    for _ in range(2):
        pts = rng.uniform(-0.1, 1.1, (n, d))
        for i in range(n):
            j = rng.integers(d)
            kind = rng.integers(4)
            if kind == 1:
                pts[i, j] = rng.choice([0.0, 1.0])
            elif kind >= 2:
                ob = sc.obstacles[rng.integers(len(sc.obstacles))]
                grow = rng.choice([0.0, margin])
                if isinstance(ob, BoxObstacle):
                    pts[i, j] = rng.choice([ob.lo[j] - grow, ob.hi[j] + grow])
                else:
                    v = rng.uniform(-1.0, 1.0, d) if kind == 3 else np.eye(d)[j]
                    pts[i] = ob.center + (ob.radius + grow) * v / np.linalg.norm(v)
        ends.append(pts)
    a, b = ends
    near = rng.random(n) < 0.5  # short segments that start on a face
    b[near] = a[near] + rng.uniform(-0.05, 0.05, (near.sum(), d))
    same = rng.random(n) < 0.1
    b[same] = a[same]
    return a, b


@settings(max_examples=150, deadline=None)
@given(scene=one_item_scene())
def test_one_item_checks_match_batch_rows(scene):
    sc, margin, rho, seed = scene
    a, b = snapped_segments(sc, margin, np.random.default_rng(seed), 60)
    rows = segments_valid(sc, a, b, rho, margin)
    ends = points_valid(sc, a, margin)
    checker = CollisionChecker(sc, rho, margin)
    for i in range(a.shape[0]):
        assert checker.edge_valid(a[i], b[i]) == rows[i]
        assert checker.edge_valid(b[i], a[i]) == rows[i]
        assert edge_valid(sc, a[i], b[i], rho, margin) == rows[i]
        assert checker.point_valid(a[i]) == ends[i]
        if margin == 0.0:
            assert CollisionChecker(sc).point_valid(a[i]) == ends[i]


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_rowdot_sums_columns_left_to_right(d):
    rng = np.random.default_rng(d)
    x = rng.standard_normal((4000, d)) * rng.choice([1e-3, 1.0, 1e3], size=(4000, d))
    y = rng.standard_normal((4000, d))
    for u, v in ((x, x), (x, y)):
        want = []
        for ur, vr in zip(u.tolist(), v.tolist()):
            acc = 0.0
            for p, q in zip(ur, vr):
                acc += p * q
            want.append(acc)
        assert _rowdot(u, v).tolist() == want
    if d == 2:
        # a two-term sum has one order, so d = 2 matches the numpy reductions
        assert np.array_equal(_rowdot(x, x), np.einsum("ij,ij->i", x, x))
        assert np.array_equal(np.sqrt(_rowdot(x, x)), np.linalg.norm(x, axis=1))


BOX_AND_BALL = Scenario(
    dimension=2, domain=Box(lo=np.zeros(2), hi=np.ones(2)), start=None, goal=None,
    obstacles=(BoxObstacle(lo=np.array([0.4, 0.4]), hi=np.array([0.6, 0.6])),
               BallObstacle(center=np.array([0.2, 0.8]), radius=0.1)))


@settings(max_examples=100, deadline=None)
@given(scene=one_item_scene(), wall=st.booleans())
@example(scene=(BOX_AND_BALL, 0.0, 0.01, 7), wall=True)
@example(scene=(BOX_AND_BALL, 0.02, 0.01, 8), wall=True)
def test_states_valid_matches_points_valid(scene, wall):
    """One check per call, and the verdict of points_valid(...).all()."""
    sc, margin, _, seed = scene
    rng = np.random.default_rng(seed)
    a, b = snapped_segments(sc, margin, rng, 40)
    checker = CollisionChecker(sc, margin=margin)
    trajectories = [a[i:i + 2 + i % 7] for i in range(0, 40, 3)]
    # random walks from a free point; a wall point is one that clamps to the domain
    for start in b[points_valid(sc, b, margin)][:6]:
        steps = start + np.cumsum(rng.uniform(-0.02, 0.02, (12, sc.dimension)), axis=0)
        trajectories.append(np.clip(steps, 0.0, 1.0) if wall else steps)
    for ob in sc.obstacles:
        # on the inflated box face or ball surface, and one ulp outside it
        if isinstance(ob, BoxObstacle):
            p, face = (ob.lo + ob.hi) / 2, ob.hi[0] + margin
        else:
            p, face = ob.center.copy(), ob.center[0] + (ob.radius + margin)
        for x in (face, np.nextafter(face, np.inf)):
            p[0] = x
            trajectories.append(np.array([b[0], p.copy()]))
    for pts in trajectories:
        before = checker.checks
        assert checker.states_valid(pts) == bool(points_valid(sc, pts, margin).all())
        assert checker.checks == before + 1


# --- clearance certificate of the batched edge check ------------------------


@st.composite
def certificate_case(draw):
    """A one_item_scene, vertices in and around it, and edges to test.

    Each of the first 30 vertices has a partner vertex at a distance of its
    clearance less the margin, scaled by 1 - rel for a rel of either sign
    between 1e-17 and 1e-2 or exactly 0, so many edges lie within rounding
    of the certificate's boundary.  Both orientations are tested, plus 40
    random pairs.
    """
    sc, margin, rho, seed = draw(one_item_scene())
    rng = np.random.default_rng(seed)
    n, d = 30, sc.dimension
    base = rng.uniform(-0.05, 1.05, (n, d))
    v = rng.standard_normal((n, d))
    v /= np.sqrt(_rowdot(v, v))[:, None]
    rel = rng.choice([-1.0, 0.0, 1.0], n) * 10.0 ** rng.uniform(-17, -2, n)
    reach = np.maximum(clearance_of_points(sc, base) - margin, 0.0) * (1.0 - rel)
    pts = np.vstack([base, base + reach[:, None] * v])
    i = np.arange(n)
    extra_a, extra_b = rng.integers(0, 2 * n, (2, 40))
    return (sc, margin, rho, pts, np.concatenate([i, i + n, extra_a]),
            np.concatenate([i + n, i, extra_b]))


def boundary_case(obstacle, margin, a, point_at, x):
    """Edges from a to point_at at the first x that collides as x grows, and 1 and 2 ulps short.

    x starts as a guess of the boundary; both orientations of each edge.
    """
    sc = square([obstacle])

    def hit(x):
        return not points_valid(sc, point_at(x), margin)[0]

    while hit(x):
        x = np.nextafter(x, -np.inf)
    while not hit(x):
        x = np.nextafter(x, np.inf)
    short1 = np.nextafter(x, -np.inf)
    short2 = np.nextafter(short1, -np.inf)
    pts = np.array([a, point_at(x), point_at(short1), point_at(short2)])
    return sc, margin, 1e-3, pts, np.array([0, 0, 0, 1, 2, 3]), np.array([1, 2, 3, 0, 0, 0])


BALL = {"type": "ball", "center": [0.5, 0.5], "radius": 0.1}


def face_case(margin):
    # at margin 0 the edge (0.3, 0.5)-(0.4, 0.5) and the clearance of (0.3, 0.5)
    # are both 0.10000000000000003 long, and the edge touches the obstacle
    return boundary_case(BOX, margin, (0.3, 0.5), lambda x: (x, 0.5), 0.4 - margin)


def corner_case(margin):
    return boundary_case(BOX, margin, (0.3, 0.3), lambda x: (x, x), 0.4 - margin / math.sqrt(2))


def ball_case(margin):
    return boundary_case(BALL, margin, (0.3, 0.5), lambda x: (x, 0.5), 0.4 - margin)


@settings(max_examples=150, deadline=None)
@given(case=certificate_case())
@example(case=face_case(0.0))
@example(case=face_case(0.05))
@example(case=corner_case(0.0))
@example(case=corner_case(0.05))
@example(case=ball_case(0.0))
@example(case=ball_case(0.05))
def test_edges_valid_certificate_matches_subdivision(case):
    """Certified or subdivided, each edge gets segments_valid's verdict, and one check."""
    sc, margin, rho, pts, a, b = case
    checker = CollisionChecker(sc, rho, margin)
    got = checker.edges_valid(pts, a, b, _pair_distances(pts, a, b))
    assert got.tolist() == segments_valid(sc, pts[a], pts[b], rho, margin).tolist()
    assert checker.checks == len(a)
