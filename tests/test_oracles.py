import math

import numpy as np
import pytest

from aoplan import (
    UniformStream,
    UsageError,
    make_path,
    optimal_cost_2d_boxes,
    path_clearance,
    prm_star,
    refine_path,
    scenario_from_dict,
    tiling_cover_check,
)

from conftest import OPT_BOX, OPT_EMPTY, load_fixture_scenario


def test_empty_square_straight_line(empty_square):
    cost = optimal_cost_2d_boxes(empty_square)
    assert cost == pytest.approx(OPT_EMPTY, abs=1e-9)


def test_box_scene_hand_value(box_square):
    cost = optimal_cost_2d_boxes(box_square)
    # corners add at most a few eps_vg of detour
    assert cost == pytest.approx(OPT_BOX, abs=1e-5)


def test_start_equals_goal_costs_zero():
    sc = scenario_from_dict({
        "dimension": 2, "domain": {"min": [0, 0], "max": [1, 1]}, "obstacles": [],
        "start": [0.5, 0.5], "goal": {"center": [0.5, 0.5], "radius": 0.0},
    })
    assert optimal_cost_2d_boxes(sc) == 0.0


def test_oracle_stable_under_eps_halving(box_square):
    a = optimal_cost_2d_boxes(box_square, eps_vg=1e-6)
    b = optimal_cost_2d_boxes(box_square, eps_vg=5e-7)
    corners = 4 * len(box_square.obstacles)
    assert abs(a - b) <= 2e-6 * corners


def test_oracle_disconnected_returns_none():
    sc = scenario_from_dict({
        "dimension": 2, "domain": {"min": [0, 0], "max": [1, 1]},
        "obstacles": [{"type": "box", "min": [0.45, -0.1], "max": [0.55, 1.1]}],
        "start": [0.1, 0.5], "goal": {"center": [0.9, 0.5], "radius": 0.02},
    })
    assert optimal_cost_2d_boxes(sc) is None


@pytest.mark.parametrize("name,want", [
    ("box_square", "0.8324562671276714"),
    ("empty_square", "1.1313708498984762"),
    ("kino_square", "1.1313708498984762"),
])
def test_oracle_bundled_scenes_exact(name, want):
    # recorded from the oracle's own Dijkstra, before it used shortest_path
    assert repr(optimal_cost_2d_boxes(load_fixture_scenario(f"{name}.json"))) == want


def test_oracle_rejects_non_2d():
    sc = scenario_from_dict({
        "dimension": 3, "domain": {"min": [0, 0, 0], "max": [1, 1, 1]},
        "obstacles": [], "start": [0.1, 0.1, 0.1],
        "goal": {"center": [0.9, 0.9, 0.9], "radius": 0.02},
    })
    with pytest.raises(UsageError):
        optimal_cost_2d_boxes(sc)


def test_oracle_rejects_ball_obstacles():
    sc = scenario_from_dict({
        "dimension": 2, "domain": {"min": [0, 0], "max": [1, 1]},
        "obstacles": [{"type": "ball", "center": [0.5, 0.5], "radius": 0.1}],
        "start": [0.1, 0.1], "goal": {"center": [0.9, 0.9], "radius": 0.02},
    })
    with pytest.raises(UsageError):
        optimal_cost_2d_boxes(sc)


def test_planner_cost_dominates_oracle_lower_bound(box_square):
    res = prm_star(box_square, UniformStream(2, 33), 1500)
    oracle = optimal_cost_2d_boxes(box_square)
    assert res.best_cost >= oracle - box_square.goal.radius - 1e-9


# --- tiling certification ----------------------------------------------------


def test_tiling_straight_path_generous_radius(empty_square):
    path = refine_path(make_path([(0.2, 0.5), (0.8, 0.5)]), 0.05)
    assert tiling_cover_check(empty_square, path, 0.1)


def test_tiling_fails_when_hugging_obstacle(box_square):
    path = refine_path(make_path([(0.2, 0.35), (0.8, 0.35)]), 0.02)
    # the midsection passes 0.05 under the box: balls of radius 0.1 hit it
    assert not tiling_cover_check(box_square, path, 0.1)


def test_tiling_fails_on_sparse_waypoints(empty_square):
    path = make_path([(0.2, 0.5), (0.8, 0.5)])
    assert not tiling_cover_check(empty_square, path, 0.1)


def test_tiling_certifies_prm_solution(box_square):
    res = prm_star(box_square, UniformStream(2, 101), 1200)
    assert res.best_cost is not None
    rho = box_square.default_resolution()
    clearance = path_clearance(box_square, res.path, rho)
    assert clearance > 0
    radius = clearance / 2.0
    fine = refine_path(res.path, radius)
    assert tiling_cover_check(box_square, fine, radius)


def test_tiling_rejects_bad_radius(empty_square):
    with pytest.raises(UsageError):
        tiling_cover_check(empty_square, make_path([(0.5, 0.5)]), 0.0)
