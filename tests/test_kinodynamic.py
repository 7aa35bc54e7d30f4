import math

import numpy as np
import pytest

from aoplan import (
    AuditError,
    PlanResult,
    Trajectory,
    UniformStream,
    UsageError,
    ao_meta,
    ao_rrt_plan,
    cost_bounded_rrt,
    kinematic_car,
    monte_carlo_propagate,
    points_valid,
    single_integrator_2d,
    sst_plan,
)

from conftest import OPT_EMPTY


# --- systems and propagation -------------------------------------------------


def test_integrator_constant_control_endpoint():
    system = single_integrator_2d(step=0.1, duration_bounds=(0.5, 0.5))
    traj = system.propagate(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 0.5)
    assert traj.shape == (6, 2)
    assert traj[-1] == pytest.approx((0.5, 0.0), abs=1e-12)


def test_integrator_zero_control_stays_put():
    system = single_integrator_2d(step=0.1, duration_bounds=(0.5, 0.5))
    traj = system.propagate(np.array([0.3, 0.4]), np.array([0.0, 0.0]), 0.5)
    assert np.allclose(traj, [0.3, 0.4])


def test_degenerate_duration_bounds(kino_square):
    system = single_integrator_2d(step=0.02, duration_bounds=(0.1, 0.1))
    stream = UniformStream(2, 1)
    for _ in range(20):
        _, _, duration = monte_carlo_propagate(system, np.array([0.5, 0.5]), stream)
        assert duration == pytest.approx(0.1, abs=1e-12)


def test_controls_sampled_inside_unit_disc():
    system = single_integrator_2d()
    stream = UniformStream(2, 2)
    for _ in range(200):
        _, control, _ = monte_carlo_propagate(system, np.zeros(2), stream)
        assert float(control @ control) <= 1.0 + 1e-12


def test_duration_quantized_to_whole_steps():
    system = single_integrator_2d(step=0.02, duration_bounds=(0.05, 0.3))
    stream = UniformStream(2, 3)
    for _ in range(50):
        traj, _, duration = monte_carlo_propagate(system, np.zeros(2), stream)
        steps = round(duration / system.step)
        assert duration == pytest.approx(steps * system.step, abs=1e-12)
        assert traj.shape[0] == steps + 1


def test_car_straight_line():
    system = kinematic_car(step=0.1, duration_bounds=(0.5, 0.5))
    traj = system.propagate(np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0]), 0.5)
    assert traj[-1] == pytest.approx((0.5, 0.0, 0.0), abs=1e-12)


def test_car_heading_integrates():
    system = kinematic_car(step=0.1, duration_bounds=(0.5, 0.5))
    traj = system.propagate(np.array([0.0, 0.0, 0.0]), np.array([0.5, 1.0]), 0.5)
    assert traj[-1, 2] == pytest.approx(0.5, abs=1e-12)
    assert system.positions(traj).shape == (6, 2)


def test_system_parameter_validation():
    with pytest.raises(UsageError):
        single_integrator_2d(duration_bounds=(0.0, 0.3))
    with pytest.raises(UsageError):
        single_integrator_2d(duration_bounds=(0.4, 0.3))
    with pytest.raises(UsageError):
        single_integrator_2d(step=0.0)


# --- sparse witness tree -------------------------------------------------------


def test_sst_witness_invariants_hold_every_iteration(kino_square):
    system = single_integrator_2d()
    res = sst_plan(kino_square, system, UniformStream(2, 5), 500, audit_every=1)
    assert res.counters["samples"] == 500


def test_sst_finds_near_optimal_duration(kino_square):
    system = single_integrator_2d()
    res = sst_plan(kino_square, system, UniformStream(2, 2), 6000)
    assert res.best_cost is not None
    # duration cost of a valid trajectory can never beat the time optimum
    assert res.best_cost >= OPT_EMPTY - kino_square.goal.radius - 1e-9
    assert res.best_cost <= 1.8


def test_sst_checkpoints_non_increasing(kino_square):
    system = single_integrator_2d()
    res = sst_plan(kino_square, system, UniformStream(2, 8), 8000,
                   checkpoints=[2000, 4000, 8000])
    defined = [c for _, c in res.checkpoints if c is not None]
    assert all(b <= a + 1e-12 for a, b in zip(defined, defined[1:]))


def test_sst_trajectory_replays_and_is_valid(kino_square):
    system = single_integrator_2d()
    res = sst_plan(kino_square, system, UniformStream(2, 2), 6000)
    traj = res.path
    assert isinstance(traj, Trajectory)
    assert res.best_cost == pytest.approx(sum(traj.durations), abs=1e-9)
    state = traj.states[0]
    for control, duration, nxt in zip(traj.controls, traj.durations, traj.states[1:]):
        seg = system.propagate(state, control, duration)
        assert np.allclose(seg[-1], nxt, atol=1e-12)
        assert points_valid(kino_square, system.positions(seg)).all()
        state = nxt


def test_sst_shrink_schedule(kino_square):
    system = single_integrator_2d()
    res = sst_plan(kino_square, system, UniformStream(2, 4), 3000,
                   shrink=(0.9, 1000), audit_every=500)
    assert res.counters["samples"] == 3000


def test_sst_parameter_validation(kino_square):
    system = single_integrator_2d()
    stream = UniformStream(2, 0)
    with pytest.raises(UsageError):
        sst_plan(kino_square, system, stream, 100, delta_bn=0.0)
    with pytest.raises(UsageError):
        sst_plan(kino_square, system, stream, 100, shrink=(1.0, 100))
    with pytest.raises(UsageError):
        sst_plan(kino_square, system, stream, 0)


def test_sst_start_inside_goal():
    from aoplan import scenario_from_dict

    sc = scenario_from_dict({
        "dimension": 2, "domain": {"min": [0, 0], "max": [1, 1]}, "obstacles": [],
        "start": [0.88, 0.88], "goal": {"center": [0.9, 0.9], "radius": 0.1},
    })
    res = sst_plan(sc, single_integrator_2d(), UniformStream(2, 0), 50)
    assert res.best_cost == 0.0


# --- state-cost tree -----------------------------------------------------------


def test_ao_rrt_bound_soundness_and_decreasing_bounds(kino_square):
    system = single_integrator_2d()
    res = ao_rrt_plan(kino_square, system, UniformStream(2, 2), 8000, audit_every=500)
    assert res.best_cost is not None
    assert res.bounds == sorted(res.bounds, reverse=True)
    assert len(set(res.bounds)) == len(res.bounds)
    assert res.best_cost == res.bounds[-1]


def test_ao_rrt_checkpoints_non_increasing(kino_square):
    system = single_integrator_2d()
    res = ao_rrt_plan(kino_square, system, UniformStream(2, 6), 6000,
                      checkpoints=[1500, 3000, 6000])
    defined = [c for _, c in res.checkpoints if c is not None]
    assert all(b <= a + 1e-12 for a, b in zip(defined, defined[1:]))


def test_ao_rrt_respects_duration_floor(kino_square):
    system = single_integrator_2d()
    res = ao_rrt_plan(kino_square, system, UniformStream(2, 2), 8000)
    assert res.best_cost >= OPT_EMPTY - kino_square.goal.radius - 1e-9


def test_ao_rrt_parameter_validation(kino_square):
    system = single_integrator_2d()
    with pytest.raises(UsageError):
        ao_rrt_plan(kino_square, system, UniformStream(2, 0), 100, cost_weight=-1.0)
    with pytest.raises(UsageError):
        ao_rrt_plan(kino_square, system, UniformStream(2, 0), 100, initial_bound=0.0)


def test_ao_rrt_accepts_infinite_initial_bound(kino_square):
    system = single_integrator_2d()
    res = ao_rrt_plan(kino_square, system, UniformStream(2, 2), 2000,
                      initial_bound=math.inf)
    assert res.counters["samples"] == 2000


# --- meta loop ------------------------------------------------------------------


def stub_round(path=None, cost=None):
    """A cost-bounded round's PlanResult: a path at cost, or no path."""
    return PlanResult(
        path=path, best_cost=cost, checkpoints=[(1, cost)],
        counters={"samples": 1, "collision_checks": 1, "nn_queries": 1, "rewires": 0},
        elapsed_ms=0.0,
        checkpoint_stats=[{"n": 1, "cost": cost, "nodes": 1, "edges": 0,
                           "collision_checks": 1, "work": 3}],
    )


def test_ao_meta_stub_bound_sequence():
    state = {"first": True}

    def stub(bound, budget):
        if state["first"]:
            state["first"] = False
            return stub_round("sol-0", 10.0)
        return stub_round(f"sol-{bound}", 0.99 * bound)

    res = ao_meta(stub, beta=0.1, rounds=5, budget=100)
    assert len(res.bounds) == 5
    assert res.bounds[0] == 10.0
    for a, b in zip(res.bounds, res.bounds[1:]):
        assert b < a
        assert b == pytest.approx(0.99 * 0.9 * a)
    assert res.best_cost == res.bounds[-1]


def test_ao_meta_round1_failure_is_no_path():
    res = ao_meta(lambda bound, budget: stub_round(), beta=0.2, rounds=3, budget=10)
    assert res.best_cost is None
    assert res.path is None
    assert res.bounds == []


def test_ao_meta_stops_on_timeout_round():
    calls = {"n": 0}

    def flaky(bound, budget):
        calls["n"] += 1
        if calls["n"] >= 3:
            return stub_round()
        return stub_round("sol", 10.0 if math.isinf(bound) else 0.9 * bound)

    res = ao_meta(flaky, beta=0.5, rounds=10, budget=10)
    assert len(res.bounds) == 2
    assert calls["n"] == 3


def test_ao_meta_rejects_bad_beta():
    with pytest.raises(UsageError):
        ao_meta(lambda b, n: None, beta=0.0, rounds=2, budget=10)
    with pytest.raises(UsageError):
        ao_meta(lambda b, n: None, beta=1.0, rounds=2, budget=10)


def test_ao_meta_with_cost_bounded_rrt(kino_square):
    system = single_integrator_2d()
    stream = UniformStream(2, 12)

    def planner(bound, budget):
        return cost_bounded_rrt(kino_square, system, stream, bound, budget)

    res = ao_meta(planner, beta=0.1, rounds=4, budget=3000)
    assert res.best_cost is not None
    assert res.best_cost <= res.bounds[0]
    assert res.bounds == sorted(res.bounds, reverse=True)


def test_ao_meta_counters_sum_every_round(kino_square):
    system = single_integrator_2d()
    stream = UniformStream(2, 25)
    rounds = []

    def planner(bound, budget):
        res = cost_bounded_rrt(kino_square, system, stream, bound, budget)
        rounds.append(res)
        return res

    res = ao_meta(planner, beta=0.1, rounds=4, budget=2000)
    # the third round exhausts its budget and still counts
    assert len(rounds) == 3 and rounds[-1].path is None
    for key in ("samples", "collision_checks", "nn_queries", "rewires"):
        assert res.counters[key] == sum(r.counters[key] for r in rounds)
    assert res.counters["rounds"] == 2
    for st, r, k in zip(res.checkpoint_stats, rounds, (1, 2)):
        assert (st["nodes"], st["edges"]) == (r.checkpoint_stats[-1]["nodes"],
                                              r.checkpoint_stats[-1]["edges"])
        assert st["collision_checks"] == sum(q.counters["collision_checks"] for q in rounds[:k])
        assert st["work"] == sum(q.checkpoint_stats[-1]["work"] for q in rounds[:k])


def test_cost_bounded_rrt_honors_bound(kino_square):
    system = single_integrator_2d()
    out = cost_bounded_rrt(kino_square, system, UniformStream(2, 3), 2.2, 6000)
    assert out.path is not None
    traj, cost = out.path, out.best_cost
    assert cost < 2.2
    assert cost == pytest.approx(sum(traj.durations), abs=1e-9)


def test_cost_bounded_rrt_returns_none_for_impossible_bound(kino_square):
    system = single_integrator_2d()
    out = cost_bounded_rrt(kino_square, system, UniformStream(2, 3), 0.5, 1500)
    assert out.path is None


def test_cost_bounded_rrt_refuses_cost_equal_to_bound():
    from aoplan import scenario_from_dict

    sc = scenario_from_dict({
        "dimension": 2, "domain": {"min": [0, 0], "max": [1, 1]}, "obstacles": [],
        "start": [0.5, 0.5], "goal": {"center": [0.5, 0.58], "radius": 0.05},
    })
    # every edge lasts exactly 0.1, so every child of the root costs the bound
    system = single_integrator_2d(step=0.02, duration_bounds=(0.1, 0.1))
    out = cost_bounded_rrt(sc, system, UniformStream(2, 1), 0.1, 200)
    assert out.path is None and out.best_cost is None
    assert out.checkpoint_stats[-1]["nodes"] == 1
