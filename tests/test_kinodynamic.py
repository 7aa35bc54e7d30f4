import hashlib
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

from conftest import OPT_EMPTY, assert_golden


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


# golden values recorded before the kinodynamic planners shared the tree core
GOLDEN_SST = {
    "best_cost": "1.2999999999999998",
    "checkpoints": [(3000, 1.78), (6000, 1.2999999999999998)],
    "stats": [
        {"n": 3000, "cost": 1.78, "nodes": 712, "edges": 711,
         "collision_checks": 3000, "work": 9000},
        {"n": 6000, "cost": 1.2999999999999998, "nodes": 767, "edges": 766,
         "collision_checks": 6000, "work": 18000},
    ],
    "counters": {"samples": 6000, "collision_checks": 6000, "nn_queries": 6000, "rewires": 0},
    "states": [[0.1, 0.1],
               [0.1809441287710163, 0.19683453178671856],
               [0.23285328333248576, 0.28013308845137846],
               [0.39133764969679463, 0.45910251811502034],
               [0.597873201635022, 0.5742521998625674],
               [0.6292378557090833, 0.6470107064642836],
               [0.7594861263223447, 0.7180456991785378],
               [0.8675236723283783, 0.9060783904476603]],
    "controls": [[0.40472064385508144, 0.48417265893359285],
                 [0.32443221600918415, 0.5206159791541243],
                 [0.6603515265179536, 0.7457059569318412],
                 [0.860564799742614, 0.47979034061477943],
                 [0.3920581759257664, 0.9094813325214524],
                 [0.8140516913328837, 0.4439687044640883],
                 [0.49107975457288, 0.8546940512232841]],
    "durations": [0.2, 0.16, 0.24, 0.24, 0.08, 0.16, 0.22],
}


GOLDEN_AO_RRT = {
    "best_cost": "1.5799999999999998",
    "checkpoints": [(3000, 1.5999999999999999), (6000, 1.5799999999999998)],
    "stats": [
        {"n": 3000, "cost": 1.5999999999999999, "nodes": 1778, "edges": 1777,
         "collision_checks": 2540, "work": 8540},
        {"n": 6000, "cost": 1.5799999999999998, "nodes": 3846, "edges": 3845,
         "collision_checks": 4981, "work": 16981},
    ],
    "counters": {"samples": 6000, "collision_checks": 4981, "nn_queries": 6000, "rewires": 0},
    "bounds": [1.8199999999999998, 1.76, 1.6800000000000002, 1.6400000000000001,
               1.5999999999999999, 1.58, 1.5799999999999998],
    "states": [[0.1, 0.1],
               [0.10255990690805922, 0.1256850029721003],
               [0.20507743152717878, 0.19357622538079328],
               [0.19768787505106095, 0.2808952679348118],
               [0.17504247299757691, 0.3339881699811763],
               [0.22496947697316472, 0.3988765508307323],
               [0.3037276516132138, 0.39310430513541855],
               [0.3874367034785711, 0.5688679067754668],
               [0.5462679850911434, 0.7021021743596181],
               [0.7198376200282238, 0.8310491952311891],
               [0.8818191297077644, 0.891411840987481]],
    "controls": [[0.012799534540296031, 0.1284250148605015],
                 [0.6407345288694972, 0.42432014005433105],
                 [-0.061579637300981815, 0.7276586879501543],
                 [-0.3774233675580674, 0.8848817007727423],
                 [0.4992700397558778, 0.6488838084955599],
                 [0.9844771830006136, -0.07215307119142178],
                 [0.38049569029707864, 0.7989254620002193],
                 [0.6617970067190511, 0.5551427816006305],
                 [0.7889528860776382, 0.5861228221435051],
                 [0.899897275997448, 0.33534803197939955]],
    "durations": [0.2, 0.16, 0.12, 0.06, 0.1, 0.08, 0.22, 0.24, 0.22, 0.18],
}


# counters and the nodes/edges/collision_checks/work stat fields were
# re-recorded when ao_meta began summing its rounds' counters; the rest
# is the earlier golden
GOLDEN_AO_META = {
    "best_cost": "2.02",
    "checkpoints": [(49, 2.46), (273, 2.02)],
    "stats": [
        {"n": 49, "cost": 2.46, "nodes": 46, "edges": 45,
         "collision_checks": 49, "work": 147},
        {"n": 273, "cost": 2.02, "nodes": 186, "edges": 185,
         "collision_checks": 260, "work": 806},
    ],
    "counters": {"samples": 2273, "collision_checks": 1257, "nn_queries": 2273, "rewires": 0,
                 "rounds": 2},
    "bounds": [2.46, 2.02],
    "states": [[0.1, 0.1],
               [0.20370865963508272, 0.07103742935534403],
               [0.31547700622755387, 0.13025214287524528],
               [0.3247498358052262, 0.13225881397123523],
               [0.36565140326933865, 0.302950262702359],
               [0.5325132696557158, 0.25195699543489863],
               [0.5769262073499895, 0.3157229892777836],
               [0.6187135933920441, 0.3906620821446755],
               [0.7000803752839729, 0.5957444749768653],
               [0.7886333460905768, 0.8112623734983968],
               [0.8271627157609822, 0.8178442616981104],
               [0.903450006728309, 0.8435908408144389],
               [0.9134772437045955, 0.8898724585850891]],
    "controls": [[0.432119415146178, -0.12067737768606657],
                 [0.6985521662029446, 0.3700919594993828],
                 [0.15454715962787247, 0.03344451826649908],
                 [0.22723093035618036, 0.9482858262840208],
                 [0.6952577766099044, -0.2124719469477514],
                 [0.3701078141189471, 0.5313832820240412],
                 [0.23215214467808165, 0.41632829370495505],
                 [0.27122260630642936, 0.6836079761072993],
                 [0.36897071169418294, 0.8979912438397142],
                 [0.6421561611734237, 0.1096981366618941],
                 [0.5449092211951914, 0.1839041365452032],
                 [0.10027236976286447, 0.4628161777065023]],
    "durations": [0.24, 0.16, 0.06, 0.18, 0.24, 0.12, 0.18, 0.3, 0.24, 0.06, 0.14, 0.1],
}


def test_sst_golden(kino_square):
    res = sst_plan(kino_square, single_integrator_2d(), UniformStream(2, 23), 6000,
                   checkpoints=(3000, 6000), audit_every=500)
    assert_golden(res, GOLDEN_SST)


def test_ao_rrt_golden(kino_square):
    res = ao_rrt_plan(kino_square, single_integrator_2d(), UniformStream(2, 24), 6000,
                      checkpoints=(3000, 6000), audit_every=500)
    assert_golden(res, GOLDEN_AO_RRT)


def test_ao_meta_golden(kino_square):
    system = single_integrator_2d()
    stream = UniformStream(2, 25)

    def planner(bound, budget):
        return cost_bounded_rrt(kino_square, system, stream, bound, budget)

    # the third round exhausts its budget, so the loop stops after two
    res = ao_meta(planner, beta=0.1, rounds=4, budget=2000)
    assert_golden(res, GOLDEN_AO_META)


# kinematic car goldens, recorded before the distance scans shared one
# kernel; they cover the car metric's sliced position term.  The path is
# pinned by a SHA-256 over the float64 bytes of its states, controls and
# durations.
GOLDEN_CAR_SST = {
    "best_cost": "7.06",
    "checkpoints": [(1500, 7.06), (3000, 7.06)],
    "stats": [
        {"n": 1500, "cost": 7.06, "nodes": 1201, "edges": 1200,
         "collision_checks": 1500, "work": 4500},
        {"n": 3000, "cost": 7.06, "nodes": 2384, "edges": 2383,
         "collision_checks": 3000, "work": 9000},
    ],
    "counters": {"samples": 3000, "collision_checks": 3000, "nn_queries": 3000, "rewires": 0},
    "path_sha256": "b010043b35897c2b7e7c03bcfda3aacdb87d18f2c3ebcf95745cc7b92e72d1a9",
}

GOLDEN_CAR_AO_RRT = {
    "best_cost": "1.8200000000000003",
    "checkpoints": [(1500, 1.8800000000000001), (3000, 1.8200000000000003)],
    "stats": [
        {"n": 1500, "cost": 1.8800000000000001, "nodes": 593, "edges": 592,
         "collision_checks": 1201, "work": 4201},
        {"n": 3000, "cost": 1.8200000000000003, "nodes": 1247, "edges": 1246,
         "collision_checks": 2060, "work": 8060},
    ],
    "counters": {"samples": 3000, "collision_checks": 2060, "nn_queries": 3000, "rewires": 0},
    "bounds": [2.6800000000000006, 1.8800000000000001, 1.8200000000000003],
    "path_sha256": "7421d43684e4e1dc8ca9b925fee296a70beecd2f31aa96ad21710b8b9d08ddf9",
}


def path_sha256(traj):
    h = hashlib.sha256()
    for part in (traj.states, traj.controls, traj.durations):
        h.update(np.array(part, dtype=float).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("plan, golden", [(sst_plan, GOLDEN_CAR_SST),
                                          (ao_rrt_plan, GOLDEN_CAR_AO_RRT)])
def test_car_golden(kino_square, plan, golden):
    res = plan(kino_square, kinematic_car(), UniformStream(2, 21), 3000,
               checkpoints=(1500, 3000), audit_every=500)
    assert_golden(res, golden)
    assert path_sha256(res.path) == golden["path_sha256"]
