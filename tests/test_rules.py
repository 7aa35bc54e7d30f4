import math

import mpmath as mp
import numpy as np
import pytest

from aoplan import (
    CollisionChecker,
    CompositeConfig,
    NeighborIndex,
    RadiusRule,
    RunSpec,
    UniformStream,
    UsageError,
    ao_rrt_plan,
    composite_edge_valid,
    connection_radius,
    edge_valid,
    k_connection,
    kinematic_car,
    make_path,
    measure_dispersion,
    optimal_cost_2d_boxes,
    path_clearance,
    prm_star,
    radius_pairs,
    refine_path,
    rgg_connectivity_radius,
    rrt,
    rrt_star,
    run_planner,
    sample_free,
    segments_valid,
    single_integrator_2d,
    sst_plan,
    steer,
    tiling_cover_check,
    unit_ball_volume,
)

from conftest import load_fixture_scenario

mp.mp.dps = 50


def mp_zeta(d):
    return mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2 + 1)


def mp_prm_radius(d, mu, n):
    d = mp.mpf(d)
    return 2 * (1 + 1 / d) ** (1 / d) * (mp.mpf(mu) / mp_zeta(d)) ** (1 / d) * (
        mp.log(n) / n) ** (1 / d)


def mp_fmt_radius(d, mu, n):
    d = mp.mpf(d)
    return 2 * (1 / d) ** (1 / d) * (mp.mpf(mu) / mp_zeta(d)) ** (1 / d) * (
        mp.log(n) / n) ** (1 / d)


def mp_rrt_radius(d, mu, n, theta, nu, eps, c_star):
    d = mp.mpf(d)
    inner = (1 + mp.mpf(eps) / 4) * mp.mpf(c_star) / ((d + 1) * mp.mpf(theta) * (1 - mp.mpf(nu)))
    return (2 + mp.mpf(theta)) * inner ** (1 / (d + 1)) * (
        mp.mpf(mu) / mp_zeta(d)) ** (1 / (d + 1)) * (mp.log(n) / n) ** (1 / (d + 1))


def mp_rgg_radius(d, n):
    d = mp.mpf(d)
    return (1 / mp_zeta(d)) ** (1 / d) * (mp.log(n) / n) ** (1 / d)


def rule(kind, d=2, mu=1.0, **kw):
    return RadiusRule(rule=kind, d=d, mu=mu, **kw)


# --- golden values against the high-precision oracle ------------------------


def test_prm_star_golden():
    got = connection_radius(rule("prm_star", safety_factor=1.0), 1000)
    assert abs(got - float(mp_prm_radius(2, 1, 1000))) < 1e-9


def test_fmt_star_golden():
    got = connection_radius(rule("fmt_star_constant", safety_factor=1.0), 1000)
    assert abs(got - float(mp_fmt_radius(2, 1, 1000))) < 1e-9


def test_rgg_golden():
    got = rgg_connectivity_radius(2, 1000)
    assert abs(got - float(mp_rgg_radius(2, 1000))) < 1e-9


def test_rgg_d1_example():
    # zeta_1 = 2, so the threshold is (1/2) ln(2)/2
    assert rgg_connectivity_radius(1, 2) == pytest.approx(0.5 * math.log(2) / 2, abs=1e-9)


def test_k_connection_golden():
    assert k_connection(2, 1000) == 29
    threshold = float(mp.e * mp.mpf(1.5) * mp.log(1000))
    assert math.floor(threshold) + 1 == 29


def test_k_connection_d1_n2():
    # threshold 2 e ln 2 = 3.768...
    assert k_connection(1, 2) == 4


def test_rrt_star_revised_matches_oracle():
    r = rule("rrt_star_revised", theta=0.2, nu=0.5, eps=0.5,
             c_star_estimate=1.5, safety_factor=1.0)
    got = connection_radius(r, 500)
    want = float(mp_rrt_radius(2, 1.0, 500, 0.2, 0.5, 0.5, 1.5))
    assert abs(got - want) < 1e-9


def test_safety_factor_scales_linearly():
    base = connection_radius(rule("prm_star", safety_factor=1.0), 100)
    padded = connection_radius(rule("prm_star", safety_factor=1.25), 100)
    assert padded == pytest.approx(1.25 * base, rel=1e-12)


def test_fixed_rule():
    r = rule("fixed", fixed_radius=0.25, safety_factor=1.0)
    assert connection_radius(r, 10) == 0.25
    assert connection_radius(r, 100000) == 0.25


# --- structure ------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 6])
def test_mu_homogeneity(d):
    base = connection_radius(rule("prm_star", d=d, mu=1.0, safety_factor=1.0), 1000)
    double = connection_radius(
        rule("prm_star", d=d, mu=float(2 ** d), safety_factor=1.0), 1000)
    assert abs(double - 2.0 * base) / (2.0 * base) < 1e-12


def test_k_monotone_in_n():
    for d in (1, 2, 5):
        for n in (2, 10, 100, 1000):
            assert k_connection(d, 4 * n) >= k_connection(d, n)


@pytest.mark.parametrize("d", range(1, 9))
def test_fmt_below_prm(d):
    n = 500
    fmt = connection_radius(rule("fmt_star_constant", d=d, safety_factor=1.0), n)
    prm = connection_radius(rule("prm_star", d=d, safety_factor=1.0), n)
    assert fmt < prm


@pytest.mark.parametrize("d", range(1, 9))
def test_fmt_vs_doubled_connectivity_radius(d):
    n = 500
    fmt = connection_radius(rule("fmt_star_constant", d=d, safety_factor=1.0), n)
    rgg2 = 2.0 * rgg_connectivity_radius(d, n)
    if d == 1:
        assert fmt == pytest.approx(rgg2, rel=1e-12)
    else:
        assert fmt < rgg2


def test_rgg_always_below_prm():
    for d in (1, 2, 3, 7):
        for n in (2, 50, 10_000):
            assert rgg_connectivity_radius(d, n) < connection_radius(
                rule("prm_star", d=d, safety_factor=1.0), n)


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


# --- usage errors ----------------------------------------------------------


def test_n_below_two_rejected():
    with pytest.raises(UsageError):
        connection_radius(rule("prm_star"), 1)
    with pytest.raises(UsageError):
        k_connection(2, 1)
    with pytest.raises(UsageError):
        rgg_connectivity_radius(2, 0)


def test_parameter_domains():
    with pytest.raises(UsageError):
        rule("prm_star", theta=0.3)
    with pytest.raises(UsageError):
        rule("prm_star", nu=1.0)
    with pytest.raises(UsageError):
        rule("prm_star", eps=0.0)
    with pytest.raises(UsageError):
        rule("prm_star", mu=0.0)
    with pytest.raises(UsageError):
        rule("prm_star", safety_factor=0.99)
    with pytest.raises(UsageError):
        rule("fixed")
    with pytest.raises(UsageError):
        rule("nonsense")


def test_k_rule_has_no_radius():
    with pytest.raises(UsageError):
        connection_radius(rule("k_prm_star"), 100)


def test_rrt_rule_needs_c_star():
    with pytest.raises(UsageError):
        connection_radius(rule("rrt_star_revised"), 100)


# --- steer ------------------------------------------------------------------


def test_steer_clips_to_eta():
    assert steer((0, 0), (1, 0), 0.5) == pytest.approx((0.5, 0.0))


def test_steer_within_reach_returns_target():
    assert steer((0, 0), (0.3, 0), 0.5) == pytest.approx((0.3, 0.0))


def test_steer_degenerate():
    assert steer((0.2, 0.7), (0.2, 0.7), 0.5) == pytest.approx((0.2, 0.7))


def test_steer_bad_eta():
    with pytest.raises(UsageError):
        steer((0, 0), (1, 0), 0.0)


@pytest.mark.parametrize("from_, toward", [((0, math.nan), (1, 0)), ((0, 0), (math.nan, 0)),
                                           ((0, 0), (1, 0, 0)), ((0, 0, 0), (1, 0))],
                         ids=["nan-from", "nan-toward", "toward-3d", "from-3d"])
def test_steer_rejects_a_nan_coordinate_and_a_wrong_dimension(from_, toward):
    with pytest.raises(UsageError):
        steer(from_, toward, 0.5)


@pytest.mark.parametrize("toward, eta", [((0.3, 0.45), 0.5), ((0.9, -0.7), 0.1),
                                         ((1e-9, 3.0), 0.7), ((0.1, 0.2), 0.25)])
def test_steer_gives_the_array_formula_bit_for_bit(toward, eta):
    a, b = np.array([0.1, 0.2]), np.array(toward)
    dx, dy = b[0] - a[0], b[1] - a[1]
    dist = math.sqrt(dx * dx + dy * dy)
    want = b if dist <= eta else a + (eta / dist) * (b - a)
    assert steer(a, b, eta).tobytes() == want.tobytes()


# --- nan, inf and fractional values -----------------------------------------

BOX = load_fixture_scenario("box_square.json")
EMPTY = load_fixture_scenario("empty_square.json")
KINO = load_fixture_scenario("kino_square.json")
SWAP = load_fixture_scenario("two_robot_swap.json")
A, B = np.array([[0.1, 0.1]]), np.array([[0.9, 0.9]])
PAIR = [CompositeConfig(per_robot=(p, q), robot_radii=(0.05, 0.05))
        for p, q in (((0.1, 0.5), (0.9, 0.5)), ((0.2, 0.5), (0.8, 0.5)))]
INDEX = NeighborIndex(2)
INDEX.insert(0, (0.5, 0.5))


def _kino(planner, **kw):
    return lambda: planner(KINO, single_integrator_2d(), UniformStream(2, 1), 100, **kw)


BAD_VALUES = {
    "segments_valid-nan": lambda: segments_valid(BOX, A, B, math.nan),
    "segments_valid-inf": lambda: segments_valid(BOX, A, B, math.inf),
    "edge_valid-nan": lambda: edge_valid(BOX, A[0], B[0], math.nan),
    "edge_valid-inf": lambda: edge_valid(BOX, A[0], B[0], math.inf),
    "path_clearance-nan": lambda: path_clearance(BOX, make_path([A[0], B[0]]), math.nan),
    "path_clearance-inf": lambda: path_clearance(BOX, make_path([A[0], B[0]]), math.inf),
    "checker-nan": lambda: CollisionChecker(BOX, math.nan),
    "checker-inf": lambda: CollisionChecker(BOX, math.inf),
    "checker-margin-nan": lambda: CollisionChecker(BOX, None, math.nan),
    "checker-margin-negative": lambda: CollisionChecker(BOX, None, -0.5),
    "checker-margin-inf": lambda: CollisionChecker(BOX, None, math.inf),
    "prm_star-margin-nan": lambda: prm_star(BOX, UniformStream(2, 1), 300, margin=math.nan),
    "sample_free-max_attempts-fraction": lambda: sample_free(UniformStream(2, 1), BOX, 2.5),
    "sample_free-max_attempts-nan": lambda: sample_free(UniformStream(2, 1), BOX, math.nan),
    "sample_free-max_attempts-inf": lambda: sample_free(UniformStream(2, 1), BOX, math.inf),
    "prm_star-max_attempts-nan": lambda: prm_star(BOX, UniformStream(2, 1), 300,
                                                  max_attempts=math.nan),
    "composite-nan": lambda: composite_edge_valid(SWAP, *PAIR, math.nan),
    "composite-inf": lambda: composite_edge_valid(SWAP, *PAIR, math.inf),
    "run_planner-resolution-inf": lambda: run_planner(
        BOX, "prm-star", UniformStream(2, 1), 300, {"resolution": math.inf}),
    "steer-eta": lambda: steer((0, 0), (1, 0), math.nan),
    "rrt-eta": lambda: rrt(EMPTY, UniformStream(2, 1), 100, math.nan),
    "rrt_star-eta_max": lambda: rrt_star(EMPTY, UniformStream(2, 1), 100, 0.1,
                                         eta_max=math.nan),
    "sst-delta_bn": _kino(sst_plan, delta_bn=math.nan),
    "sst-delta_s": _kino(sst_plan, delta_s=math.nan),
    "sst-shrink-period": _kino(sst_plan, shrink=(0.5, 2.5)),
    "ao_rrt-cost_weight": _kino(ao_rrt_plan, cost_weight=math.nan),
    "ao_rrt-cost_weight-inf": _kino(ao_rrt_plan, cost_weight=math.inf),
    "rule-mu": lambda: rule("prm_star", mu=math.nan),
    "rule-safety": lambda: rule("prm_star", safety_factor=math.nan),
    "rule-gamma_det": lambda: rule("prm_star", gamma_det=math.nan),
    "rule-c_star": lambda: rule("rrt_star_revised", c_star_estimate=math.nan),
    "rule-fixed_radius": lambda: rule("fixed", fixed_radius=math.nan),
    "refine_path": lambda: refine_path(make_path([A[0], B[0]]), math.nan),
    "dispersion-grid": lambda: measure_dispersion(A, BOX.domain, math.nan),
    "within_radius": lambda: INDEX.within_radius((0.5, 0.5), math.nan),
    "radius_pairs": lambda: radius_pairs(A, math.nan),
    "system-step": lambda: single_integrator_2d(step=math.nan),
    "car-heading_weight-nan": lambda: kinematic_car(heading_weight=math.nan),
    "car-heading_weight-negative": lambda: kinematic_car(heading_weight=-1.0),
    # the straight path crosses box_square's obstacle
    "tiling-nan": lambda: tiling_cover_check(BOX, make_path([(0.1, 0.5), (0.9, 0.5)]), math.nan),
    "oracle-eps_vg-nan": lambda: optimal_cost_2d_boxes(BOX, eps_vg=math.nan),
    "oracle-eps_vg-negative": lambda: optimal_cost_2d_boxes(BOX, eps_vg=-0.01),
    "oracle-eps_vg-inf": lambda: optimal_cost_2d_boxes(BOX, eps_vg=math.inf),
    "time_budget-nan": lambda: RunSpec(
        "scenarios/empty_square.json", "rrt-star", {}, 1, 0, (100,), time_budget=math.nan),
    "time_budget-negative": lambda: RunSpec(
        "scenarios/empty_square.json", "rrt-star", {}, 1, 0, (100,), time_budget=-1.0),
}


@pytest.mark.parametrize("call", BAD_VALUES.values(), ids=BAD_VALUES.keys())
def test_nan_inf_and_fractional_values_are_usage_errors(call):
    with pytest.raises(UsageError):
        call()
