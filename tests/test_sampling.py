import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aoplan import (
    Box,
    CollisionChecker,
    HaltonStream,
    SaturationError,
    UniformStream,
    UsageError,
    make_stream,
    measure_dispersion,
    radical_inverse,
    sample_free,
    samples_free,
    scenario_from_dict,
)

from conftest import DATA_DIR

UNIT2 = Box(lo=np.zeros(2), hi=np.ones(2))


def test_halton_first_points_unit_square():
    stream = HaltonStream(2)
    want = [(1 / 2, 1 / 3), (1 / 4, 2 / 3), (3 / 4, 1 / 9)]
    for w in want:
        got = stream.next_point(UNIT2)
        assert got == pytest.approx(w, abs=1e-15)


def test_halton_1d_scaled_domain():
    stream = HaltonStream(1)
    box = Box(lo=np.array([0.0]), hi=np.array([2.0]))
    assert stream.next_point(box)[0] == pytest.approx(1.0, abs=1e-15)


def test_radical_inverse_base3():
    assert radical_inverse(3, 1) == pytest.approx(1 / 3)
    assert radical_inverse(3, 2) == pytest.approx(2 / 3)
    assert radical_inverse(3, 3) == pytest.approx(1 / 9)


def test_uniform_stream_deterministic():
    a = UniformStream(2, 1234)
    b = UniformStream(2, 1234)
    pa = np.array([a.next_point(UNIT2) for _ in range(100)])
    pb = np.array([b.next_point(UNIT2) for _ in range(100)])
    assert np.array_equal(pa, pb)


def test_uniform_streams_differ_across_seeds():
    a = UniformStream(2, 1)
    b = UniformStream(2, 2)
    assert not np.array_equal(a.next_point(UNIT2), b.next_point(UNIT2))


def test_halton_reproducible():
    a = [HaltonStream(2).next_point(UNIT2) for _ in range(1)]
    b = [HaltonStream(2).next_point(UNIT2) for _ in range(1)]
    assert np.array_equal(a[0], b[0])


def test_uniform_marginals_near_midpoint():
    # mean of 1e5 uniforms has std 1/sqrt(12 n); stay within 3 standard errors
    stream = UniformStream(2, 99)
    pts = np.array([stream.next_point(UNIT2) for _ in range(100_000)])
    se = 1.0 / math.sqrt(12.0 * pts.shape[0])
    assert np.all(np.abs(pts.mean(axis=0) - 0.5) < 3 * se)


def test_stream_dimension_mismatch():
    stream = UniformStream(3, 0)
    with pytest.raises(UsageError):
        stream.next_point(UNIT2)


def test_make_stream_unknown():
    with pytest.raises(UsageError):
        make_stream(2, "sobol")


# --- sample_free ----------------------------------------------------------


def _scenario(obstacles):
    return scenario_from_dict({
        "dimension": 2, "domain": {"min": [0, 0], "max": [1, 1]},
        "obstacles": obstacles, "start": [0.1, 0.1],
        "goal": {"center": [0.9, 0.9], "radius": 0.02},
    })


def test_sample_free_empty_scenario_returns_first_raw_sample():
    sc = _scenario([])
    raw = UniformStream(2, 5).next_point(UNIT2)
    got = sample_free(UniformStream(2, 5), sc, 10)
    assert np.array_equal(raw, got)


def test_sample_free_saturates_when_fully_blocked():
    # obstacle swallowing the domain; built directly since such a document
    # would fail start validation
    from aoplan import BoxObstacle, GoalRegion, Scenario

    sc = Scenario(
        dimension=2,
        domain=UNIT2,
        obstacles=(BoxObstacle(lo=np.array([-1.0, -1.0]), hi=np.array([2.0, 2.0])),),
        start=np.array([0.1, 0.1]),
        goal=GoalRegion(center=np.array([0.9, 0.9]), radius=0.02),
    )
    with pytest.raises(SaturationError):
        sample_free(UniformStream(2, 0), sc, 50)


def test_sample_free_postcondition_with_obstacle():
    sc = _scenario([{"type": "box", "min": [0.4, 0.4], "max": [0.6, 0.6]}])
    q = sample_free(UniformStream(2, 11), sc, 1000)
    assert CollisionChecker(sc).point_valid(q)


def test_sample_free_exhausts_attempts():
    sc = _scenario([{"type": "box", "min": [0.4, 0.4], "max": [0.6, 0.6]}])
    # huge margin rejects everything; exercise the saturation branch
    with pytest.raises(SaturationError):
        sample_free(UniformStream(2, 0), sc, 25, margin=5.0)


def test_sample_free_needs_attempts():
    sc = _scenario([])
    with pytest.raises(UsageError):
        sample_free(UniformStream(2, 0), sc, 0)


# --- block draws ----------------------------------------------------------

WIDE = Box(lo=np.array([-1.0, 2.0]), hi=np.array([3.0, 2.5]))


def twin_streams(kind, seed):
    """Two streams that emit the same sequence."""
    if kind == "uniform":
        return UniformStream(2, seed), UniformStream(2, seed)
    return HaltonStream(2, seed + 1), HaltonStream(2, seed + 1)


def assert_same_state(s1, s2, domain):
    assert s1.next_point(domain).tolist() == s2.next_point(domain).tolist()
    assert s1.next_uniform01() == s2.next_uniform01()


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["uniform", "halton"]), seed=st.integers(0, 2**32 - 1),
       sizes=st.lists(st.integers(-2, 1500), min_size=1, max_size=4), scalar=st.booleans())
@example(kind="halton", seed=0, sizes=[5, -2], scalar=False)
# doubles 3 to 2203 of the uniform stream: the 1100 points cross two block edges
@example(kind="uniform", seed=5, sizes=[1, 1100], scalar=True)
def test_next_points_equal_next_point_calls(kind, seed, sizes, scalar):
    """Across block edges, k points are k next_point calls (none for k < 1), bit for bit.

    With `scalar`, a next_uniform01 call follows each block and gives the
    scalar path's next draw.
    """
    s1, s2 = twin_streams(kind, seed)
    for k in sizes:
        got = s1.next_points(WIDE, k)
        want = [s2.next_point(WIDE).tolist() for _ in range(k)]
        assert got.dtype == np.float64 and got.shape == (max(k, 0), 2)
        assert got.tolist() == want
        if scalar:
            assert s1.next_uniform01() == s2.next_uniform01()
    assert_same_state(s1, s2, WIDE)


def _sequential(stream, sc, n, max_attempts, margin=0.0):
    return np.array([sample_free(stream, sc, max_attempts, margin) for _ in range(n)])


@pytest.mark.parametrize("kind", ["uniform", "halton"])
@pytest.mark.parametrize("n, margin", [(1, 0.0), (300, 0.0), (3000, 0.05)])
def test_samples_free_equals_sample_free_calls(kind, n, margin):
    sc = _scenario([{"type": "box", "min": [0.4, 0.4], "max": [0.6, 0.6]},
                    {"type": "ball", "center": [0.2, 0.8], "radius": 0.15}])
    s1, s2 = twin_streams(kind, 7)
    got = samples_free(s1, sc, n, 50, margin)
    assert got.tobytes() == _sequential(s2, sc, n, 50, margin).tobytes()
    assert_same_state(s1, s2, sc.domain)


@pytest.mark.parametrize("kind", ["uniform", "halton"])
def test_samples_free_saturates_where_sample_free_does(kind):
    """A scene whose free space is the strip x > 0.8: both raise, or both return the same."""
    from aoplan import BoxObstacle, Scenario

    sc = Scenario(dimension=2, domain=UNIT2, start=None, goal=None,
                  obstacles=(BoxObstacle(lo=np.array([-1.0, -1.0]), hi=np.array([0.8, 2.0])),))
    outcomes = set()
    for max_attempts in range(1, 6):
        for seed in range(30):
            s1, s2 = twin_streams(kind, seed)
            try:
                want = _sequential(s2, sc, 3, max_attempts)
            except SaturationError:
                with pytest.raises(SaturationError):
                    samples_free(s1, sc, 3, max_attempts)
                outcomes.add("saturated")
                continue
            assert samples_free(s1, sc, 3, max_attempts).tobytes() == want.tobytes()
            assert_same_state(s1, s2, sc.domain)
            outcomes.add("sampled")
    assert outcomes == {"saturated", "sampled"}


@pytest.mark.parametrize("kind", ["uniform", "halton"])
def test_samples_free_on_a_shared_stream(kind):
    """Two calls on one stream, as per-robot roadmaps make them, equal the sequential draws."""
    sc = _scenario([{"type": "box", "min": [0.4, 0.4], "max": [0.6, 0.6]}])
    s1, s2 = twin_streams(kind, 3)
    got = [samples_free(s1, sc, 400, 100, 0.08), samples_free(s1, sc, 250, 100, 0.03)]
    want = [_sequential(s2, sc, 400, 100, 0.08), _sequential(s2, sc, 250, 100, 0.03)]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert_same_state(s1, s2, sc.domain)


@pytest.mark.parametrize("max_attempts, margin", [(2.5, 0.0), (math.nan, 0.0), (0, 0.0),
                                                  (10, math.nan), (10, -0.5), (10, math.inf)])
def test_samples_free_checks_its_arguments(max_attempts, margin):
    with pytest.raises(UsageError):
        samples_free(UniformStream(2, 0), _scenario([]), 5, max_attempts, margin)


# --- dispersion -----------------------------------------------------------


def test_dispersion_single_sample():
    report = measure_dispersion([(0.5, 1 / 3)], UNIT2, 0.01)
    assert report.n == 1
    assert report.dispersion == pytest.approx(5 / 6, abs=0.01)


def test_dispersion_corners():
    samples = [(0, 0), (0, 1), (1, 0), (1, 1)]
    report = measure_dispersion(samples, UNIT2, 0.01)
    assert report.dispersion == pytest.approx(math.sqrt(2) / 2, abs=0.01)


def test_dispersion_halton_decreases():
    stream = HaltonStream(2)
    pts = [stream.next_point(UNIT2) for _ in range(256)]
    d64 = measure_dispersion(pts[:64], UNIT2, 0.01).dispersion
    d256 = measure_dispersion(pts, UNIT2, 0.01).dispersion
    assert d256 < d64


def test_dispersion_bounded_by_domain_diagonal():
    report = measure_dispersion([(0.0, 0.0)], UNIT2, 0.01)
    assert report.dispersion <= math.sqrt(2) + 0.02


def test_dispersion_usage_errors():
    with pytest.raises(UsageError):
        measure_dispersion([], UNIT2, 0.01)
    with pytest.raises(UsageError):
        measure_dispersion([(0.5, 0.5)], UNIT2, 0.0)


def test_dispersion_fixture_is_current():
    # frozen thresholds must match a fresh grid-oracle measurement
    doc = json.loads((DATA_DIR / "halton_dispersion_2d.json").read_text())
    entry = doc["entries"][0]
    stream = HaltonStream(2)
    pts = [stream.next_point(UNIT2) for _ in range(entry["n"])]
    rep = measure_dispersion(pts, UNIT2, entry["grid_resolution"])
    assert rep.dispersion == pytest.approx(entry["dispersion"], abs=1e-12)


def test_dispersion_report_csv_line():
    report = measure_dispersion([(0.5, 0.5)], UNIT2, 0.25)
    parts = report.csv_line().split(",")
    assert int(parts[0]) == 1
    assert float(parts[1]) == report.dispersion
    assert float(parts[2]) == 0.25


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), d=st.integers(1, 4),
       pattern=st.lists(st.booleans(), min_size=1, max_size=30),
       lo=st.floats(-1e3, 1e3), width=st.floats(1e-3, 1e3))
def test_uniform_stream_blocks_equal_scalar_draws(seed, d, pattern, lo, width):
    """Points and scalars interleaved across three block edges equal one-at-a-time draws."""
    box = Box(lo=np.full(d, lo) + np.arange(d), hi=np.full(d, lo + width) + 2 * np.arange(d))
    stream = UniformStream(d, seed)
    rng = np.random.default_rng(seed)
    drawn = 0
    while drawn <= 3 * UniformStream._BLOCK:
        for point in pattern:
            if point:
                want = [lo_j + rng.random() * (hi_j - lo_j)
                        for lo_j, hi_j in zip(box.lo.tolist(), box.hi.tolist())]
                got = stream.next_point(box)
                assert got.dtype == np.float64 and got.shape == (d,)
                assert got.tolist() == want
                drawn += d
            else:
                assert stream.next_uniform01() == rng.random()
                drawn += 1
