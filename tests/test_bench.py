import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aoplan
from aoplan import (
    ResultRow,
    RunSpec,
    UniformStream,
    UsageError,
    convergence_report,
    derive_seed,
    rows_from_csv,
    rows_to_csv,
    run_benchmark,
    run_planner,
    summary_to_csv,
)

from conftest import SCENARIO_DIR, load_fixture_scenario, load_output_digest

EMPTY = str(SCENARIO_DIR / "empty_square.json")
KINO = str(SCENARIO_DIR / "kino_square.json")


def small_spec(**overrides):
    kw = dict(scenario_path=EMPTY, planner="rrt-star", params={"eta": 0.15},
              trials=3, base_seed=11, checkpoints=(150, 300))
    kw.update(overrides)
    return RunSpec(**kw)


def test_one_trial_one_checkpoint_yields_one_row():
    spec = small_spec(trials=1, checkpoints=(100,))
    rows = run_benchmark(spec)
    assert len(rows) == 1
    assert rows[0].checkpoint_n == 100
    assert rows[0].planner == "rrt-star"


def test_row_count_is_trials_times_checkpoints():
    spec = small_spec(trials=5, checkpoints=(50, 100, 150, 200))
    rows = run_benchmark(spec)
    assert len(rows) == 20
    seeds = {r.seed for r in rows}
    assert len(seeds) == 5


def test_import_leaves_multiprocessing_unloaded():
    # run_benchmark imports it when it starts a pool
    env = dict(os.environ, PYTHONPATH=str(Path(aoplan.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", "import sys, aoplan; "
                          "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_same_spec_twice_is_byte_identical():
    spec = small_spec()
    a = rows_to_csv(run_benchmark(spec))
    b = rows_to_csv(run_benchmark(spec))
    assert a == b


def test_worker_pools_do_not_change_output():
    spec = small_spec(trials=4)
    serial = rows_to_csv(run_benchmark(spec, workers=1))
    pooled = rows_to_csv(run_benchmark(spec, workers=2))
    assert serial == pooled


def test_csv_round_trip():
    spec = small_spec()
    rows = run_benchmark(spec)
    assert rows_from_csv(rows_to_csv(rows)) == rows


def test_csv_round_trip_with_failure_rows():
    rows = [
        ResultRow(scenario="s", planner="rrt", seed=1, checkpoint_n=10,
                  best_cost=None, success=False, time_ms=5, nodes=3, edges=2,
                  collision_checks=7),
        ResultRow(scenario="s", planner="rrt", seed=1, checkpoint_n=20,
                  best_cost=1.25, success=True, time_ms=9, nodes=5, edges=4,
                  collision_checks=11),
    ]
    assert rows_from_csv(rows_to_csv(rows)) == rows


def test_best_cost_empty_iff_failure():
    rows = run_benchmark(small_spec())
    text = rows_to_csv(rows).splitlines()[1:]
    for line, row in zip(text, rows):
        cell = line.split(",")[4]
        assert (cell == "") == (not row.success)


def test_unknown_planner_rejected():
    with pytest.raises(UsageError):
        run_benchmark(small_spec(planner="bogus"))


def test_bad_checkpoints_rejected():
    with pytest.raises(UsageError):
        small_spec(checkpoints=(300, 150))
    with pytest.raises(UsageError):
        small_spec(checkpoints=())
    with pytest.raises(UsageError):
        small_spec(trials=0)


@pytest.mark.parametrize("checkpoints", [(100, 100, 200), (100.7, 200)],
                         ids=["repeated", "fractional"])
def test_repeated_and_fractional_checkpoints_are_usage_errors(checkpoints):
    with pytest.raises(UsageError):
        small_spec(checkpoints=checkpoints)
    for planner, scene in [("prm-star", "empty_square.json"), ("rrt-star", "empty_square.json"),
                           ("sst", "kino_square.json"), ("ao-meta", "kino_square.json"),
                           ("drrt-star", "two_robot_swap.json")]:
        with pytest.raises(UsageError):
            run_planner(load_fixture_scenario(scene), planner, UntouchedStream(), 300, {},
                        checkpoints=checkpoints)


def test_time_budget_zero_marks_failures():
    rows = run_benchmark(small_spec(trials=1, time_budget=0.0))
    assert all(not r.success for r in rows)
    assert all(r.best_cost is None for r in rows)


def test_derive_seed_is_stable_and_spreads():
    assert derive_seed(0, 0) == derive_seed(0, 0)
    seeds = {derive_seed(42, t) for t in range(100)}
    assert len(seeds) == 100
    assert derive_seed(41, 0) != derive_seed(42, 0)


def test_kinodynamic_planner_rows():
    spec = RunSpec(scenario_path=KINO, planner="sst", params={},
                   trials=2, base_seed=5, checkpoints=(500, 1500))
    rows = run_benchmark(spec)
    assert len(rows) == 4
    assert all(r.nodes >= 1 for r in rows)


def test_ao_meta_rows_map_to_requested_checkpoints():
    spec = RunSpec(scenario_path=KINO, planner="ao-meta",
                   params={"rounds": 2, "budget": 1000, "beta": 0.1},
                   trials=1, base_seed=3, checkpoints=(1000, 2000))
    rows = run_benchmark(spec)
    assert [r.checkpoint_n for r in rows] == [1000, 2000]


# --- report -------------------------------------------------------------------


def fixture_rows():
    rows = []
    for seed, costs in enumerate([(2.0, 1.5), (2.2, 1.4), (1.8, 1.3),
                                  (2.4, 1.6), (2.1, None)]):
        for n, c in zip((100, 400), costs):
            rows.append(ResultRow(
                scenario="s", planner="p", seed=seed, checkpoint_n=n,
                best_cost=c, success=c is not None, time_ms=1, nodes=1,
                edges=0, collision_checks=1,
            ))
    return rows


def test_report_quantiles_match_reference():
    report, _ = convergence_report(fixture_rows())
    first = report[0]
    costs = [2.0, 2.2, 1.8, 2.4, 2.1]
    assert first.checkpoint_n == 100
    assert first.success_rate == 1.0
    assert first.median_cost == pytest.approx(np.percentile(costs, 50))
    assert first.q25_cost == pytest.approx(np.percentile(costs, 25))
    assert first.q75_cost == pytest.approx(np.percentile(costs, 75))
    # hand value: sorted 1.8 2.0 2.1 2.2 2.4, median 2.1
    assert first.median_cost == pytest.approx(2.1)
    second = report[1]
    assert second.success_rate == pytest.approx(0.8)
    assert second.median_cost == pytest.approx(np.median([1.5, 1.4, 1.3, 1.6]))


def test_report_relative_error_zero_at_optimum():
    rows = [
        ResultRow(scenario="s", planner="p", seed=i, checkpoint_n=100,
                  best_cost=1.5, success=True, time_ms=1, nodes=1, edges=0,
                  collision_checks=1)
        for i in range(4)
    ]
    report, _ = convergence_report(rows, optimal_cost=1.5)
    assert report[0].rel_err == pytest.approx(0.0, abs=1e-15)


def test_report_chart_embeds_monotone_medians():
    rows = []
    for n, cost in [(100, 3.0), (200, 2.5), (400, 2.0), (800, 1.5)]:
        rows.append(ResultRow(
            scenario="s", planner="p", seed=0, checkpoint_n=n, best_cost=cost,
            success=True, time_ms=1, nodes=1, edges=0, collision_checks=1))
    report, svg = convergence_report(rows, optimal_cost=1.2)
    assert svg.startswith("<svg")
    assert 'data-optimal-cost="1.2"' in svg
    medians = [
        float(v) for v in
        svg.split('data-median="')[1].split('"')[0].split(",")
    ]
    assert medians == sorted(medians, reverse=True)
    ns = svg.split('data-n="')[1].split('"')[0]
    assert ns == "100,200,400,800"


def test_report_empty_rows_rejected():
    with pytest.raises(UsageError):
        convergence_report([])


def test_summary_csv_round_trips_basic_fields():
    report, _ = convergence_report(fixture_rows(), optimal_cost=1.0)
    text = summary_to_csv(report)
    lines = text.strip().splitlines()
    assert lines[0] == "checkpoint_n,trials,success_rate,median_cost,q25_cost,q75_cost,rel_err"
    assert len(lines) == 3


class UntouchedStream:
    """A stream that fails the test if a planner draws from it."""

    def __getattr__(self, name):
        raise AssertionError(f"the planner ran: stream.{name} was used")


def test_run_planner_rejects_parameters_the_planner_does_not_read():
    scenario = load_fixture_scenario("empty_square.json")
    params = {"goal_bias": 0.9, "n_roadmp": 5, "eta_max": 0.01}
    with pytest.raises(UsageError, match="eta_max, n_roadmp"):
        run_planner(scenario, "prm-star", UntouchedStream(), 300, params)
    with pytest.raises(UsageError, match="'sst' does not take: radius_rule"):
        run_planner(scenario, "sst", UntouchedStream(), 300, {"radius_rule": "prm_star"})
    with pytest.raises(UsageError, match="unknown system 'boat'"):
        run_planner(scenario, "ao-rrt", UntouchedStream(), 300, {"system": "boat"})


def test_run_planner_rejects_a_fractional_integer_parameter():
    scenario = load_fixture_scenario("empty_square.json")
    for planner, params in [("rrt-star", {"audit_every": 1.5}), ("drrt-star", {"n_roadmap": 2.7}),
                            ("sst", {"shrink": (0.5, 2.5)}), ("prm-star", {"max_attempts": 1e400})]:
        key = next(iter(params))
        with pytest.raises(UsageError, match=f"parameter {key}"):
            run_planner(scenario, planner, UntouchedStream(), 300, params)
    # a whole number given as a float is that integer
    got = run_planner(scenario, "prm-star", UniformStream(2, 1), 300, {"max_attempts": 500.0})
    want = run_planner(scenario, "prm-star", UniformStream(2, 1), 300, {"max_attempts": 500})
    assert repr(got.best_cost) == repr(want.best_cost)
    assert got.counters == want.counters


def test_run_planner_takes_the_shared_keys_for_every_planner():
    scenario = load_fixture_scenario("empty_square.json")
    shared = {"n": 300, "eta": 0.2, "goal_bias": 0.1, "resolution": 0.01, "max_attempts": 500}
    got = run_planner(scenario, "prm-star", UniformStream(2, 1), 300, shared)
    want = run_planner(scenario, "prm-star", UniformStream(2, 1), 300,
                       {"resolution": 0.01, "max_attempts": 500})
    assert repr(got.best_cost) == repr(want.best_cost)
    assert got.counters == want.counters


@pytest.mark.parametrize("planner,scenario,params", [
    ("sst", "kino_square.json", {"system": "integrator2d"}),
    ("rrt-star", "empty_square.json", {"eta": 0.15}),
    ("drrt-star", "two_robot_swap.json", {"n_roadmap": 60}),
])
def test_output_digest_covers_outputs_not_timings(planner, scenario, params):
    digest = load_output_digest().digest
    sc = load_fixture_scenario(scenario)

    def run(seed):
        return run_planner(sc, planner, UniformStream(2, seed), 300, params,
                           checkpoints=(150, 300))

    a, b = run(5), run(5)
    assert a.path is not None
    key = digest([a])
    assert len(key) == 64 and int(key, 16) >= 0
    assert digest([b]) == key
    assert digest([dataclasses.replace(a, elapsed_ms=a.elapsed_ms + 1.0)]) == key
    assert digest([a, a]) != key
    assert digest([dataclasses.replace(a, checkpoints=a.checkpoints[:1])]) != key
    assert digest([dataclasses.replace(a, best_cost=None, path=None)]) != key
    # one ulp in one stored coordinate moves the digest
    field = {"sst": "states", "drrt-star": "per_robot"}.get(planner, "waypoints")
    rows = list(getattr(a.path, field))
    rows[-1] = np.array(rows[-1])
    rows[-1][-1] = np.nextafter(rows[-1][-1], np.inf)
    moved = dataclasses.replace(a, path=dataclasses.replace(a.path, **{field: tuple(rows)}))
    assert digest([moved]) != key
