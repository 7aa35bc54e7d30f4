import json
import re

import pytest

from aoplan import RadiusRule, connection_radius, load_scenario_file, make_stream, run_planner
from aoplan.bench import CSV_FIELDS
from aoplan.cli import main

from conftest import SCENARIO_DIR

EMPTY = str(SCENARIO_DIR / "empty_square.json")
BOX = str(SCENARIO_DIR / "box_square.json")
KINO = str(SCENARIO_DIR / "kino_square.json")
SWAP = str(SCENARIO_DIR / "two_robot_swap.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_radius_prints_12_significant_digits(capsys):
    code, out, _ = run_cli(capsys, "radius", "--rule", "prm_star", "--d", "2",
                           "--mu", "1", "--n", "1000", "--safety", "1")
    assert code == 0
    want = connection_radius(
        RadiusRule(rule="prm_star", d=2, mu=1.0, safety_factor=1.0), 1000)
    assert out.strip() == f"{want:.12g}"
    # options left unset take RadiusRule's defaults
    code, out, _ = run_cli(capsys, "radius", "--rule", "rrt_star_revised", "--d", "2",
                           "--mu", "1", "--n", "500", "--c-star", "1.5")
    assert code == 0
    want = connection_radius(
        RadiusRule(rule="rrt_star_revised", d=2, mu=1.0, c_star_estimate=1.5), 500)
    assert out.strip() == f"{want:.12g}"


def test_radius_k_rule_prints_integer(capsys):
    code, out, _ = run_cli(capsys, "radius", "--rule", "k_prm_star", "--d", "2",
                           "--mu", "1", "--n", "1000")
    assert code == 0
    assert out.strip() == "29"


def test_radius_rrt_rule_without_c_star_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "radius", "--rule", "rrt_star_revised",
                           "--d", "2", "--mu", "1", "--n", "1000")
    assert code == 2
    assert "c_star" in err


def test_dispersion_prints_csv_line(capsys):
    code, out, _ = run_cli(capsys, "dispersion", "--sampler", "halton",
                           "--d", "2", "--n", "16", "--grid", "0.02")
    assert code == 0
    n, disp, grid = out.strip().split(",")
    assert n == "16"
    assert 0.0 < float(disp) < 1.5
    assert float(grid) == 0.02


def test_oracle_prints_9_significant_digits(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--scenario", BOX)
    assert code == 0
    assert abs(float(out.strip()) - 0.832455532) < 1e-6
    assert len(out.strip().replace(".", "").lstrip("0")) <= 9


def test_oracle_missing_file_is_io_error(capsys):
    code, _, err = run_cli(capsys, "oracle", "--scenario", "/nonexistent.json")
    assert code == 3


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_unknown_planner_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "plan", "--scenario", EMPTY, "--planner",
                           "bogus", "--n", "100", "--seed", "1")
    assert code == 2


def test_plan_writes_solution_document(capsys, tmp_path):
    out_path = tmp_path / "path.json"
    code, _, _ = run_cli(capsys, "plan", "--scenario", EMPTY, "--planner",
                         "prm-star", "--n", "300", "--seed", "7",
                         "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert 1.0 < doc["cost"] < 1.3
    assert doc["waypoints"][0] == [0.1, 0.1]
    assert set(doc["counters"]) >= {"samples", "collision_checks", "nn_queries"}


def test_plan_no_path_exits_1(capsys, tmp_path):
    scenario = {
        "dimension": 2, "domain": {"min": [0, 0], "max": [1, 1]},
        "obstacles": [
            {"type": "box", "min": [0.0, 0.35], "max": [1.0, 1.0]},
            {"type": "box", "min": [0.35, 0.0], "max": [1.0, 0.35]},
        ],
        "start": [0.15, 0.15], "goal": {"center": [0.9, 0.9], "radius": 0.02},
    }
    path = tmp_path / "pocket.json"
    path.write_text(json.dumps(scenario))
    code, _, err = run_cli(capsys, "plan", "--scenario", str(path), "--planner",
                           "prm-star", "--n", "150", "--seed", "3")
    assert code == 1
    assert "no path" in err


def test_plan_kinodynamic_document_has_controls(capsys, tmp_path):
    out_path = tmp_path / "traj.json"
    code, _, _ = run_cli(capsys, "plan", "--scenario", KINO, "--planner", "sst",
                         "--n", "6000", "--seed", "2", "--param", "system=integrator2d",
                         "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert len(doc["controls"]) == len(doc["waypoints"]) - 1
    assert len(doc["durations"]) == len(doc["controls"])
    assert doc["cost"] == pytest.approx(sum(doc["durations"]), abs=1e-9)


def test_plan_multirobot_document(capsys, tmp_path):
    out_path = tmp_path / "multi.json"
    code, _, _ = run_cli(capsys, "plan", "--scenario", SWAP, "--planner",
                         "drrt-star", "--n", "4000", "--seed", "42",
                         "--param", "n_roadmap=200", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    tracks = doc["per_robot_waypoints"]
    assert len(tracks) == 2
    assert len(tracks[0]) == len(tracks[1])


def test_plan_multirobot_honours_goal_bias(capsys):
    argv = ("plan", "--scenario", SWAP, "--planner", "drrt-star", "--n", "1500",
            "--param", "n_roadmap=150", "--seed", "3")
    code, out, _ = run_cli(capsys, *argv, "--param", "goal_bias=1.0")
    assert code == 0
    assert repr(json.loads(out)["cost"]) == "1.6741808632805153"
    code, _, err = run_cli(capsys, *argv, "--param", "goal_bias=0.0")
    assert code == 1
    assert "no path" in err


def test_benchmark_and_report_end_to_end(capsys, tmp_path):
    results = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys, "benchmark", "--scenario", EMPTY, "--planner", "rrt-star",
        "--trials", "2", "--seed", "5", "--checkpoints", "100,200",
        "--param", "eta=0.15", "--out", str(results))
    assert code == 0
    assert "4 rows" in out
    text = results.read_text()
    assert text.splitlines()[0].startswith("scenario,planner,seed")

    svg = tmp_path / "report.svg"
    summary = tmp_path / "summary.csv"
    code, out, _ = run_cli(capsys, "report", "--in", str(results),
                           "--optimal", "1.1313708", "--out", str(svg),
                           "--summary", str(summary))
    assert code == 0
    assert svg.read_text().startswith("<svg")
    assert "checkpoint_n" in summary.read_text()
    assert "rel_err" in out


GOOD_ROW = "empty_square,rrt-star,5,100,1.25,true,40,12,11,9"


@pytest.mark.parametrize("bad_row", [
    "empty_square,rrt-star,5,100",
    GOOD_ROW + ",7",
    GOOD_ROW.replace(",5,", ",x,"),
    GOOD_ROW.replace("1.25", "cheap"),
    GOOD_ROW.replace("true", "yes"),
], ids=["few-fields", "many-fields", "bad-seed", "bad-cost", "bad-success"])
def test_report_malformed_row_is_usage_error(capsys, tmp_path, bad_row):
    rows = tmp_path / "rows.csv"
    rows.write_text("\n".join([",".join(CSV_FIELDS), GOOD_ROW, bad_row]) + "\n")
    code, _, err = run_cli(capsys, "report", "--in", str(rows),
                           "--out", str(tmp_path / "report.svg"))
    assert code == 2
    assert "line 3" in err
    assert "Traceback" not in err


def test_benchmark_bad_param_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "benchmark", "--scenario", EMPTY, "--planner", "rrt-star",
        "--trials", "1", "--seed", "5", "--checkpoints", "100",
        "--param", "eta", "--out", str(tmp_path / "x.csv"))
    assert code == 2


def test_benchmark_param_the_planner_does_not_read_is_usage_error(capsys, tmp_path):
    out = tmp_path / "x.csv"
    code, _, err = run_cli(
        capsys, "benchmark", "--scenario", EMPTY, "--planner", "prm-star",
        "--trials", "1", "--seed", "5", "--checkpoints", "100",
        "--param", "n_roadmp=100", "--out", str(out))
    assert code == 2
    assert "n_roadmp" in err
    assert not out.exists()


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["radius", "--rule", "prm_star"]) == 2


@pytest.mark.parametrize("planner,param", [
    ("ao-rrt", "cost_weight=abc"),
    ("rrt-star", "eta_max=abc"),
    ("rrt-star", "audit_every=abc"),
    ("sst", "shrink=0.5"),
    ("rrt-star", "audit_every=1.5"),
    ("prm-star", "n=100.5"),
])
def test_benchmark_param_of_the_wrong_type_is_usage_error(capsys, tmp_path, planner, param):
    out = tmp_path / "x.csv"
    code, _, err = run_cli(
        capsys, "benchmark", "--scenario", EMPTY, "--planner", planner,
        "--trials", "1", "--seed", "5", "--checkpoints", "100",
        "--param", param, "--out", str(out))
    assert code == 2
    assert f"parameter {param.split('=')[0]}:" in err
    assert not out.exists()


def test_plan_shrink_without_period_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "plan", "--scenario", KINO, "--planner", "sst",
                           "--n", "100", "--param", "shrink=0.5")
    assert code == 2
    assert "shrink" in err


@pytest.mark.parametrize("planner,scenario,n,params", [
    ("prm-star", EMPTY, 300, {"radius_rule": "fmt_star_constant", "safety_factor": 1.5}),
    ("k-prm-star", EMPTY, 300, {"resolution": 0.01}),
    ("rrt", EMPTY, 400, {"eta": 0.2, "goal_bias": 0.1}),
    ("rrt-star", BOX, 600, {"eta_max": 0.3, "audit_every": 100}),
    ("sst", KINO, 3000, {"delta_bn": 0.1, "shrink": "0.9:500"}),
    ("ao-rrt", KINO, 3000, {"cost_weight": 0.5}),
    ("ao-meta", KINO, 3000, {}),
    ("ao-meta", KINO, 3000, {"rounds": 2, "beta": 0.2}),
    ("drrt-star", SWAP, 1500, {"n_roadmap": 150, "goal_bias": 1.0}),
], ids=["prm-star", "k-prm-star", "rrt", "rrt-star", "sst", "ao-rrt", "ao-meta",
        "ao-meta-rounds", "drrt-star"])
def test_plan_is_run_planner_with_the_same_n_and_params(capsys, planner, scenario, n, params):
    argv = ["plan", "--scenario", scenario, "--planner", planner, "--n", str(n), "--seed", "4"]
    for key, value in params.items():
        argv += ["--param", f"{key}={value}"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    sc = load_scenario_file(scenario)
    want = run_planner(sc, planner, make_stream(sc.dimension, "uniform", 4), n, params)
    assert repr(doc["cost"]) == repr(want.best_cost)
    assert doc["counters"] == want.counters


def test_plan_takes_no_planner_parameter_flag(capsys):
    code, out, _ = run_cli(capsys, "plan", "--help")
    assert code == 0
    flags = set(re.findall(r"--[a-z][a-z-]*", out))
    assert flags == {"--help", "--scenario", "--planner", "--n", "--seed", "--sampler",
                     "--param", "--out"}
    code, _, err = run_cli(capsys, "plan", "--scenario", EMPTY, "--planner", "prm-star",
                           "--n", "300", "--param", "n=100")
    assert code == 2
    assert "--n" in err


@pytest.mark.parametrize("argv", [
    ("benchmark", "--scenario", BOX, "--planner", "prm-star", "--trials", "1",
     "--checkpoints", "300", "--param", "resolution=nan"),
    ("benchmark", "--scenario", BOX, "--planner", "prm-star", "--trials", "1",
     "--checkpoints", "300", "--param", "resolution=inf"),
    ("radius", "--rule", "fixed", "--d", "2", "--mu", "1", "--n", "100",
     "--fixed-radius", "nan"),
], ids=["resolution-nan", "resolution-inf", "fixed-radius-nan"])
def test_nan_and_inf_values_exit_2(capsys, tmp_path, argv):
    out = tmp_path / "x.csv"
    if argv[0] == "benchmark":
        argv += ("--out", str(out))
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err
    assert not out.exists()


def test_dispersion_dimension_below_one_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "dispersion", "--sampler", "uniform", "--d", "0",
                           "--n", "16")
    assert code == 2
    assert "dimension" in err
