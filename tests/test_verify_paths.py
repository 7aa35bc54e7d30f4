"""Every returned path passes the benchmark's outside verifier.

perfbench/verify.py checks a planner result with aoplan's public
predicates only: the path starts at the start and ends in the goal ball,
every segment (kinodynamic: every re-propagated Euler segment, multirobot:
every composite edge) is valid at the scenario's default resolution, and
the length matches the reported cost.  These tests only import the
verifier; they never edit it.
"""

import importlib.util
import json
from pathlib import Path

import aoplan
import pytest
from aoplan import UniformStream, derive_seed, run_planner, scenario_from_dict

from conftest import SCENARIO_DIR, load_fixture_scenario

VERIFY_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "verify.py"

SINGLE_GOAL = ("empty_square.json", "box_square.json", "kino_square.json")

# (planner, n, run_planner params, scenario files it applies to)
RUNS = [
    ("prm-star", 500, {}, SINGLE_GOAL),
    ("k-prm-star", 500, {}, SINGLE_GOAL),
    ("rrt", 1000, {}, SINGLE_GOAL),
    ("rrt-star", 1000, {}, SINGLE_GOAL),
    ("sst", 3000, {}, SINGLE_GOAL),
    ("ao-rrt", 3000, {}, SINGLE_GOAL),
    ("ao-meta", 3000, {}, SINGLE_GOAL),
    ("sst", 3000, {"system": "car"}, ("kino_square.json",)),
    ("ao-rrt", 3000, {"system": "car"}, ("kino_square.json",)),
    ("drrt-star", 400, {"n_roadmap": 100}, ("two_robot_swap.json",)),
]


def load_verify():
    spec = importlib.util.spec_from_file_location("perfbench_verify", VERIFY_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.verify


def verdict(verify, scenario, planner, stream_seed, n, params, checkpoints=None):
    result = run_planner(scenario, planner, UniformStream(scenario.dimension, stream_seed), n,
                         params, checkpoints=checkpoints)
    return verify(aoplan, scenario, planner, result, params.get("system", "integrator2d"))


@pytest.mark.parametrize("planner, n, params, files", RUNS,
                         ids=[r[0] + "-" + r[2].get("system", "default") for r in RUNS])
def test_every_returned_path_verifies(planner, n, params, files):
    verify = load_verify()
    statuses = []
    for name in files:
        scenario = load_fixture_scenario(name)
        for s in (1, 2):
            status, reason = verdict(verify, scenario, planner, derive_seed(s, 0), n, params)
            assert status in ("ok", "no-path"), (name, s, reason)
            statuses.append(status)
    assert "ok" in statuses


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: sst checks its Euler states, "
                   "not the segments between them")
def test_kino_box_sst_path_verifies():
    # perfbench's kino-box sst run: box_square with the kino_square goal radius
    doc = json.loads((SCENARIO_DIR / "box_square.json").read_text())
    doc["goal"]["radius"] = 0.05
    scenario = scenario_from_dict(doc)
    status, reason = verdict(load_verify(), scenario, "sst", derive_seed(2, 1), 20000,
                             {"system": "integrator2d"}, checkpoints=(20000,))
    assert (status, reason) == ("ok", "")
