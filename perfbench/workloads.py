"""The four planner workloads, their set-up, and their trial counts.

A workload is a scenario plus a list of planner runs that make up one
trial; every run of a trial gets a fresh stream on the same trial seed,
derive_seed(seed, trial). Problem sizes are fixed; only the number of
trials follows the requested run length.
"""

from __future__ import annotations

import json
import os
import time

# name -> scenario source, planner runs (planner, n, params, checkpoints),
# and the nominal wall time of one trial on a 2-core desk machine
WORKLOADS = {
    "tree-box": {
        "scenario": "box_square.json",
        "runs": [("rrt-star", 8000, {}, (2000, 8000))],
        "nominal_s": 7.5,
    },
    "roadmap-box": {
        "scenario": "box_square.json",
        "runs": [
            ("prm-star", 16000, {}, (1000, 4000, 16000)),
            ("k-prm-star", 16000, {}, (1000, 4000, 16000)),
        ],
        "nominal_s": 16.0,
    },
    "kino-box": {
        "scenario": "box_square.json",
        "goal_radius": 0.05,  # the kino_square goal on the box scene
        "runs": [
            ("sst", 20000, {"system": "integrator2d"}, (20000,)),
            ("ao-rrt", 30000, {"system": "integrator2d"}, (30000,)),
            ("ao-meta", 10000, {"system": "integrator2d", "rounds": 5}, None),
        ],
        "nominal_s": 10.0,
    },
    "swap": {
        "scenario": "two_robot_swap.json",
        "runs": [("drrt-star", 8000, {"n_roadmap": 500}, (2000, 8000))],
        "nominal_s": 14.0,
    },
}


def trials_for(workload: str, seconds: float) -> int:
    """Trial count for a run of the given length; a function of its arguments only."""
    return max(1, int(round(seconds / WORKLOADS[workload]["nominal_s"])))


def setup(root: str, workload: str, seed: int, trials: int):
    """Import aoplan, parse the scenario and generate the trial seeds.

    Returns (context, seconds taken). The import is the first in this
    process, so its cost is part of the set-up time.
    """
    t0 = time.perf_counter()
    import aoplan

    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(aoplan.__file__).startswith(src + os.sep):
        raise RuntimeError(f"aoplan imported from {aoplan.__file__}, not from {src}")
    spec = WORKLOADS[workload]
    with open(os.path.join(root, "scenarios", spec["scenario"]), encoding="utf-8") as fh:
        doc = json.load(fh)
    if "goal_radius" in spec:
        doc["goal"]["radius"] = spec["goal_radius"]
    scenario = aoplan.scenario_from_dict(doc)
    ctx = {
        "aoplan": aoplan,
        "scenario": scenario,
        "runs": spec["runs"],
        "trial_seeds": [aoplan.derive_seed(seed, t) for t in range(trials)],
    }
    return ctx, time.perf_counter() - t0
