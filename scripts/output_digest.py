#!/usr/bin/env python3
"""One SHA-256 per (workload, seed) over the outputs of one benchmark trial.

A trial is trial 0 of a `perfbench/workloads.py` workload: every planner
run of the workload, in order, on a fresh UniformStream at
derive_seed(seed, 0). The digest covers, per run, the repr of the best
cost, the checkpoints, the checkpoint stats, the counters and the bounds,
plus the bytes of every array field of the path (waypoints, states,
controls, durations, per-robot tracks). Two source trees that print the
same digests produced byte-identical planner outputs; timings are left
out.

    python3 scripts/output_digest.py --seeds 1 2 3
    python3 scripts/output_digest.py --workload kino-box --seeds 1

The same outputs, field by field, are what `tests/data/goldens.json` pins:
`run_case` runs one case of that table and `expected` gives the values it
pins, with the path hashed as `digest` hashes it.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent


def _hash_path(h, path) -> None:
    """Feed a path into hasher h: each array field's name, shape and float64 bytes."""
    if path is None:
        h.update(b"no path")
        return
    for f in dataclasses.fields(path):
        value = getattr(path, f.name)
        if isinstance(value, tuple):
            rows = np.ascontiguousarray(np.asarray(value, dtype=float))
            h.update(f"{f.name}{rows.shape}".encode())
            h.update(rows.tobytes())
        else:
            h.update(f"{f.name}={value!r}".encode())


def path_sha256(path) -> str:
    """Hex SHA-256 of one path, hashed as `digest` hashes it."""
    h = hashlib.sha256()
    _hash_path(h, path)
    return h.hexdigest()


def digest(results) -> str:
    """Hex SHA-256 over a sequence of PlanResults, in order."""
    h = hashlib.sha256()
    for result in results:
        for value in (result.best_cost, result.checkpoints, result.checkpoint_stats,
                      sorted(result.counters.items()), result.bounds):
            h.update(repr(value).encode())
        _hash_path(h, result.path)
    return h.hexdigest()


def expected(result) -> dict:
    """The outputs a golden case pins, as the JSON values the table holds."""
    return json.loads(json.dumps({
        "best_cost": repr(result.best_cost),
        "bounds": result.bounds,
        "checkpoints": result.checkpoints,
        "counters": result.counters,
        "path_sha256": path_sha256(result.path),
        "stats": result.checkpoint_stats,
    }))


def _import(name: str):
    """A module of this checkout, with perfbench/ and src/ importable first."""
    for sub in ("perfbench", "src"):
        if str(REPO / sub) not in sys.path:
            sys.path.insert(0, str(REPO / sub))
    return importlib.import_module(name)


def load_workloads():
    """perfbench/workloads.py of this checkout."""
    return _import("workloads")


def run_case(case: dict):
    """One golden-table case through run_planner, on a fresh UniformStream at its seed."""
    aoplan = _import("aoplan")
    doc = json.loads((REPO / "scenarios" / case["scenario"]).read_text())
    if "goal_radius" in case:
        doc["goal"]["radius"] = case["goal_radius"]
    scenario = aoplan.scenario_from_dict(doc)
    stream = aoplan.UniformStream(scenario.dimension, case["seed"])
    return aoplan.run_planner(scenario, case["planner"], stream, case["n"], case["params"],
                              checkpoints=case["checkpoints"])


def trial_digest(workload: str, seed: int) -> str:
    """Digest of trial 0 of a perfbench workload at the base seed."""
    ctx, _ = load_workloads().setup(str(REPO), workload, seed, 1)
    aoplan, scenario = ctx["aoplan"], ctx["scenario"]
    trial_seed = ctx["trial_seeds"][0]
    return digest(
        aoplan.run_planner(scenario, planner, aoplan.UniformStream(scenario.dimension, trial_seed),
                           n, params, checkpoints=checkpoints)
        for planner, n, params, checkpoints in ctx["runs"]
    )


def main(argv=None) -> int:
    known = load_workloads().WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", help="a workload name, or all")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = ap.parse_args(argv)
    names = list(known) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in known:
            ap.error(f"unknown workload {name!r}")
        for seed in args.seeds:
            print(f"{name} {seed} {trial_digest(name, seed)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
