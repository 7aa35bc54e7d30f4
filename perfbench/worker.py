"""One workload in a fresh process: set-up, trials, verification, metrics.

Run by run.py, never directly by a user:

    python3 perfbench/worker.py --root R --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --root R --workload W --seed N --probe

Trials run one at a time in this process (closed loop, no pool). Each
planner run is wrapped in try/except: one that raises becomes a failed
record with its exception type and never aborts the workload. With
--trace 1 the untraced trials run first, then the same trials again under
the tracer, which must reproduce every final cost, checkpoint list and
counter exactly. --probe only measures set-up. The result is one JSON
object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import micro
import tracer as tracing
import verify as verifying
from workloads import WORKLOADS, setup, trials_for


def run_trials(ctx, verify, tracer=None):
    """Run every trial; one record per planner run, in trial order."""
    aoplan = ctx["aoplan"]
    scenario = ctx["scenario"]
    records = []
    for trial, seed in enumerate(ctx["trial_seeds"]):
        if tracer is not None:
            tracer.current_trial = trial
        for planner, n, params, checkpoints in ctx["runs"]:
            stream = aoplan.UniformStream(scenario.dimension, seed)
            rec = {"trial": trial, "seed": seed, "planner": planner, "n": n}
            t0 = time.perf_counter()
            try:
                result = aoplan.run_planner(scenario, planner, stream, n, params,
                                            checkpoints=checkpoints)
            except Exception as exc:  # a raising run is a failed record
                rec.update(seconds=time.perf_counter() - t0, status="raised",
                           reason=f"{type(exc).__name__}: {exc}", cost=None,
                           checkpoints=None, counters=None)
                records.append(rec)
                continue
            rec["seconds"] = time.perf_counter() - t0
            rec["cost"] = result.best_cost
            rec["checkpoints"] = [list(c) for c in result.checkpoints]
            rec["counters"] = dict(result.counters)
            if verify:
                try:
                    rec["status"], rec["reason"] = verifying.verify(
                        aoplan, scenario, planner, result,
                        params.get("system", "integrator2d"))
                except Exception as exc:  # an output the checks cannot read is invalid
                    rec["status"] = "invalid"
                    rec["reason"] = f"verification raised {type(exc).__name__}: {exc}"
            records.append(rec)
    return records


def trial_seconds(records):
    per = {}
    for r in records:
        per[r["trial"]] = per.get(r["trial"], 0.0) + r["seconds"]
    return [per[t] for t in sorted(per)]


def end_to_end(records, runs):
    """End-to-end metrics by name: (value, unit, samples)."""
    times = trial_seconds(records)
    attempted = len(records)
    ok = [r for r in records if r["status"] == "ok"]
    failed = [r for r in records if r["status"] in ("raised", "invalid")]
    medians = []
    for planner, *_ in runs:
        costs = [r["cost"] for r in ok if r["planner"] == planner]
        if costs:
            medians.append(statistics.median(costs))
    iters = sum(r["n"] for r in records)
    out = {
        "trial_s_p50": (statistics.median(times), "s", len(times)),
        "iters_per_s": (iters / sum(times), "1/s", len(times)),
        "success_rate": (len(ok) / attempted, "ratio", attempted),
        "fail_rate": (len(failed) / attempted, "ratio", attempted),
    }
    if medians:
        out["cost_p50"] = (statistics.mean(medians), "cost", len(ok))
    return out


def per_layer(summary, records, trials):
    """Per-layer metrics by name: (value, unit), per trial where it is a total.

    A metric that reads a span whose public name no longer exists (so it was
    never wrapped) is left out: missing, never 0.
    """
    def get(span, key):
        return summary[span][key]  # KeyError when the name was not wrapped

    def total(spans, key):
        present = [s for s in spans if s in summary]
        if not present:
            raise KeyError(spans)
        return sum(summary[s][key] for s in present)

    def ratio(num, den):
        return num / den if den else 0.0  # 0 when the layer did no work

    queries = ("NeighborIndex.k_nearest", "NeighborIndex.nearest_id",
               "NeighborIndex.within_radius", "NeighborIndex.within_radius_arrays")
    planners_geo = ("prm_star", "rrt", "rrt_star")
    planners_kino = ("sst_plan", "ao_rrt_plan", "ao_meta", "cost_bounded_rrt")
    counters = [r["counters"] or {} for r in records]
    geo_runs = [r["counters"] or {} for r in records if r["planner"] in verifying.KINEMATIC]

    def per_trial(span, key):
        return get(span, key) / trials

    plan = {
        "sampling.sample_free.calls": ("calls/trial", lambda: per_trial("sample_free", "calls")),
        "sampling.sample_free.self_s": ("s/trial", lambda: per_trial("sample_free", "self_s")),
        "sampling.accept_ratio": ("ratio", lambda: ratio(
            get("sample_free", "calls"), get("sample_free", "draws"))),
        "nn.query.calls": ("calls/trial", lambda: total(queries, "top_calls") / trials),
        "nn.query.self_s": ("s/trial", lambda: total(queries, "self_s") / trials),
        "nn.insert.calls": ("calls/trial", lambda: per_trial("NeighborIndex.insert", "calls")),
        "nn.insert.self_s": ("s/trial", lambda: per_trial("NeighborIndex.insert", "self_s")),
        "nn.neighbors_per_query": ("rows/call", lambda: ratio(
            total(queries, "top_rows"), total(queries, "top_calls"))),
        "geometry.edge_batches": ("calls/trial", lambda: per_trial("segments_valid", "calls")),
        "geometry.edge_rows": ("rows/trial", lambda: per_trial("segments_valid", "rows")),
        "geometry.segments.self_s": ("s/trial", lambda: per_trial("segments_valid", "self_s")),
        "geometry.edge_valid_ratio": ("ratio", lambda: ratio(
            get("segments_valid", "hits"), get("segments_valid", "rows"))),
        "geometry.points.calls": ("calls/trial", lambda: per_trial("points_valid", "calls")),
        "geometry.points.rows": ("rows/trial", lambda: per_trial("points_valid", "rows")),
        "geometry.points.self_s": ("s/trial", lambda: per_trial("points_valid", "self_s")),
        "geometry.collision_checks": ("count/trial", lambda: sum(
            c.get("collision_checks", 0) for c in counters) / trials),
        "geometric.astar.calls": ("calls/trial", lambda: per_trial("shortest_path", "calls")),
        "geometric.astar.self_s": ("s/trial", lambda: per_trial("shortest_path", "self_s")),
        "geometric.reparent.calls": (
            "calls/trial", lambda: per_trial("SearchTree.reparent", "calls")),
        "geometric.reparent.self_s": (
            "s/trial", lambda: per_trial("SearchTree.reparent", "self_s")),
        "geometric.rewires": ("count/trial", lambda: sum(
            c.get("rewires", 0) for c in geo_runs) / trials),
        "geometric.planner.self_s": ("s/trial", lambda: total(planners_geo, "self_s") / trials),
        "kinodynamic.select.calls": (
            "calls/trial", lambda: per_trial("DynamicalSystem.distances", "calls")),
        "kinodynamic.select.rows": (
            "rows/trial", lambda: per_trial("DynamicalSystem.distances", "rows")),
        "kinodynamic.select.self_s": (
            "s/trial", lambda: per_trial("DynamicalSystem.distances", "self_s")),
        "kinodynamic.propagate.calls": (
            "calls/trial", lambda: per_trial("monte_carlo_propagate", "calls")),
        "kinodynamic.propagate.self_s": (
            "s/trial", lambda: per_trial("monte_carlo_propagate", "self_s")),
        "kinodynamic.traj_valid_ratio": ("ratio", lambda: ratio(
            get("CollisionChecker.states_valid", "hits"),
            get("CollisionChecker.states_valid", "calls"))),
        "kinodynamic.planner.self_s": (
            "s/trial", lambda: total(planners_kino, "self_s") / trials),
        "multirobot.roadmaps.s": (
            "s/trial", lambda: per_trial("build_per_robot_roadmaps", "total_s")),
        "multirobot.composite_check.calls": (
            "calls/trial", lambda: per_trial("composite_edge_valid", "calls")),
        "multirobot.composite_check.self_s": (
            "s/trial", lambda: per_trial("composite_edge_valid", "self_s")),
        "multirobot.composite_valid_ratio": ("ratio", lambda: ratio(
            get("composite_edge_valid", "hits"), get("composite_edge_valid", "calls"))),
        "multirobot.search.self_s": ("s/trial", lambda: per_trial("drrt_star", "self_s")),
    }
    out = {}
    for name, (unit, value) in plan.items():
        try:
            out[name] = (value(), unit)
        except KeyError:
            continue
    return out


def _signature(records):
    return [(r["planner"], r["trial"], r.get("cost"), r.get("checkpoints"), r.get("counters"))
            for r in records]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(args.root, "src"))

    trials = trials_for(args.workload, args.seconds)
    ctx, setup_s = setup(args.root, args.workload, args.seed, trials)
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    log = sys.stderr
    records = run_trials(ctx, verify=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for r in records:
        print(f"  trial {r['trial']} {r['planner']:<10} {r['seconds']:8.3f} s "
              f"{r['status']:<7} cost={r['cost']} {r['reason']}", file=log)
    e2e = end_to_end(records, ctx["runs"])
    e2e["peak_rss_mb"] = (peak_rss_mb, "MB", 1)
    out = {
        "numpy": ctx["aoplan"].bench.np.__version__,
        "trials": trials,
        "setup_s": setup_s,
        "end_to_end": e2e,
        "records": records,
        "per_layer": {},
        "missing": [],
        "correct": True,
        "problems": [],
    }

    if args.trace:
        aoplan = ctx["aoplan"]
        box = aoplan.load_scenario_file(os.path.join(args.root, "scenarios", "box_square.json"))
        micro_metrics = micro.measure(aoplan, box, args.seed)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_trials(ctx, verify=False, tracer=tracer)
        finally:
            tracer.uninstall()
        if _signature(traced) != _signature(records):
            out["correct"] = False
            out["problems"].append("the traced run did not reproduce the untraced run")
        out_dir = os.path.join(args.root, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}.npz"))
        summary = tracer.summary()
        layer = per_layer(summary, records, trials)
        layer.update(micro_metrics)
        traced_p50 = statistics.median(trial_seconds(traced))
        layer["trace.overhead"] = (traced_p50 / e2e["trial_s_p50"][0] - 1.0, "ratio")
        out["per_layer"] = layer
        out["missing"] = tracer.missing
        out["spans"] = len(tracer.start)

    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
