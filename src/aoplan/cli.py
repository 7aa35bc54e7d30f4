"""Command-line front end.

Subcommands: plan, benchmark, report, radius, dispersion, oracle.
Exit codes: 0 success, 1 no path, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bench import (
    RunSpec,
    convergence_report,
    rows_from_csv,
    rows_to_csv,
    run_benchmark,
    run_planner,
    summary_to_csv,
)
from .errors import PlanningError, UsageError
from .geometric import RADIUS_RULES, RadiusRule, connection_radius, k_connection
from .geometry import Box, load_scenario_file
from .kinodynamic import Trajectory
from .multirobot import CompositePath
from .oracles import optimal_cost_2d_boxes
from .sampling import make_stream, measure_dispersion


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="aoplan", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="run one planner on one scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--planner", required=True)
    p.add_argument("--n", type=int, required=True, help="samples / iterations, run_planner's n")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sampler", choices=["uniform", "halton"], default="uniform")
    p.add_argument("--param", action="append", default=[],
                   help="planner parameter key=value (repeatable)")
    p.add_argument("--out")

    b = sub.add_parser("benchmark", help="run seeded trials and persist a CSV")
    b.add_argument("--scenario", required=True)
    b.add_argument("--planner", required=True)
    b.add_argument("--trials", type=int, required=True)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--checkpoints", required=True, help="comma-separated n values")
    b.add_argument("--workers", type=int, default=1)
    b.add_argument("--time-budget", type=float)
    b.add_argument("--param", action="append", default=[],
                   help="planner parameter key=value (repeatable)")
    b.add_argument("--out", required=True)

    r = sub.add_parser("report", help="summarize a results CSV into SVG + summary")
    r.add_argument("--in", dest="infile", required=True)
    r.add_argument("--optimal", type=float)
    r.add_argument("--out", required=True, help="SVG output path")
    r.add_argument("--summary", help="summary CSV output path")

    ra = sub.add_parser("radius", help="print a connection-rule value")
    ra.add_argument("--rule", required=True, choices=RADIUS_RULES)
    ra.add_argument("--d", type=int, required=True)
    ra.add_argument("--mu", type=float, required=True)
    ra.add_argument("--n", type=int, required=True)
    # unset options stay out of the namespace, so RadiusRule's defaults apply
    for flag, key in (("--safety", "safety_factor"), ("--c-star", "c_star_estimate"),
                      ("--theta", "theta"), ("--nu", "nu"), ("--eps", "eps"),
                      ("--fixed-radius", "fixed_radius")):
        ra.add_argument(flag, dest=key, type=float, default=argparse.SUPPRESS)

    di = sub.add_parser("dispersion", help="measure sample dispersion on the unit cube")
    di.add_argument("--sampler", choices=["uniform", "halton"], required=True)
    di.add_argument("--d", type=int, required=True)
    di.add_argument("--n", type=int, required=True)
    di.add_argument("--seed", type=int, default=0)
    di.add_argument("--grid", type=float, default=0.01)

    orc = sub.add_parser("oracle", help="print the visibility-graph optimal cost")
    orc.add_argument("--scenario", required=True)
    return top


def _solution_document(result) -> dict:
    doc = {"cost": result.best_cost, "counters": result.counters}
    path = result.path
    if isinstance(path, CompositePath):
        doc["per_robot_waypoints"] = [
            [list(map(float, q)) for q in robot] for robot in path.per_robot
        ]
    elif isinstance(path, Trajectory):
        doc["waypoints"] = [list(map(float, s)) for s in path.states]
        doc["controls"] = [list(map(float, c)) for c in path.controls]
        doc["durations"] = list(path.durations)
    else:
        doc["waypoints"] = [list(map(float, q)) for q in path.waypoints]
    return doc


def _cmd_plan(args) -> int:
    scenario = load_scenario_file(args.scenario)
    stream = make_stream(scenario.dimension, args.sampler, args.seed)
    params = _parse_params(args.param)
    if "n" in params:
        raise UsageError("plan takes n as --n, not as a --param")
    result = run_planner(scenario, args.planner, stream, args.n, params)
    if result.best_cost is None:
        print("no path found", file=sys.stderr)
        return 1
    doc = _solution_document(result)
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_params(items) -> dict:
    """run_planner params from repeated --param key=value texts."""
    params = {}
    for item in items:
        if "=" not in item:
            raise UsageError(f"--param expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        params[key.replace("-", "_")] = _parse_value(value)
    return params


def _cmd_benchmark(args) -> int:
    try:
        checkpoints = tuple(int(c) for c in args.checkpoints.split(",") if c)
    except ValueError:
        raise UsageError("--checkpoints expects comma-separated integers")
    spec = RunSpec(
        scenario_path=args.scenario, planner=args.planner, params=_parse_params(args.param),
        trials=args.trials, base_seed=args.seed, checkpoints=checkpoints,
        time_budget=args.time_budget,
    )
    rows = run_benchmark(spec, workers=args.workers)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(rows_to_csv(rows))
    print(f"{len(rows)} rows -> {args.out}")
    return 0


def _cmd_report(args) -> int:
    with open(args.infile, "r", encoding="utf-8") as fh:
        rows = rows_from_csv(fh.read())
    report, svg = convergence_report(rows, optimal_cost=args.optimal)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    summary = summary_to_csv(report)
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as fh:
            fh.write(summary)
    sys.stdout.write(summary)
    return 0


def _cmd_radius(args) -> int:
    options = {k: v for k, v in vars(args).items() if k not in ("command", "n")}
    rule = RadiusRule(**options)
    if args.rule == "k_prm_star":
        print(k_connection(args.d, args.n))
    else:
        print(f"{connection_radius(rule, args.n):.12g}")
    return 0


def _cmd_dispersion(args) -> int:
    stream = make_stream(args.d, args.sampler, args.seed)
    domain = Box(lo=np.zeros(args.d), hi=np.ones(args.d))
    report = measure_dispersion(stream.next_points(domain, args.n), domain, args.grid)
    print(report.csv_line())
    return 0


def _cmd_oracle(args) -> int:
    scenario = load_scenario_file(args.scenario)
    cost = optimal_cost_2d_boxes(scenario)
    if cost is None:
        print("disconnected: no optimal cost", file=sys.stderr)
        return 1
    print(f"{cost:.9g}")
    return 0


_COMMANDS = {
    "plan": _cmd_plan,
    "benchmark": _cmd_benchmark,
    "report": _cmd_report,
    "radius": _cmd_radius,
    "dispersion": _cmd_dispersion,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except PlanningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
