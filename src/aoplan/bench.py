"""Trial orchestration, CSV persistence, and convergence reporting.

Benchmark output is a pure function of the run spec: per-trial streams are
derived with a fixed 64-bit mix of (base_seed, trial_index), trials are
merged in trial order regardless of the worker pool, and the persisted
time_ms column is a deterministic work proxy (samples + validity queries +
neighbor queries + rewires), not wall clock, so reruns are byte-identical.
Wall-clock timing stays available on PlanResult.elapsed_ms.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .errors import UsageError, _whole
from .geometry import Scenario, load_scenario_file
from .geometric import _checkpoint_list, default_rule, prm_star, rrt, rrt_star
from .kinodynamic import SYSTEMS, ao_meta, ao_rrt_plan, cost_bounded_rrt, sst_plan
from .multirobot import drrt_star
from .sampling import UniformStream

_MASK = (1 << 64) - 1


def derive_seed(base_seed: int, trial_index: int) -> int:
    """splitmix64 finalizer over base_seed + (trial_index + 1) * golden gamma."""
    z = (base_seed + (trial_index + 1) * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


@dataclass(frozen=True)
class RunSpec:
    scenario_path: str
    planner: str
    params: dict = field(default_factory=dict)
    trials: int = 1
    base_seed: int = 0
    checkpoints: tuple = ()
    time_budget: Optional[float] = None

    def __post_init__(self):
        if self.trials < 1:
            raise UsageError("trials must be >= 1")
        if self.time_budget is not None and not self.time_budget >= 0.0:
            raise UsageError("time_budget must be >= 0")
        object.__setattr__(self, "checkpoints", tuple(_checkpoint_list(self.checkpoints)))


@dataclass(frozen=True)
class ResultRow:
    scenario: str
    planner: str
    seed: int
    checkpoint_n: int
    best_cost: Optional[float]
    success: bool
    time_ms: int
    nodes: int
    edges: int
    collision_checks: int


PLANNER_NAMES = (
    "prm-star", "k-prm-star", "rrt", "rrt-star", "sst", "ao-rrt", "ao-meta",
    "drrt-star",
)


def _param(params: dict, key: str, cast, default=None):
    """Pop params[key] through cast (float, _whole or _xi_period); default if unset or None.

    A value the cast refuses is a UsageError that names the key.
    """
    value = params.pop(key, None)
    if value is None:
        return default
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError, UsageError):
        raise UsageError(f"parameter {key}: cannot use {value!r}") from None


def _xi_period(value):
    """'xi:period' text or an (xi, period) pair, as (float, int)."""
    xi, period = value.split(":") if isinstance(value, str) else value
    return float(xi), _whole(period)


def run_planner(scenario: Scenario, planner: str, stream, n: int, params: dict,
                checkpoints=None):
    """Dispatch one planner execution; its params keys are the CLI's --param keys.

    `n`, `eta`, `goal_bias`, `resolution` and `max_attempts` are taken for
    every planner; any other key the chosen planner does not read is a
    UsageError, raised before the planner runs, as are bad checkpoints.
    """
    p = dict(params)
    p.pop("n", None)
    checkpoints = None if checkpoints is None else _checkpoint_list(checkpoints)
    resolution = _param(p, "resolution", float)
    max_attempts = _param(p, "max_attempts", _whole, 10_000)
    eta = _param(p, "eta", float, 0.1 * scenario.diagonal)
    # only a set goal_bias is passed on, so each tree planner keeps its own default
    bias = {"goal_bias": _param(p, "goal_bias", float)} if "goal_bias" in p else {}

    if planner in ("prm-star", "k-prm-star"):
        kind = "k_prm_star" if planner == "k-prm-star" else p.pop("radius_rule", "prm_star")
        rule = default_rule(kind, scenario, **_rule_kwargs(p))
        run = partial(prm_star, scenario, stream, n, rule, resolution=resolution,
                      checkpoints=checkpoints, max_attempts=max_attempts)
    elif planner == "rrt":
        run = partial(rrt, scenario, stream, n, eta, resolution=resolution,
                      checkpoints=checkpoints, max_attempts=max_attempts, **bias)
    elif planner == "rrt-star":
        kind = p.pop("radius_rule", "rrt_star_revised")
        eta_max = _param(p, "eta_max", float)
        rule = default_rule(kind, scenario, **_rule_kwargs(p))
        run = partial(rrt_star, scenario, stream, n, eta, rule, eta_max=eta_max,
                      resolution=resolution, checkpoints=checkpoints,
                      max_attempts=max_attempts,
                      audit_every=_param(p, "audit_every", _whole), **bias)
    elif planner in ("sst", "ao-rrt", "ao-meta"):
        system_name = p.pop("system", "integrator2d")
        if system_name not in SYSTEMS:
            raise UsageError(f"unknown system {system_name!r}")
        system = SYSTEMS[system_name]()
        if planner == "sst":
            run = partial(
                sst_plan, scenario, system, stream, n,
                delta_bn=_param(p, "delta_bn", float),
                delta_s=_param(p, "delta_s", float),
                shrink=_param(p, "shrink", _xi_period),
                resolution=resolution, checkpoints=checkpoints,
                audit_every=_param(p, "audit_every", _whole),
            )
        elif planner == "ao-rrt":
            run = partial(
                ao_rrt_plan, scenario, system, stream, n,
                cost_weight=_param(p, "cost_weight", float, 1.0),
                initial_bound=_param(p, "initial_bound", float),
                resolution=resolution, checkpoints=checkpoints,
                audit_every=_param(p, "audit_every", _whole),
            )
        else:
            rounds = _param(p, "rounds", _whole, 5)
            budget = _param(p, "budget", _whole, 0) or max(1, n // rounds)
            beta = _param(p, "beta", float, 0.1)

            def bounded(bound, iters):
                return cost_bounded_rrt(scenario, system, stream, bound, iters,
                                        resolution=resolution)

            run = partial(ao_meta, bounded, beta, rounds, budget)
    elif planner == "drrt-star":
        n_roadmap = _param(p, "n_roadmap", _whole, 500)
        rule = None
        if "radius_rule" in p:
            rule = default_rule(p.pop("radius_rule"), scenario, **_rule_kwargs(p))
        run = partial(drrt_star, scenario, None, stream, n_roadmap, n, rule,
                      resolution=resolution, checkpoints=checkpoints,
                      max_attempts=max_attempts,
                      audit_every=_param(p, "audit_every", _whole), **bias)
    else:
        raise UsageError(f"unknown planner {planner!r}")
    if p:
        raise UsageError(f"planner {planner!r} does not take: {', '.join(sorted(p))}")
    return run()


def _rule_kwargs(params: dict) -> dict:
    keys = ("theta", "nu", "eps", "c_star_estimate", "safety_factor", "gamma_det",
            "fixed_radius")
    return {key: _param(params, key, float) for key in keys if key in params}


def _trial_task(task) -> list:
    """The CSV rows of one trial; task is (spec, trial index)."""
    spec, trial = task
    scenario = load_scenario_file(spec.scenario_path)
    seed = derive_seed(spec.base_seed, trial)
    stream = UniformStream(scenario.dimension, seed)
    n = _param(dict(spec.params), "n", _whole, spec.checkpoints[-1])
    if n < spec.checkpoints[-1]:
        raise UsageError("params n is smaller than the last checkpoint")
    started = time.perf_counter()
    result = run_planner(scenario, spec.planner, stream, n, spec.params,
                         checkpoints=spec.checkpoints)
    timed_out = spec.time_budget is not None and time.perf_counter() - started > spec.time_budget
    rows = []
    for c in spec.checkpoints:
        # planners that report their own grid (the meta loop) map to the
        # latest record at or before the requested checkpoint
        st = next((st for st in reversed(result.checkpoint_stats) if st["n"] <= c), None)
        cost = None if st is None or timed_out else st["cost"]
        counts = [int(st[k]) if st else 0 for k in ("work", "nodes", "edges", "collision_checks")]
        rows.append(ResultRow(spec.scenario_path, spec.planner, seed, c, cost, cost is not None,
                              *counts))
    return rows


def run_benchmark(spec: RunSpec, workers: int = 1) -> list:
    """Execute all trials; rows are merged in trial order.

    The result is a pure function of the spec (worker count only changes
    wall time) provided no per-trial time budget is set; budgets are wall
    clock and may flip slow trials to failed rows.
    """
    if spec.planner not in PLANNER_NAMES:
        raise UsageError(f"unknown planner {spec.planner!r}")
    tasks = [(spec, trial) for trial in range(spec.trials)]
    if workers <= 1 or spec.trials == 1:
        chunks = map(_trial_task, tasks)
    else:
        # imported here, its only use, so that `import aoplan` stays light
        from multiprocessing import get_context

        with get_context("fork").Pool(processes=min(workers, spec.trials)) as pool:
            chunks = pool.map(_trial_task, tasks)
    return [row for chunk in chunks for row in chunk]


# ---------------------------------------------------------------------------
# CSV persistence

CSV_FIELDS = ("scenario", "planner", "seed", "checkpoint_n", "best_cost",
              "success", "time_ms", "nodes", "edges", "collision_checks")


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for r in rows:
        writer.writerow([
            r.scenario, r.planner, r.seed, r.checkpoint_n,
            "" if r.best_cost is None else repr(float(r.best_cost)),
            "true" if r.success else "false",
            r.time_ms, r.nodes, r.edges, r.collision_checks,
        ])
    return buf.getvalue()


def rows_from_csv(text: str) -> list:
    """ResultRows of a results CSV; a malformed row raises UsageError naming its line."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != CSV_FIELDS:
        raise UsageError("unrecognized results CSV header")
    rows = []
    for rec in reader:
        if not rec:
            continue
        try:
            if len(rec) != len(CSV_FIELDS):
                raise ValueError(f"{len(rec)} fields, expected {len(CSV_FIELDS)}")
            scenario, planner, seed, n, cost, success, *counts = rec
            if success not in ("true", "false"):
                raise ValueError(f"success must be true or false, got {success!r}")
            rows.append(ResultRow(scenario, planner, int(seed), int(n),
                                  None if cost == "" else float(cost), success == "true",
                                  *map(int, counts)))
        except ValueError as exc:
            raise UsageError(f"results CSV line {reader.line_num}: {exc}") from None
    return rows


# ---------------------------------------------------------------------------
# convergence report


@dataclass(frozen=True)
class ReportRow:
    checkpoint_n: int
    trials: int
    success_rate: float
    median_cost: Optional[float]
    q25_cost: Optional[float]
    q75_cost: Optional[float]
    rel_err: Optional[float]


def convergence_report(rows, optimal_cost: Optional[float] = None):
    """Per-checkpoint success rate and cost quartiles, plus an SVG chart.

    Quantiles use linear interpolation (numpy default).  When the optimal
    cost is known the report carries (median - c*) / c*.
    """
    if not rows:
        raise UsageError("convergence_report needs at least one row")
    by_n = {}
    for r in rows:
        by_n.setdefault(r.checkpoint_n, []).append(r)
    out = []
    for n in sorted(by_n):
        bucket = by_n[n]
        costs = [r.best_cost for r in bucket if r.success]
        if costs:
            q25, med, q75 = (float(v) for v in np.percentile(costs, [25, 50, 75]))
        else:
            q25 = med = q75 = None
        rel = None
        if optimal_cost is not None and med is not None:
            rel = (med - optimal_cost) / optimal_cost
        out.append(ReportRow(
            checkpoint_n=n, trials=len(bucket),
            success_rate=len(costs) / len(bucket),
            median_cost=med, q25_cost=q25, q75_cost=q75, rel_err=rel,
        ))
    svg = _render_chart(out, optimal_cost)
    return out, svg


def summary_to_csv(report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["checkpoint_n", "trials", "success_rate", "median_cost",
                     "q25_cost", "q75_cost", "rel_err"])
    for r in report:
        writer.writerow([
            r.checkpoint_n, r.trials, repr(r.success_rate),
            "" if r.median_cost is None else repr(r.median_cost),
            "" if r.q25_cost is None else repr(r.q25_cost),
            "" if r.q75_cost is None else repr(r.q75_cost),
            "" if r.rel_err is None else repr(r.rel_err),
        ])
    return buf.getvalue()


def _render_chart(report, optimal_cost) -> str:
    """Self-contained SVG line chart of median cost against sample count.

    The numbers are embedded as data attributes so tests can diff the
    chart without parsing coordinates.
    """
    width, height, ml, mr, mt, mb = 640, 400, 70, 20, 30, 50
    pts = [(r.checkpoint_n, r.median_cost) for r in report if r.median_cost is not None]
    ns = [r.checkpoint_n for r in report]
    values = [c for _, c in pts]
    if optimal_cost is not None:
        values = values + [optimal_cost]
    if not values:
        values = [0.0, 1.0]
    lo = min(values)
    hi = max(values)
    pad = 0.1 * (hi - lo) if hi > lo else max(0.1 * abs(hi), 0.1)
    lo, hi = lo - pad, hi + pad
    n_lo, n_hi = min(ns), max(ns)
    span_n = max(1, n_hi - n_lo)

    def sx(n):
        return ml + (n - n_lo) / span_n * (width - ml - mr)

    def sy(c):
        return height - mb - (c - lo) / (hi - lo) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" '
        'stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
        f'<text x="{(ml + width - mr) / 2}" y="{height - 12}" text-anchor="middle" '
        'font-size="13">samples n</text>',
        f'<text x="16" y="{(mt + height - mb) / 2}" font-size="13" '
        f'transform="rotate(-90 16 {(mt + height - mb) / 2})" '
        'text-anchor="middle">median cost</text>',
    ]
    for n in ns:
        parts.append(
            f'<text x="{sx(n):.1f}" y="{height - mb + 16}" text-anchor="middle" '
            f'font-size="11">{n}</text>'
        )
    if optimal_cost is not None:
        y = sy(optimal_cost)
        parts.append(
            f'<line class="optimum" x1="{ml}" y1="{y:.2f}" x2="{width - mr}" '
            f'y2="{y:.2f}" stroke="crimson" stroke-dasharray="6 4" '
            f'data-optimal-cost="{optimal_cost!r}"/>'
        )
    if pts:
        coords = " ".join(f"{sx(n):.2f},{sy(c):.2f}" for n, c in pts)
        parts.append(
            '<polyline class="median" fill="none" stroke="steelblue" stroke-width="2" '
            f'data-n="{",".join(str(n) for n, _ in pts)}" '
            f'data-median="{",".join(repr(c) for _, c in pts)}" '
            f'points="{coords}"/>'
        )
        for n, c in pts:
            parts.append(
                f'<circle cx="{sx(n):.2f}" cy="{sy(c):.2f}" r="3" fill="steelblue"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
