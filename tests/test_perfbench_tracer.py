"""The benchmark's span tracer must keep seeing the callables it wraps.

perfbench/tracer.py rebinds aoplan attributes by name; a refactor that
renames one, or calls around it, would silently zero a per-layer metric.
These tests only import the tracer; they never edit it.
"""

import importlib
import importlib.util
from pathlib import Path

from aoplan import UniformStream, ao_rrt_plan, run_planner, single_integrator_2d
from aoplan import multirobot

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_callable_resolves():
    tracer = load_tracer()
    for mod_name, attr, *_ in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), \
            f"{mod_name}.{attr}"
    for mod_name, cls_name, methods in tracer.CLASSES:
        cls = getattr(importlib.import_module(mod_name), cls_name, None)
        assert isinstance(cls, type), f"{mod_name}.{cls_name}"
        for meth in methods or ():
            assert callable(vars(cls).get(meth)), f"{mod_name}.{cls_name}.{meth}"


def traced(run):
    """(result of run(), tracer summary) with the tracer installed around the call."""
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        res = run()
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    return res, tracer.summary()


def test_traced_selection_scans_equal_nn_queries(kino_square):
    # each ao-rrt iteration selects through DynamicalSystem.distances; a scan
    # that called the distance kernel directly would hide from the tracer
    res, summary = traced(lambda: ao_rrt_plan(
        kino_square, single_integrator_2d(), UniformStream(2, 7), 400))
    assert summary["DynamicalSystem.distances"]["calls"] == res.counters["nn_queries"] == 400


def test_traced_index_queries_equal_nn_queries(empty_square):
    res, summary = traced(lambda: run_planner(
        empty_square, "rrt-star", UniformStream(2, 7), 300, {}))
    queries = ("NeighborIndex.k_nearest", "NeighborIndex.nearest_id",
               "NeighborIndex.within_radius")
    calls = sum(summary[q]["top_calls"] for q in queries if q in summary)
    assert calls == res.counters["nn_queries"] > 300


def test_traced_composite_checks_equal_collision_checks(swap_scenario):
    res, summary = traced(lambda: multirobot.drrt_star(
        swap_scenario, None, UniformStream(2, 5), 80, 300))
    assert summary["composite_edge_valid"]["calls"] == res.counters["collision_checks"] > 0
