"""The benchmark's span tracer must keep seeing the callables it wraps.

perfbench/tracer.py rebinds aoplan attributes by name; a refactor that
renames one, or calls around it, would silently zero a per-layer metric.
These tests only import the tracer; they never edit it.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from aoplan import UniformStream
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


def test_traced_composite_checks_equal_collision_checks(swap_scenario):
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        res = multirobot.drrt_star(swap_scenario, None, UniformStream(2, 5), 80, 300)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    spans = tracer.arrays()["name"]
    calls = int(np.count_nonzero(spans == tracer.names.index("composite_edge_valid")))
    assert calls == res.counters["collision_checks"] > 0
