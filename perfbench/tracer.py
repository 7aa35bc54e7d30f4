"""In-memory span tracer that wraps aoplan's public callables from outside.

Each wrapped call records one span: name, start, end, parent span, trial
id and an optional row count taken from the arguments or the result.
Spans live in flat arrays until the run ends; self time is a span's
duration minus the durations of its direct children (calls are nested on
one thread, so the children never overlap).

Wrapping rebinds every ``aoplan.*`` module attribute that *is* the wrapped
object, because ``from .geometry import points_valid`` copies the binding.
A public name that no longer exists is listed in ``missing``; metrics that
depend on it are reported missing, never as 0.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


def _rows_arg(i):
    """Row count of positional argument i (a point or an (m, d) array)."""
    def measure(args, kwargs, result):
        a = np.asarray(args[i])
        return 1 if a.ndim < 2 else a.shape[0]
    return measure


def _true_count(args, kwargs, result):
    return int(np.count_nonzero(result))


def _result_len(args, kwargs, result):
    if isinstance(result, tuple):  # (ids, dists) arrays
        return len(result[0])
    return len(result)


def _one(args, kwargs, result):
    return 1


# (module, attribute, span name, measure, second measure)
# "rows" records input rows or neighbours returned; "hits" records valid rows.
FUNCTIONS = [
    ("aoplan.sampling", "sample_free", "sample_free", None, None),
    ("aoplan.geometry", "points_valid", "points_valid", _rows_arg(1), None),
    ("aoplan.geometry", "segments_valid", "segments_valid", _rows_arg(1), _true_count),
    ("aoplan.geometric", "shortest_path", "shortest_path", None, None),
    ("aoplan.geometric", "prm_star", "prm_star", None, None),
    ("aoplan.geometric", "rrt", "rrt", None, None),
    ("aoplan.geometric", "rrt_star", "rrt_star", None, None),
    ("aoplan.kinodynamic", "monte_carlo_propagate", "monte_carlo_propagate", None, None),
    ("aoplan.kinodynamic", "sst_plan", "sst_plan", None, None),
    ("aoplan.kinodynamic", "ao_rrt_plan", "ao_rrt_plan", None, None),
    ("aoplan.kinodynamic", "ao_meta", "ao_meta", None, None),
    ("aoplan.kinodynamic", "cost_bounded_rrt", "cost_bounded_rrt", None, None),
    ("aoplan.multirobot", "composite_edge_valid", "composite_edge_valid", None, _true_count),
    ("aoplan.multirobot", "build_per_robot_roadmaps", "build_per_robot_roadmaps", None, None),
    ("aoplan.multirobot", "drrt_star", "drrt_star", None, None),
]

# (module, class, methods or None for every public method)
CLASSES = [
    ("aoplan.nn", "NeighborIndex", None),
    ("aoplan.geometry", "CollisionChecker", None),
    ("aoplan.geometric", "SearchTree", ("reparent",)),
    ("aoplan.kinodynamic", "DynamicalSystem", ("distances",)),
]

# per-method measures; NeighborIndex queries record neighbours returned
METHOD_MEASURES = {
    "NeighborIndex.k_nearest": (_result_len, None),
    "NeighborIndex.nearest_id": (_one, None),
    "NeighborIndex.within_radius": (_result_len, None),
    "NeighborIndex.within_radius_arrays": (_result_len, None),
    "CollisionChecker.edges_valid": (_rows_arg(1), _true_count),
    "CollisionChecker.states_valid": (None, _true_count),
    "DynamicalSystem.distances": (_rows_arg(1), None),
}


class Tracer:
    """Span store plus the wrapping and unwrapping of aoplan's callables."""

    def __init__(self):
        self.names = []          # span name table
        self._name_id = {}
        self.name = array("i")
        self.parent = array("i")
        self.trial = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")
        self.hits = array("q")
        self._stack = [-1]
        self.current_trial = -1
        self.missing = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, rows_fn, hits_fn):
        nid = self._name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.trial.append(self.current_trial)
            self.start.append(0.0)
            self.end.append(0.0)
            self.rows.append(0)
            self.hits.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if rows_fn is not None:
                self.rows[idx] = rows_fn(args, kwargs, result)
            if hits_fn is not None:
                self.hits[idx] = hits_fn(args, kwargs, result)
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self):
        """Wrap every listed callable; names that do not exist go to missing."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "aoplan" or k.startswith("aoplan."))]
        for mod_name, attr, span, rows_fn, hits_fn in FUNCTIONS:
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(fn, span, rows_fn, hits_fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, fn))
        for mod_name, cls_name, methods in CLASSES:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            if cls is None:
                self.missing.append(f"{mod_name}.{cls_name}")
                continue
            if methods is None:
                methods = [k for k, v in vars(cls).items()
                           if not k.startswith("_") and callable(v)]
            for meth in methods:
                fn = vars(cls).get(meth)
                if fn is None or not callable(fn):
                    self.missing.append(f"{mod_name}.{cls_name}.{meth}")
                    continue
                span = f"{cls_name}.{meth}"
                rows_fn, hits_fn = METHOD_MEASURES.get(span, (None, None))
                setattr(cls, meth, self._wrap(fn, span, rows_fn, hits_fn))
                self._undo.append((cls, meth, fn))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo = []

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return {
            "name": name,
            "parent": parent,
            "trial": np.frombuffer(self.trial, dtype=np.int32),
            "dur": dur,
            "self": dur - child,
            "rows": np.frombuffer(self.rows, dtype=np.int64),
            "hits": np.frombuffer(self.hits, dtype=np.int64),
        }

    def summary(self):
        """Per span name: calls, top-level calls, total and self seconds, rows, hits.

        A top-level call is one whose parent span belongs to another group
        (class name, or function name), so a NeighborIndex query that calls
        another query counts once.
        """
        a = self.arrays()
        has_parent = a["parent"] >= 0
        parent_name = np.where(has_parent, a["name"][np.maximum(a["parent"], 0)], -1)
        group_of = np.array([n.split(".")[0] for n in self.names] + [""])
        group = group_of[a["name"]]
        parent_group = group_of[parent_name]  # -1 picks the empty group
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            top = sel & (parent_group != group)
            out[name] = {
                "calls": int(sel.sum()),
                "top_calls": int(top.sum()),
                "total_s": float(a["dur"][top].sum()),
                "self_s": float(a["self"][sel].sum()),
                "rows": int(a["rows"][sel].sum()),
                "top_rows": int(a["rows"][top].sum()),
                "hits": int(a["hits"][sel].sum()),
            }
        # draws by sample_free: points_valid calls made directly under it
        if "sample_free" in self._name_id and "points_valid" in self._name_id:
            under = (a["name"] == self._name_id["points_valid"]) & (
                parent_name == self._name_id["sample_free"])
            out["sample_free"]["draws"] = int(under.sum())
        return out

    def write(self, path):
        """Write every span to a compressed .npz file (names in span_names)."""
        a = self.arrays()
        np.savez_compressed(
            path, span_names=np.array(self.names), name=a["name"],
            parent=a["parent"], trial=a["trial"],
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            rows=a["rows"], hits=a["hits"],
        )
