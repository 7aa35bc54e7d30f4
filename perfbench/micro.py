"""Layer micro-costs: direct calls to public functions at fixed sizes.

Inputs come from the run's seed. Each figure is the median, over a few
repetitions, of the mean time per call (or per row) of one repetition.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REPEATS = 5


def _per_call(fn, args_list, repeats=REPEATS):
    """Median over repetitions of the mean seconds per call of fn(*args)."""
    means = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for args in args_list:
            fn(*args)
        means.append((time.perf_counter() - t0) / len(args_list))
    return statistics.median(means)


def _uniform(rng, scenario, m):
    dom = scenario.domain
    return dom.lo + rng.random((m, scenario.dimension)) * dom.widths


def _segments(rng, scenario, m):
    """m segments one steering step (0.1 of the diagonal) long, clipped to the domain."""
    a = _uniform(rng, scenario, m)
    ang = rng.random(m) * 2.0 * np.pi
    step = 0.1 * scenario.diagonal * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    b = np.clip(a + step, scenario.domain.lo, scenario.domain.hi)
    return a, b


def measure(aoplan, box, seed):
    """Micro-cost metrics on the box scenario, by name: (value, unit).

    A figure whose public function no longer exists is left out (missing),
    never reported as 0.
    """
    rng = np.random.default_rng(seed)
    rho = box.default_resolution()
    stream = aoplan.UniformStream(box.dimension, seed)
    queries = [(q,) for q in _uniform(rng, box, 200)]
    indexes = {}

    def index(n):
        if n not in indexes:
            indexes[n] = aoplan.NeighborIndex(box.dimension)
            for i, q in enumerate(_uniform(rng, box, n)):
                indexes[n].insert(i, q)
        return indexes[n]

    def radius():
        r = aoplan.connection_radius(aoplan.default_rule("prm_star", box), 16000)
        return _per_call(lambda q: index(16000).within_radius(q, r), queries)

    def edge_single():
        a, b = _segments(rng, box, 200)
        return _per_call(lambda p, q: aoplan.edge_valid(box, p, q, rho), list(zip(a, b)))

    def edge_batch():
        a, b = _segments(rng, box, 1000)
        return _per_call(aoplan.segments_valid, [(box, a, b, rho)], repeats=9) / 1000

    def point():
        return _per_call(aoplan.points_valid, [(box, p[None, :]) for p in _uniform(rng, box, 2000)])

    def sample():
        return _per_call(aoplan.sample_free, [(stream, box, 10_000)] * 2000)

    def propagate():
        system = aoplan.single_integrator_2d()
        return _per_call(aoplan.monte_carlo_propagate,
                         [(system, s, stream) for s in _uniform(rng, box, 2000)])

    def astar():
        roadmap = aoplan.prm_star(box, stream, 4000).roadmap
        return _per_call(aoplan.shortest_path, [(roadmap,)])

    plan = [
        ("nn.nearest_us.n1000", "us", 1e6, lambda: _per_call(index(1000).nearest_id, queries)),
        ("nn.nearest_us.n4000", "us", 1e6, lambda: _per_call(index(4000).nearest_id, queries)),
        ("nn.nearest_us.n16000", "us", 1e6, lambda: _per_call(index(16000).nearest_id, queries)),
        ("nn.radius_us.n16000", "us", 1e6, radius),
        ("geometry.edge_us.single", "us", 1e6, edge_single),
        ("geometry.edge_us_per_row.batch1000", "us", 1e6, edge_batch),
        ("geometry.point_us", "us", 1e6, point),
        ("sampling.sample_free_us", "us", 1e6, sample),
        ("kinodynamic.propagate_us", "us", 1e6, propagate),
        ("geometric.astar_ms.n4000", "ms", 1e3, astar),
    ]
    out = {}
    for name, unit, scale, thunk in plan:
        try:
            out[name] = (scale * thunk(), unit)
        except AttributeError:
            continue
    return out
