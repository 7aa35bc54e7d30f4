"""Sample streams and the brute-force dispersion meter.

Two stream kinds: seeded uniform draws over a box, and the seedless Halton
sequence (radical inverse with the first d primes, index starting at 1).
Streams are single-owner and stateful; concurrent trials must each own a
stream derived from (base_seed, trial_index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SaturationError, UsageError, _whole
from .geometry import Box, Scenario, _check_margin, _point_free, points_valid
from .nn import _root_sum_squares


def first_primes(k: int) -> list:
    """The first k primes, by trial division (k is tiny here)."""
    primes = []
    n = 2
    while len(primes) < k:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 1
    return primes


def radical_inverse(base: int, index: int) -> float:
    f = 1.0
    r = 0.0
    while index > 0:
        f /= base
        r += f * (index % base)
        index //= base
    return r


class UniformStream:
    """I.i.d. uniform sampling over a box; equal seeds emit equal sequences.

    Draws are served from blocks of the generator's doubles, which are the
    ones that scalar draws would emit, so a point coordinate is
    lo + u * (hi - lo) with the same u and the same two roundings.
    """

    kind = "uniform"
    _BLOCK = 1024

    def __init__(self, dimension: int, seed: int):
        self.dimension = int(dimension)
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self._draws = []  # the next draws, last one first

    def next_point(self, domain: Box) -> np.ndarray:
        lo, hi = domain._bounds
        if len(lo) != self.dimension:
            raise UsageError("stream dimension does not match the domain")
        return np.array([l + self.next_uniform01() * (h - l) for l, h in zip(lo, hi)])

    def next_points(self, domain: Box, k: int) -> np.ndarray:
        """The (k, d) array of k next_point calls: the same doubles, the same state after."""
        if domain.dimension != self.dimension:
            raise UsageError("stream dimension does not match the domain")
        u = [self.next_uniform01() for _ in range(k * self.dimension)]
        return domain.lo + np.array(u, dtype=float).reshape(-1, self.dimension) * domain.widths

    def next_uniform01(self) -> float:
        if not self._draws:
            self._draws = self._rng.random(self._BLOCK).tolist()[::-1]
        return self._draws.pop()


class HaltonStream:
    """Deterministic low-dispersion Halton points, one base per coordinate.

    Scalar draws (goal biasing and the like) come from an extra radical
    inverse channel on the next prime so they never perturb the point
    sequence.
    """

    kind = "halton"

    def __init__(self, dimension: int, start_index: int = 1):
        if start_index < 1:
            raise UsageError("halton start_index must be >= 1")
        self.dimension = int(dimension)
        primes = first_primes(dimension + 1)
        self.bases = primes[:dimension]
        self._scalar_base = primes[dimension]
        self.index = int(start_index)
        self._scalar_index = int(start_index)

    def next_point(self, domain: Box) -> np.ndarray:
        return self.next_points(domain, 1)[0]

    def next_points(self, domain: Box, k: int) -> np.ndarray:
        """The (k, d) array of k next_point calls: point i has index self.index + i."""
        if domain.dimension != self.dimension:
            raise UsageError("stream dimension does not match the domain")
        unit = np.array([radical_inverse(b, i) for i in range(self.index, self.index + k)
                         for b in self.bases], dtype=float).reshape(-1, self.dimension)
        self.index += len(unit)
        return domain.lo + unit * domain.widths

    def next_uniform01(self) -> float:
        v = radical_inverse(self._scalar_base, self._scalar_index)
        self._scalar_index += 1
        return v


def make_stream(dimension: int, sampler: str = "uniform", seed: int = 0):
    if dimension < 1:
        raise UsageError("stream dimension must be >= 1")
    if sampler == "uniform":
        return UniformStream(dimension, seed)
    if sampler == "halton":
        return HaltonStream(dimension)
    raise UsageError(f"unknown sampler {sampler!r}")


def sample_free(stream, scenario: Scenario, max_attempts: int,
                margin: float = 0.0) -> np.ndarray:
    """First emitted sample that is valid; SaturationError when the budget runs out."""
    _check_margin(margin)
    if _whole(max_attempts) < 1:
        raise UsageError("max_attempts must be >= 1")
    bounds = scenario._bounds
    for _ in range(int(max_attempts)):
        q = stream.next_point(scenario.domain)
        if _point_free(bounds, q.tolist(), margin):
            return q
    raise SaturationError(
        f"no valid sample in {max_attempts} attempts; space looks heavily obstructed"
    )


def samples_free(stream, scenario: Scenario, n: int, max_attempts: int,
                 margin: float = 0.0) -> np.ndarray:
    """The (n, d) array of the samples that n sample_free calls return.

    Each round draws exactly the samples still needed, checked by one
    points_valid call, so it draws no candidate the sequential calls would
    not; the run of rejections carries across rounds.  After a
    SaturationError the stream's state is unspecified.
    """
    _check_margin(margin)
    if _whole(max_attempts) < 1:
        raise UsageError("max_attempts must be >= 1")
    blocks, run = [np.empty((0, scenario.dimension))], 0  # run: rejections since a valid one
    while n > 0:
        pts = stream.next_points(scenario.domain, n)
        valid = np.flatnonzero(points_valid(scenario, pts, margin))
        runs = np.diff(valid, prepend=-1 - run, append=n) - 1  # rejections before, between, after
        if runs.max() >= max_attempts:
            raise SaturationError(f"no valid sample in {max_attempts} attempts")
        blocks.append(pts[valid])
        run, n = int(runs[-1]), n - valid.size
    return np.concatenate(blocks)


@dataclass(frozen=True)
class DispersionReport:
    n: int
    dispersion: float
    grid_resolution: float

    def csv_line(self) -> str:
        return f"{self.n},{self.dispersion!r},{self.grid_resolution!r}"


def measure_dispersion(samples, domain: Box, grid_resolution: float) -> DispersionReport:
    """Radius of the largest sample-free ball, brute-forced on a grid.

    Exact up to the grid resolution: the true dispersion differs from the
    reported max-min distance by at most half the grid diagonal.
    """
    pts = np.atleast_2d(np.asarray(samples, dtype=float))
    if pts.shape[0] == 0 or pts.shape[1] != domain.dimension:
        raise UsageError("measure_dispersion needs samples of the domain dimension")
    if not grid_resolution > 0.0:
        raise UsageError("grid_resolution must be > 0")
    axes = [
        np.linspace(lo, hi, max(2, int(math.ceil((hi - lo) / grid_resolution)) + 1))
        for lo, hi in zip(domain.lo, domain.hi)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    worst = 0.0
    # chunk the grid so each (chunk, n) distance block stays near 1e6 entries
    chunk = max(1, 1_000_000 // pts.shape[0])
    for lo in range(0, grid.shape[0], chunk):
        block = grid[lo:lo + chunk]
        dists = _root_sum_squares(block[:, c, None] - pts[:, c] for c in range(pts.shape[1]))
        worst = max(worst, float(dists.min(axis=1).max()))
    return DispersionReport(
        n=pts.shape[0], dispersion=worst, grid_resolution=float(grid_resolution)
    )
