"""Acceptance suite: one test per criterion, one printed verdict line each.

Heavy benchmark runs are shared through module-scoped fixtures; every
tolerance is pinned here, not computed at runtime.
"""

import json
import math
import sys
import time

import mpmath as mp
import numpy as np
import pytest

from aoplan import (
    CompositeConfig,
    HaltonStream,
    NeighborIndex,
    RadiusRule,
    RunSpec,
    UniformStream,
    ao_rrt_plan,
    composite_edge_valid,
    connection_radius,
    drrt_star,
    k_connection,
    knn_lists,
    measure_dispersion,
    path_clearance,
    radius_pairs,
    refine_path,
    rgg_connectivity_radius,
    rows_to_csv,
    run_benchmark,
    run_planner,
    rrt_star,
    shortest_path,
    single_integrator_2d,
    sst_plan,
    tiling_cover_check,
)
from aoplan.geometry import Box

from conftest import (
    DATA_DIR,
    OPT_BOX,
    OPT_EMPTY,
    SCENARIO_DIR,
    load_fixture_scenario,
)

mp.mp.dps = 50

EMPTY_PATH = str(SCENARIO_DIR / "empty_square.json")
BOX_PATH = str(SCENARIO_DIR / "box_square.json")
KINO_PATH = str(SCENARIO_DIR / "kino_square.json")
SWAP_PATH = str(SCENARIO_DIR / "two_robot_swap.json")

TRIALS = 20
WORKERS = 2


def verdict(cid, ok, detail):
    # write past pytest's capture so the verdict lines land in plain
    # `pytest -v` logs as well
    line = f"\nACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} ({detail})\n"
    sys.__stdout__.write(line)
    sys.__stdout__.flush()
    assert ok, f"{cid} failed: {detail}"


def median_at(rows, n):
    costs = [r.best_cost for r in rows if r.checkpoint_n == n and r.success]
    return float(np.median(costs)) if costs else None


def per_trial_sequences(rows):
    by_seed = {}
    for r in rows:
        by_seed.setdefault(r.seed, []).append(r)
    for seq in by_seed.values():
        seq.sort(key=lambda r: r.checkpoint_n)
    return by_seed


def count_monotonicity_violations(rows):
    bad = 0
    for seq in per_trial_sequences(rows).values():
        defined = [r.best_cost for r in seq if r.success]
        bad += sum(1 for a, b in zip(defined, defined[1:]) if b > a + 1e-12)
    return bad


@pytest.fixture(scope="module")
def kinematic_rows():
    out = {}
    t0 = time.perf_counter()
    for planner in ("prm-star", "k-prm-star", "rrt-star"):
        spec = RunSpec(scenario_path=EMPTY_PATH, planner=planner, params={},
                       trials=TRIALS, base_seed=2024, checkpoints=(1000, 4000))
        out[planner] = run_benchmark(spec, workers=WORKERS)
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def box_rows():
    t0 = time.perf_counter()
    spec = RunSpec(scenario_path=BOX_PATH, planner="rrt-star", params={},
                   trials=TRIALS, base_seed=909, checkpoints=(2000, 8000))
    rows = run_benchmark(spec, workers=WORKERS)
    return {"rows": rows, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def sst_rows():
    spec = RunSpec(scenario_path=KINO_PATH, planner="sst", params={},
                   trials=TRIALS, base_seed=515, checkpoints=(5000, 20000))
    return run_benchmark(spec, workers=WORKERS)


@pytest.fixture(scope="module")
def ao_rrt_rows():
    spec = RunSpec(scenario_path=KINO_PATH, planner="ao-rrt", params={},
                   trials=TRIALS, base_seed=626, checkpoints=(10000, 30000))
    return run_benchmark(spec, workers=WORKERS)


@pytest.fixture(scope="module")
def ao_meta_rows():
    spec = RunSpec(scenario_path=KINO_PATH, planner="ao-meta",
                   params={"rounds": 4, "budget": 2500, "beta": 0.1},
                   trials=8, base_seed=737, checkpoints=(2500, 5000, 7500, 10000))
    return run_benchmark(spec, workers=WORKERS)


def test_criterion_1_radius_formula_goldens():
    t0 = time.perf_counter()

    def zeta(d):
        return mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2 + 1)

    ref_prm = float(2 * mp.mpf(1.5) ** mp.mpf("0.5") * (1 / zeta(2)) ** mp.mpf("0.5")
                    * (mp.log(1000) / 1000) ** mp.mpf("0.5"))
    ref_fmt = float(2 * mp.mpf(0.5) ** mp.mpf("0.5") * (1 / zeta(2)) ** mp.mpf("0.5")
                    * (mp.log(1000) / 1000) ** mp.mpf("0.5"))
    ref_rgg = float((1 / zeta(2)) ** mp.mpf("0.5") * (mp.log(1000) / 1000) ** mp.mpf("0.5"))
    ref_k = int(mp.floor(mp.e * mp.mpf(1.5) * mp.log(1000))) + 1

    got_prm = connection_radius(RadiusRule("prm_star", 2, 1.0, safety_factor=1.0), 1000)
    got_fmt = connection_radius(
        RadiusRule("fmt_star_constant", 2, 1.0, safety_factor=1.0), 1000)
    got_rgg = rgg_connectivity_radius(2, 1000)
    got_k = k_connection(2, 1000)

    elapsed = time.perf_counter() - t0
    errs = (abs(got_prm - ref_prm), abs(got_fmt - ref_fmt), abs(got_rgg - ref_rgg))
    ok = max(errs) < 1e-9 and got_k == ref_k == 29 and elapsed < 1.0
    verdict("C1 radius-goldens",
            ok, f"prm={got_prm:.10f} fmt={got_fmt:.10f} rgg={got_rgg:.10f} "
                f"k={got_k} max_err={max(errs):.2e} in {elapsed:.3f}s")


def test_criterion_2_mu_homogeneity():
    worst = 0.0
    for d in (2, 3, 6):
        base = connection_radius(RadiusRule("prm_star", d, 1.0, safety_factor=1.0), 4000)
        dbl = connection_radius(
            RadiusRule("prm_star", d, float(2 ** d), safety_factor=1.0), 4000)
        worst = max(worst, abs(dbl - 2.0 * base) / (2.0 * base))
    verdict("C2 homogeneity", worst < 1e-12, f"max rel err {worst:.2e}")


def test_criterion_3_nn_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    pts = rng.random((1000, 2))
    idx = NeighborIndex(2)
    items = []
    for i, p in enumerate(pts):
        idx.insert(i, p)
        items.append((i, tuple(p)))

    def scored(q):
        """Every point's (distance, id) from q, sorted once and reused per k and radius."""
        return sorted(
            (math.sqrt((px - q[0]) ** 2 + (py - q[1]) ** 2), pid)
            for pid, (px, py) in items
        )

    def oracle(ranked, k=None, radius=None):
        if radius is not None:  # a ball query returns ids ascending
            return sorted(pid for d, pid in ranked if d <= radius)
        return [pid for _, pid in ranked[:k]]

    mismatches = 0
    for q in rng.random((100, 2)):
        ranked = scored(tuple(q))
        for k in (1, 8, 32):
            if idx.k_nearest(q, k)[0].tolist() != oracle(ranked, k=k):
                mismatches += 1
        for r in (0.05, 0.2):
            if idx.within_radius(q, r)[0].tolist() != oracle(ranked, radius=r):
                mismatches += 1
    # the batch sweeps answer for all 1000 points at once
    def rows_of(src, dst):
        rows = [[] for _ in items]
        for v, u in zip(src.tolist(), dst.tolist()):
            rows[v].append(u)
        return rows

    ranked = [scored(p) for _, p in items]
    for r in (0.05, 0.2):
        for v, row in enumerate(rows_of(*radius_pairs(pts, r))):
            # a radius row's pairs come in no set order
            if sorted(row) != sorted(u for u in oracle(ranked[v], radius=r) if u > v):
                mismatches += 1
    for k in (8, 32):
        for v, row in enumerate(rows_of(*knn_lists(pts, k))):
            if row != [u for u in oracle(ranked[v], k=k + 1) if u != v][:k]:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    verdict("C3 nn-oracle", mismatches == 0 and elapsed < 5.0,
            f"{mismatches} mismatches over 500 queries and 4 x 1000 sweep rows "
            f"in {elapsed:.2f}s")


def test_criterion_4_kinematic_convergence(kinematic_rows):
    details = []
    ok = kinematic_rows["elapsed"] < 120.0
    for planner in ("prm-star", "k-prm-star", "rrt-star"):
        rows = kinematic_rows[planner]
        med1 = median_at(rows, 1000)
        med4 = median_at(rows, 4000)
        rel = abs(med4 - OPT_EMPTY) / OPT_EMPTY
        ok = ok and rel <= 0.03 and med4 <= med1 + 1e-12
        details.append(f"{planner}: med4000={med4:.4f} rel={rel * 100:.2f}% "
                       f"med1000={med1:.4f}")
    details.append(f"elapsed={kinematic_rows['elapsed']:.1f}s")
    verdict("C4 kinematic-convergence", ok, "; ".join(details))


def test_criterion_5_obstacle_convergence(box_rows):
    med = median_at(box_rows["rows"], 8000)
    rel = abs(med - OPT_BOX) / OPT_BOX
    ok = rel <= 0.05 and box_rows["elapsed"] < 120.0
    verdict("C5 obstacle-convergence", ok,
            f"median={med:.4f} rel={rel * 100:.2f}% vs oracle {OPT_BOX:.7f} "
            f"elapsed={box_rows['elapsed']:.1f}s")


def test_criterion_6_anytime_monotonicity(kinematic_rows, box_rows, sst_rows,
                                          ao_rrt_rows, ao_meta_rows):
    pools = {
        "rrt-star(empty)": kinematic_rows["rrt-star"],
        "rrt-star(box)": box_rows["rows"],
        "sst": sst_rows,
        "ao-rrt": ao_rrt_rows,
        "ao-meta": ao_meta_rows,
    }
    bad = {name: count_monotonicity_violations(rows) for name, rows in pools.items()}
    total = sum(bad.values())
    verdict("C6 anytime-monotonicity", total == 0,
            f"violations by planner: {bad}")


def test_criterion_7_structural_audits():
    empty = load_fixture_scenario("empty_square.json")
    kino = load_fixture_scenario("kino_square.json")
    swap = load_fixture_scenario("two_robot_swap.json")
    system = single_integrator_2d()
    failures = []
    try:
        rrt_star(empty, UniformStream(2, 3), 3000, eta=0.15, audit_every=500)
    except Exception as exc:  # noqa: BLE001
        failures.append(f"rrt_star: {exc}")
    try:
        sst_plan(kino, system, UniformStream(2, 4), 6000, audit_every=500)
    except Exception as exc:
        failures.append(f"sst: {exc}")
    try:
        ao_rrt_plan(kino, system, UniformStream(2, 5), 6000, audit_every=500)
    except Exception as exc:
        failures.append(f"ao_rrt: {exc}")
    try:
        drrt_star(swap, None, UniformStream(2, 6), 150, 2000, audit_every=500)
    except Exception as exc:
        failures.append(f"drrt_star: {exc}")
    verdict("C7 structural-audits", not failures,
            "zero violations" if not failures else "; ".join(failures))


def test_criterion_8_deterministic_dispersion():
    doc = json.loads((DATA_DIR / "halton_dispersion_2d.json").read_text())
    frozen = {e["n"]: e["dispersion"] for e in doc["entries"]}
    grid = doc["entries"][0]["grid_resolution"]
    domain = Box(lo=np.zeros(2), hi=np.ones(2))
    stream = HaltonStream(2)
    pts = [stream.next_point(domain) for _ in range(1024)]
    measured = {
        n: measure_dispersion(pts[:n], domain, grid).dispersion
        for n in (64, 256, 1024)
    }
    match = all(abs(measured[n] - frozen[n]) < 1e-9 for n in measured)
    decreasing = measured[64] > measured[256] > measured[1024]
    r1 = measured[256] / measured[64]
    r2 = measured[1024] / measured[256]
    ok = match and decreasing and r1 <= 0.75 and r2 <= 0.75
    verdict("C8 deterministic-dispersion", ok,
            f"D={measured} ratios=({r1:.3f},{r2:.3f}) fixture-match={match}")


def test_criterion_9_kinodynamic_convergence(sst_rows, ao_rrt_rows):
    details = []
    ok = True
    for name, rows, final_n in (("sst", sst_rows, 20000),
                                ("ao-rrt", ao_rrt_rows, 30000)):
        finals = [r for r in rows if r.checkpoint_n == final_n]
        rate = sum(1 for r in finals if r.success) / len(finals)
        med = median_at(rows, final_n)
        rel = abs(med - OPT_EMPTY) / OPT_EMPTY if med is not None else math.inf
        ok = ok and rate >= 0.8 and rel <= 0.25
        details.append(f"{name}: success={rate * 100:.0f}% median={med:.4f} "
                       f"rel={rel * 100:.1f}%")
    verdict("C9 kinodynamic-convergence", ok, "; ".join(details))


def test_criterion_10_tensor_roadmap_audits():
    swap = load_fixture_scenario("two_robot_swap.json")
    res = drrt_star(swap, None, UniformStream(2, 42), 500, 20000)
    ok = res.best_cost is not None
    violations = 0
    min_gap = math.inf
    if ok:
        tracks = res.path.per_robot
        radii = tuple(rb.radius for rb in swap.robots)
        for k in range(len(tracks[0]) - 1):
            a = CompositeConfig(
                per_robot=tuple(t[k] for t in tracks), robot_radii=radii)
            b = CompositeConfig(
                per_robot=tuple(t[k + 1] for t in tracks), robot_radii=radii)
            if not composite_edge_valid(swap, a, b, 1e-3):
                violations += 1
        # densely sampled pairwise separation audit
        for k in range(len(tracks[0]) - 1):
            a0, b0 = tracks[0][k], tracks[0][k + 1]
            a1, b1 = tracks[1][k], tracks[1][k + 1]
            ts = np.linspace(0.0, 1.0, 256)[:, None]
            gap = np.linalg.norm(
                (a0 + ts * (b0 - a0)) - (a1 + ts * (b1 - a1)), axis=1)
            min_gap = min(min_gap, float(gap.min()))
        ok = ok and violations == 0 and min_gap >= 0.1 - 1e-12

    single = {
        "dimension": 2, "domain": {"min": [0, 0], "max": [1, 1]}, "obstacles": [],
        "robots": [{"radius": 0.05, "start": [0.1, 0.1],
                    "goal": {"center": [0.9, 0.9], "radius": 0.05}}],
    }
    from aoplan import scenario_from_dict

    res1 = drrt_star(scenario_from_dict(single), None, UniformStream(2, 3), 200, 4000)
    ref = shortest_path(res1.roadmaps[0])
    gap1 = abs(res1.best_cost - ref.cost)
    ok = ok and gap1 <= 1e-9
    verdict("C10 tensor-roadmap-audits", ok,
            f"swap cost={res.best_cost} edge-violations={violations} "
            f"min-separation={min_gap:.4f}; r=1 |drrt - A*|={gap1:.2e}")


def test_criterion_11_benchmark_determinism(tmp_path):
    spec = RunSpec(scenario_path=EMPTY_PATH, planner="rrt-star",
                   params={"eta": 0.15}, trials=8, base_seed=99,
                   checkpoints=(200, 400))
    csvs = {
        "run1-w1": rows_to_csv(run_benchmark(spec, workers=1)),
        "run2-w1": rows_to_csv(run_benchmark(spec, workers=1)),
        "run1-w8": rows_to_csv(run_benchmark(spec, workers=8)),
        "run2-w8": rows_to_csv(run_benchmark(spec, workers=8)),
    }
    unique = len(set(csvs.values()))
    verdict("C11 determinism", unique == 1,
            f"{len(csvs)} executions, {unique} distinct CSV byte streams")


def measured_clearance(scenario, path, s0):
    """Lipschitz-certified lower bound on the clearance along the whole path.

    Clearance is 1-Lipschitz, so once the sampled minimum dominates twice
    the sampling spacing, (min - s/2) bounds the clearance of every curve
    point, not just the sampled ones.
    """
    s = s0
    for _ in range(12):
        c = path_clearance(scenario, path, s)
        if c <= 0.0:
            return 0.0
        if c >= 2.0 * s:
            return c - s / 2.0
        s /= 4.0
    return 0.0


def test_criterion_12_tiling_certification():
    empty = load_fixture_scenario("empty_square.json")
    box = load_fixture_scenario("box_square.json")
    checked = 0
    failed = 0
    for scenario in (empty, box):
        rho = scenario.default_resolution()
        for planner in ("prm-star", "k-prm-star", "rrt-star"):
            for seed in (1, 2):
                stream = UniformStream(2, seed)
                res = run_planner(scenario, planner, stream, 1500, {"eta": 0.12})
                if res.best_cost is None or len(res.path.waypoints) < 2:
                    continue
                clearance = measured_clearance(scenario, res.path, rho)
                if clearance <= 0:
                    failed += 1
                    continue
                radius = clearance / 2.0
                fine = refine_path(res.path, radius)
                checked += 1
                if not tiling_cover_check(scenario, fine, radius):
                    failed += 1
    verdict("C12 tiling-certification", failed == 0 and checked >= 10,
            f"{checked} solutions certified, {failed} failures")
