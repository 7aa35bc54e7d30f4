"""aoplan's benchmark: seeded planner workloads, verified, with a traced run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload tree-box --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads and metrics are listed in BENCHMARK.json; perfbench/README.md
says what each one measures. The workload runs in a fresh child process
with BLAS pinned to one thread, after a few set-up probes in their own
processes. The report goes to stdout; its last line is one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced re-run.
--workload all runs every workload in turn, each with its own report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
PROBES = 4          # set-up probes besides the worker's own set-up
TIME_LIMIT = 170.0  # seconds for the whole run, children included
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def git_rev(root):
    """Commit of the checkout read from .git, or 'unknown' outside a repository."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def child(args, deadline):
    """Run the worker with args; its last stdout line parsed as JSON."""
    env = dict(os.environ)
    env.update({k: "1" for k in PINNED})
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for the next child process")
    proc = subprocess.run([sys.executable, WORKER, "--root", ROOT] + args, env=env,
                          stdout=subprocess.PIPE, timeout=remaining, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(spec, workload, seed, seconds, trace):
    """Run one workload and print its report; the exit code for it."""
    deadline = time.monotonic() + TIME_LIMIT
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    try:
        probes = [child(common + ["--probe"], deadline)["setup_s"] for _ in range(PROBES)]
        res = child(common + ["--trace", str(trace)], deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError,
            IndexError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    setups = probes + [res["setup_s"]]
    e2e = dict(res["end_to_end"])
    e2e["setup_s"] = (statistics.median(setups), "s", len(setups))
    records = res["records"]
    failed = [r for r in records if r["status"] in ("raised", "invalid")]

    print(f"workload {workload}  seed {seed}  trials {res['trials']}  trace {trace}")
    print(f"python {platform.python_version()}  numpy {res['numpy']}  "
          f"nproc {os.cpu_count()}  git {git_rev(ROOT)}")
    for r in failed:
        print(f"FAILED trial {r['trial']} seed {r['seed']} {r['planner']}: "
              f"{r['status']}: {r['reason']}")
    print("end-to-end (untraced):")
    for name, (value, unit, samples) in sorted(e2e.items()):
        print(f"  {name:<24} {value:14.6g} {unit:<8} n={samples}")

    if trace:
        print(f"per-layer (traced, {res['spans']} spans):")
        for name, (value, unit) in sorted(res["per_layer"].items()):
            print(f"  {name:<36} {value:14.6g} {unit}")
        if res["missing"]:
            print("missing public names: " + ", ".join(res["missing"]))
        listed = spec["per_layer"]
        source = res["per_layer"]
    else:
        listed = spec["end_to_end"]
        source = e2e
    metrics = {}
    for m in listed:
        if m["name"] in source:
            metrics[m["name"]] = {"value": source[m["name"]][0], "unit": m["unit"]}
        else:
            print(f"missing metric: {m['name']}")
    for problem in res["problems"]:
        print(f"PROBLEM: {problem}")

    print(json.dumps({"correct": res["correct"], "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if res["correct"] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "aoplan", "__init__.py")):
        print(f"error: no aoplan sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        codes = [run_workload(spec, w, args.seed, args.seconds, args.trace) for w in names]
        return max(codes)
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_workload(spec, args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
