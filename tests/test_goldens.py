"""Every planner golden, in one table checked by one equality per case.

tests/data/goldens.json holds each case's inputs and the outputs recorded
from an earlier build; `scripts/record_goldens.py` rewrites the outputs.
"""

import json
import os
import subprocess
import sys

import pytest

from conftest import DATA_DIR, load_output_digest

digest = load_output_digest()
GOLDENS = json.loads((DATA_DIR / "goldens.json").read_text())

# the cases whose outputs once followed the CPU's BLAS dot kernel
KERNEL_CASES = ["drrt-star-two_robot_swap-1", "drrt-star-two_robot_swap-5",
                "drrt-star-two_robot_swap-9", "rrt-box_square-21"]
KERNEL_PROBE = f"""
import importlib.util, json
spec = importlib.util.spec_from_file_location("output_digest", {digest.__file__!r})
digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digest)
table = json.loads(open({str(DATA_DIR / "goldens.json")!r}).read())
print(json.dumps({{"cases": {{name: digest.expected(digest.run_case(table[name]))
                              for name in {KERNEL_CASES!r}}},
                  "swap": digest.trial_digest("swap", 1)}}))
"""
# pinned to one CPU, so the two halves of each neighbour sweep share it
PINNED_PROBE = f"""
import importlib.util, json, os
os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
spec = importlib.util.spec_from_file_location("output_digest", {digest.__file__!r})
digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digest)
print(json.dumps({{w: digest.trial_digest(w, 1) for w in ("roadmap-box", "swap")}}))
"""


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden(name):
    case = GOLDENS[name]
    assert digest.expected(digest.run_case(case)) == case["expected"]


def test_every_workload_run_has_a_case():
    cases = [(c["scenario"], c.get("goal_radius"), c["planner"], c["params"])
             for c in GOLDENS.values()]
    for name, spec in digest.load_workloads().WORKLOADS.items():
        for planner, _, params, _ in spec["runs"]:
            assert (spec["scenario"], spec.get("goal_radius"), planner, params) in cases, name


def test_outputs_do_not_depend_on_the_blas_kernel():
    # OPENBLAS_CORETYPE picks OpenBLAS's kernel for the one child process
    procs = {core: subprocess.Popen([sys.executable, "-c", KERNEL_PROBE], text=True,
                                    stdout=subprocess.PIPE,
                                    env={**os.environ, "OPENBLAS_CORETYPE": core})
             for core in ("Haswell", "Prescott")}
    # and one child on numpy's pre-AVX2 SIMD kernels, with its thread schedule
    # changed by running on one CPU
    pinned = subprocess.Popen([sys.executable, "-c", PINNED_PROBE], text=True,
                              stdout=subprocess.PIPE,
                              env={**os.environ, "NPY_DISABLE_CPU_FEATURES":
                                   "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"})
    want = {"cases": {name: GOLDENS[name]["expected"] for name in KERNEL_CASES},
            "swap": digest.trial_digest("swap", 1)}
    for core, proc in procs.items():
        out, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0, core
        assert json.loads(out) == want, core
    out, _ = pinned.communicate(timeout=300)
    assert pinned.returncode == 0
    assert json.loads(out) == {"roadmap-box": digest.trial_digest("roadmap-box", 1),
                               "swap": want["swap"]}
