"""Every planner golden, in one table checked by one equality per case.

tests/data/goldens.json holds each case's inputs and the outputs recorded
from an earlier build; `scripts/record_goldens.py` rewrites the outputs.
"""

import json

import pytest

from conftest import DATA_DIR, load_output_digest

digest = load_output_digest()
GOLDENS = json.loads((DATA_DIR / "goldens.json").read_text())


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
