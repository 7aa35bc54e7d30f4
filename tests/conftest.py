import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from aoplan import scenario_from_dict

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
DATA_DIR = Path(__file__).resolve().parent / "data"

OPT_EMPTY = 0.8 * np.sqrt(2.0)
OPT_BOX = 2.0 * np.sqrt(0.3 ** 2 + 0.1 ** 2) + 0.2


def load_output_digest():
    """scripts/output_digest.py as a module."""
    path = SCENARIO_DIR.parent / "scripts" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_fixture_scenario(name):
    return scenario_from_dict(json.loads((SCENARIO_DIR / name).read_text()))


@pytest.fixture(scope="session")
def empty_square():
    return load_fixture_scenario("empty_square.json")


@pytest.fixture(scope="session")
def box_square():
    return load_fixture_scenario("box_square.json")


@pytest.fixture(scope="session")
def kino_square():
    return load_fixture_scenario("kino_square.json")


@pytest.fixture(scope="session")
def swap_scenario():
    return load_fixture_scenario("two_robot_swap.json")


def pocket_scenario():
    """Free space is a small pocket around the start; the goal is walled off."""
    return scenario_from_dict({
        "dimension": 2,
        "domain": {"min": [0, 0], "max": [1, 1]},
        "obstacles": [
            {"type": "box", "min": [0.0, 0.35], "max": [1.0, 1.0]},
            {"type": "box", "min": [0.35, 0.0], "max": [1.0, 0.35]},
        ],
        "start": [0.15, 0.15],
        "goal": {"center": [0.9, 0.9], "radius": 0.02},
    })
