#!/usr/bin/env python3
"""Rewrite every `expected` in tests/data/goldens.json from the current build.

    python3 scripts/record_goldens.py
    git diff tests/data/goldens.json

It takes no options. Each case's inputs (planner, scenario, goal_radius,
seed, n, params, checkpoints) stay as written; only its `expected` is
replaced, with the values that `tests/test_goldens.py` compares. To add a
case, write its inputs into the table and run this script. Keys are sorted
and every field sits on its own line, so `git diff` shows each moved value.
"""

from __future__ import annotations

import argparse
import json

from output_digest import REPO, expected, run_case

GOLDENS = REPO / "tests" / "data" / "goldens.json"


def _obj(d: dict, pad: str, render) -> str:
    """d as a JSON object with one key per line; render(key, value, pad) gives each value."""
    inner = pad + " "
    rows = [f"{inner}{json.dumps(k)}: {render(k, d[k], inner)}" for k in sorted(d)]
    return "{\n" + ",\n".join(rows) + "\n" + pad + "}"


def _field(key, value, pad) -> str:
    if key == "expected":
        return _obj(value, pad, lambda k, v, p: json.dumps(v, sort_keys=True))
    return json.dumps(value, sort_keys=True)


def dumps(table: dict) -> str:
    return _obj(table, "", lambda name, case, pad: _obj(case, pad, _field)) + "\n"


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    table = json.loads(GOLDENS.read_text())
    for name in sorted(table):
        table[name]["expected"] = expected(run_case(table[name]))
        print(name, flush=True)
    GOLDENS.write_text(dumps(table))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
