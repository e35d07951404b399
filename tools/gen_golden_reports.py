#!/usr/bin/env python
"""Regenerate the engine golden reports.

Run from the repo root with the *reference* engine checked out:

    PYTHONPATH=src python tools/gen_golden_reports.py

Writes ``tests/core/goldens/engine_reports.json``: one fully-expanded
``SimReport``/``RunReport`` dump per scenario (tier-1 workloads x
serial/parallel x fault-free/chaos/memory-squeeze).  The service-plane
golden test (``tests/core/test_service_plane.py``) replays the same
scenarios and asserts bit-identical numbers, so only regenerate this
file when a PR *intentionally* changes simulated accounting — and say
so in the PR description.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from tests.core.golden_harness import (  # noqa: E402
    GOLDEN_PATH,
    check_fires,
    run_scenario,
    scenarios,
)


def main() -> None:
    goldens: dict[str, dict] = {}
    for name, spec in scenarios():
        print(f"running {name} ...", flush=True)
        goldens[name] = run_scenario(spec)
        check_fires(name, goldens[name])
    path = os.path.join(os.path.dirname(__file__), "..", GOLDEN_PATH)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(goldens, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(goldens)} scenarios to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
