#!/usr/bin/env python
"""Regenerate the engine golden reports.

Run from the repo root with the *reference* engine checked out:

    PYTHONPATH=src python tools/gen_golden_reports.py
    PYTHONPATH=src python tools/gen_golden_reports.py --check

Writes ``tests/core/goldens/engine_reports.json``: one fully-expanded
``SimReport``/``RunReport`` dump per scenario (tier-1 workloads x
serial/parallel x fault-free/chaos/memory-squeeze).  The service-plane
golden test (``tests/core/test_service_plane.py``) replays the same
scenarios and asserts bit-identical numbers, so only regenerate this
file when a PR *intentionally* changes simulated accounting — and say
so in the PR description.  ``--check`` regenerates in memory, prints the
scenarios whose dump differs from the committed file, writes nothing
and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
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


def render(goldens: dict[str, dict]) -> str:
    return json.dumps(goldens, indent=1, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="diff against the committed file instead of "
                             "writing it; exit 1 on a difference")
    args = parser.parse_args(argv)
    goldens: dict[str, dict] = {}
    for name, spec in scenarios():
        print(f"running {name} ...", flush=True)
        goldens[name] = run_scenario(spec)
        check_fires(name, goldens[name])
    path = os.path.join(os.path.dirname(__file__), "..", GOLDEN_PATH)
    if args.check:
        with open(path) as f:
            committed = f.read()
        if render(goldens) == committed:
            print(f"{len(goldens)} scenarios match {GOLDEN_PATH}")
            return 0
        old = json.loads(committed)
        for name in sorted(set(old) | set(goldens)):
            if render(old.get(name, {})) != render(goldens.get(name, {})):
                print(f"differs: {name}")
        print(f"FAIL: regenerated reports differ from {GOLDEN_PATH}")
        return 1
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(render(goldens))
    print(f"wrote {len(goldens)} scenarios to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
