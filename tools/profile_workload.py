"""Where one iteration of an end-to-end workload spends its time.

Generates the workload's inputs through ``benchmarks/e2e/workloads.py``
(imported, never edited), runs one warm-up and one cProfile'd
``run_iteration`` and prints the top N functions under ``src/`` by self
time, each with the callers that account for it.  cProfile charges every
Python call and no native work, so read the table for *where*, then
measure *how much* with ``benchmarks/e2e/run.py``.

Run: ``PYTHONPATH=src python tools/profile_workload.py tpch_scan --top 15``
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src") + os.sep
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "benchmarks", "e2e"))

from workloads import WORKLOADS, run_iteration  # noqa: E402


def _label(func: tuple) -> str:
    path, line, name = func
    if path.startswith(SRC):
        path = path[len(SRC):]
    return f"{path}:{line}({name})"


def report(stats: pstats.Stats, top: int, n_callers: int = 3) -> list[str]:
    """Top ``top`` functions under ``src/`` by self time, callers indented."""
    rows = [(func, row) for func, row in stats.stats.items()
            if func[0].startswith(SRC)]
    rows.sort(key=lambda item: item[1][2], reverse=True)
    lines = [f"{'self s':>8} {'cum s':>8} {'calls':>8}  function"]
    for func, (_, n_calls, self_s, cum_s, callers) in rows[:top]:
        lines.append(f"{self_s:8.3f} {cum_s:8.3f} {n_calls:8d}  {_label(func)}")
        ranked = sorted(callers.items(), key=lambda item: item[1][2],
                        reverse=True)
        for caller, (_, n_from, self_from, _) in ranked[:n_callers]:
            lines.append(f"{'':26}  <- {self_from:.3f} s / {n_from} calls"
                         f" from {_label(caller)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--top", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every row count (CI uses 0.05)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.generate(args.seed, args.scale)
    run_iteration(workload, inputs)
    profiler = cProfile.Profile()
    profiler.enable()
    iteration = run_iteration(workload, inputs)
    profiler.disable()
    stats = pstats.Stats(profiler)
    print(f"{args.workload} seed={args.seed} scale={args.scale}: "
          f"wall_s={iteration.wall_s:.3f} under cProfile "
          f"({stats.total_tt:.3f} s profiled in all)")
    print("\n".join(report(stats, args.top)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
