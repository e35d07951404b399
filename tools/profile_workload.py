"""Where one iteration of an end-to-end workload spends its time.

Generates the workload's inputs through ``benchmarks/e2e/workloads.py``
(imported, never edited), runs one warm-up and one cProfile'd
``run_iteration`` and prints the top N functions under ``src/`` by self
time, each with the callers that account for it.  cProfile charges every
Python call and no native work, so read the table for *where*, then
measure *how much* with ``benchmarks/e2e/run.py``.

``--ops`` answers a different question without reading a clock: per
operator class, how many kernel calls one iteration made against how many
distinct operator instances it made them on.  An instance that runs twice
in one fault-free ``execute()`` is re-done work, so the exit status is
non-zero when any class has calls > distinct (the ``bench-smoke`` CI job
runs this for ``tpch_join`` and ``groupby_shuffle``).

Run: ``PYTHONPATH=src python tools/profile_workload.py tpch_scan --top 15``
     ``PYTHONPATH=src python tools/profile_workload.py tpch_join --ops``
"""

from __future__ import annotations

import argparse
import cProfile
import itertools
import os
import pstats
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src") + os.sep
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "benchmarks", "e2e"))

from workloads import WORKLOADS, run_iteration  # noqa: E402

from repro.core.operator import Operator  # noqa: E402
from repro.core.opfusion import CompiledStep  # noqa: E402
from repro.core.session import Session  # noqa: E402


def _subclasses(cls: type):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@contextmanager
def count_op_calls():
    """Wrap every kernel entry point; yields ``{class name: [(instance,
    seconds), ...]}``, one pair per call, where ``instance`` names an
    operator object within one ``Session.execute`` (two queries over the
    same handles each slice their sources: two executes, no repeat).

    The entry points are each ``Operator`` subclass's own ``execute`` and
    ``CompiledStep.run`` (a compiled fused chain runs as one call,
    booked on its final operator under ``Fused<Class>``).  In-process
    only: process mode runs kernels in pool children, out of reach of a
    parent-side wrapper.
    """
    calls: dict[str, list] = defaultdict(list)
    patched: list[tuple[type, str, object]] = []
    executes = itertools.count()
    current = [next(executes)]

    def wrap(owner: type, attr: str, label):
        original = owner.__dict__[attr]

        def counted(self, *args, **kwargs):
            start = time.perf_counter()
            try:
                return original(self, *args, **kwargs)
            finally:
                op, name = label(self)  # the op itself: ids get reused
                calls[name].append(((current[0], op),
                                    time.perf_counter() - start))

        patched.append((owner, attr, original))
        setattr(owner, attr, counted)

    session_execute = Session.__dict__["execute"]

    def execute(self, *tileables):
        current[0] = next(executes)
        return session_execute(self, *tileables)

    patched.append((Session, "execute", session_execute))
    Session.execute = execute

    for cls in {Operator, *_subclasses(Operator)}:
        if "execute" in cls.__dict__:
            wrap(cls, "execute", lambda op: (op, type(op).__name__))
    wrap(CompiledStep, "run", lambda step: (
        step.final_op, f"Fused<{type(step.final_op).__name__}>"))
    try:
        yield calls
    finally:
        for owner, attr, original in patched:
            setattr(owner, attr, original)


def ops_report(calls: dict[str, list]) -> tuple[list[str], int]:
    """The per-class table, and how many calls were a repeat."""
    lines = [f"{'calls':>7} {'distinct':>9} {'seconds':>9}  operator class"]
    repeats = 0
    rows = sorted(calls.items(), key=lambda item: -sum(s for _, s in item[1]))
    for name, made in rows:
        distinct = len({op for op, _ in made})
        repeats += len(made) - distinct
        flag = "  <-- re-executed" if len(made) > distinct else ""
        lines.append(f"{len(made):7d} {distinct:9d} "
                     f"{sum(s for _, s in made):9.3f}  {name}{flag}")
    n_calls = sum(len(made) for made in calls.values())
    lines.append(f"{n_calls:7d} {n_calls - repeats:9d} "
                 f"{sum(s for made in calls.values() for _, s in made):9.3f}"
                 "  total")
    return lines, repeats


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
    parser.add_argument("--ops", action="store_true",
                        help="count kernel calls per operator class instead "
                             "of profiling; exit 1 if any instance re-ran")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.generate(args.seed, args.scale)
    run_iteration(workload, inputs)
    if args.ops:
        with count_op_calls() as calls:
            iteration = run_iteration(workload, inputs)
        lines, repeats = ops_report(calls)
        print(f"{args.workload} seed={args.seed} scale={args.scale}: "
              f"wall_s={iteration.wall_s:.3f} with every kernel wrapped, "
              f"{iteration.counters['graph.n_subtasks']} subtasks")
        print("\n".join(lines))
        if repeats:
            print(f"FAIL: {repeats} kernel calls repeat an operator instance "
                  "that already ran in the same execute()")
        return 1 if repeats else 0
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
