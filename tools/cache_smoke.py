"""CI smoke for the expression-keyed result cache.

Three gates, checked end-to-end on a fresh interpreter:

1. **warm reuse** — TPC-H q1 run twice in one cached session: the warm
   run must skip at least half the subtasks and produce a byte-identical
   result, answered from its cache entry alone — no partial execute, no
   executor stage, at least one cache hit;
2. **prefix reuse** — after q1, q1's expression plus a ``sort_values``
   tail over fresh handles must bind q1's result from the cache and run
   only the tail's subtasks (as many as the same tail over q1's
   still-tiled handle runs with the cache off), with the cache-off value;
3. **golden safety** — the 14 golden engine scenarios replayed with the
   cache *disabled* (the default) must stay bit-identical to the
   committed reports: the cache must be invisible when off.

Run: ``PYTHONPATH=src python tools/cache_smoke.py``
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.config import Config
from repro.core import Session
from repro.core.executor import GraphExecutor
from repro.dataframe import from_frame
from repro.workloads.tpch import ALL_QUERIES, generate_tables
from repro.workloads.tpch.queries import materialize


def make_config(cache: bool) -> Config:
    cfg = Config()
    cfg.chunk_store_limit = 64 * 1024
    cfg.parallel_execution = False
    cfg.result_cache = cache
    return cfg


def q1(session, tables):
    """TPC-H q1 over fresh handles: reuse is by expression alone."""
    return ALL_QUERIES["q1"]({name: from_frame(frame, session)
                              for name, frame in tables.items()})


def warm_q1_smoke(tables) -> int:
    cfg = make_config(cache=True)
    failures = 0
    stages = []  # one entry per executor stage
    execute = GraphExecutor.execute

    def counting(self, *args, **kwargs):
        stages.append(1)
        return execute(self, *args, **kwargs)

    GraphExecutor.execute = counting
    try:
        with Session(cfg) as session:
            runs = []
            for _ in range(2):
                before = (len(stages), session.tiler.yield_count)
                value = materialize(q1(session, tables))
                ran = (len(stages) - before[0],
                       session.tiler.yield_count - before[1])
                runs.append((repr(value), session.last_report, ran))
    finally:
        GraphExecutor.execute = execute
    (cold_repr, cold, _), (warm_repr, warm, (warm_stages, warm_partial)) = runs
    if warm_repr != cold_repr:
        print("FAIL warm q1: result diverged from the cold run")
        failures += 1
    if cold.n_subtasks == 0:
        print("FAIL warm q1: cold run executed no subtasks")
        failures += 1
    elif warm.n_subtasks > 0.5 * cold.n_subtasks:
        print(f"FAIL warm q1: only skipped "
              f"{cold.n_subtasks - warm.n_subtasks}/{cold.n_subtasks} "
              "subtasks (< 50%)")
        failures += 1
    if warm.cache_hit_chunks == 0:
        print("FAIL warm q1: no cache hits recorded")
        failures += 1
    if warm_stages or warm_partial:
        print(f"FAIL warm q1: ran {warm_stages} executor stages and "
              f"{warm_partial} partial executes (want 0 and 0)")
        failures += 1
    if not failures:
        print(f"OK warm q1: {cold.n_subtasks} -> {warm.n_subtasks} "
              f"subtasks, 0 stages, {warm.cache_hit_chunks} chunks reused, "
              "identical result")
    return failures


def prefix_smoke(tables) -> int:
    with Session(make_config(cache=False)) as plain:
        base = q1(plain, tables)
        base.fetch()
        expected = repr(base.sort_values("charge").fetch())
        tail = plain.last_report.n_subtasks
    with Session(make_config(cache=True)) as session:
        q1(session, tables).fetch()
        got = repr(q1(session, tables).sort_values("charge").fetch())
        run = session.last_report
    failures = 0
    if got != expected:
        print("FAIL prefix: result diverged from the cache-off engine")
        failures += 1
    if run.cache_hit_chunks == 0:
        print("FAIL prefix: q1's result was not bound from the cache")
        failures += 1
    if run.n_subtasks != tail:
        print(f"FAIL prefix: ran {run.n_subtasks} subtasks, the "
              f"sort_values tail alone runs {tail}")
        failures += 1
    if not failures:
        print(f"OK prefix: q1 + sort_values ran its tail's {tail} "
              f"subtasks, {run.cache_hit_chunks} chunks reused, "
              "identical result")
    return failures


def goldens_smoke() -> int:
    from tests.core.golden_harness import GOLDEN_PATH, run_scenario, scenarios

    with open(GOLDEN_PATH) as f:
        goldens = json.load(f)
    failures = 0
    for name, spec in scenarios():
        report = json.loads(json.dumps(run_scenario(spec)))
        if report != goldens[name]:
            print(f"FAIL golden {name}: report changed with cache disabled")
            failures += 1
    if not failures:
        print(f"OK goldens: {len(scenarios())} scenarios bit-identical "
              "with the cache disabled")
    return failures


def main() -> int:
    tables = generate_tables(sf=0.5, seed=7)
    failures = warm_q1_smoke(tables)
    failures += prefix_smoke(tables)
    failures += goldens_smoke()
    if failures:
        print(f"{failures} cache smoke failure(s)")
        return 1
    print("cache smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
