"""CI smoke for the multi-tenant serving plane.

One end-to-end gate on a fresh interpreter: ten sessions of mixed
TPC-H + pipeline traffic run concurrently against one shared cluster,
and every tenant's results must come back bit-identical (``repr``) to a
solo run of the same traffic on a private cluster — including a noisy
tenant running under seeded chaos, whose recovery activity must never
leak into a neighbour's run.

Run: ``PYTHONPATH=src python tools/multitenant_smoke.py``
"""

from __future__ import annotations

import os
import sys
import threading

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro import frame as pf
from repro.cluster.cluster import ClusterState
from repro.config import Config
from repro.core import Session
from repro.dataframe import from_frame
from repro.workloads.tpch import ALL_QUERIES, generate_tables
from repro.workloads.tpch.queries import materialize

N_TENANTS = 10
TRAFFIC = ["q1", "q6", "q3", "q5", "pipe_groupby", "pipe_merge"]
CHAOS = {
    "seed": 20240806,
    "compute_fault_rate": 0.05,
    "chunk_loss_rate": 0.03,
    "memory_squeeze_rate": 0.05,
}


def make_config(chaos: bool = False) -> Config:
    cfg = Config()
    cfg.chunk_store_limit = 64 * 1024
    cfg.parallel_execution = False
    # the noisy tenant reads no neighbour's cached results: its scripted
    # faults land on stages it runs itself.
    cfg.result_cache = not chaos
    if chaos:
        for name, value in CHAOS.items():
            setattr(cfg.faults, name, value)
    return cfg


def run_item(session: Session, tables, item: str):
    if item == "pipe_groupby":
        rng = np.random.default_rng(11)
        local = pf.DataFrame({
            "k": rng.integers(0, 200, 4_000),
            "v": rng.normal(size=4_000),
        })
        return from_frame(local, session).groupby("k").agg(
            {"v": "sum"}).fetch()
    if item == "pipe_merge":
        rng = np.random.default_rng(5)
        left = pf.DataFrame({
            "k": rng.integers(0, 50, 1_500),
            "a": rng.normal(size=1_500),
        })
        right = pf.DataFrame({"k": np.arange(50), "b": rng.normal(size=50)})
        return from_frame(left, session).merge(
            from_frame(right, session), on="k").fetch()
    handles = {
        name: from_frame(frame, session) for name, frame in tables.items()
    }
    return materialize(ALL_QUERIES[item](handles))


def tenant_mix(i: int) -> list[str]:
    return [TRAFFIC[i % len(TRAFFIC)], TRAFFIC[(i + 1) % len(TRAFFIC)]]


def main() -> int:
    failures = 0
    tables = generate_tables(sf=0.1, seed=7)
    mixes = [tenant_mix(i) for i in range(N_TENANTS)]

    reference = []
    for mix in mixes:
        with Session(make_config()) as solo:
            reference.append([repr(run_item(solo, tables, it)) for it in mix])

    cluster = ClusterState(make_config())
    results: list[list[str] | None] = [None] * N_TENANTS
    recovery = [0] * N_TENANTS
    errors: list[str] = []

    def work(i: int):
        if i == 0:  # the noisy tenant: seeded chaos
            session = Session(make_config(chaos=True), cluster=cluster)
            # the smoke graphs are small; guarantee at least one fault
            # fires regardless of the seeded rates.
            session.faults.script_compute_fault(0, 0)
            session.faults.script_chunk_loss(1, 0)
        else:
            session = Session(cluster=cluster)
        try:
            out = []
            for item in mixes[i]:
                out.append(repr(run_item(session, tables, item)))
                recovery[i] += (session.last_report.retries
                                + session.last_report.recomputed_subtasks)
            results[i] = out
        except Exception as exc:  # noqa: BLE001 — reported below
            errors.append(f"tenant {i}: {exc!r}")
        finally:
            session.close()

    threads = [
        threading.Thread(target=work, args=(i,)) for i in range(N_TENANTS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    cluster.shutdown()

    for err in errors:
        print(f"FAIL {err}")
        failures += 1
    for i in range(N_TENANTS):
        if results[i] is None:
            continue
        if results[i] != reference[i]:
            print(f"FAIL tenant {i}: results diverged from its solo run")
            failures += 1
    if results[0] is not None and recovery[0] == 0:
        print("FAIL the chaos tenant's scripted faults never fired")
        failures += 1
    leaked = sum(recovery[1:])
    if leaked:
        print(f"FAIL clean tenants saw recovery activity ({leaked}) under "
              "the chaos tenant")
        failures += 1

    if failures == 0:
        print(f"OK multitenant smoke: {N_TENANTS} concurrent sessions, "
              f"mixed traffic, all bit-identical to solo; chaos tenant "
              f"recovery={recovery[0]}, neighbours clean")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
