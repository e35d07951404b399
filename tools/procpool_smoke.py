"""CI smoke for process-pool execution.

Runs TPC-H q1 and a groupby shuffle in serial mode and in process mode
and requires byte-identical results plus identical virtual makespans —
the determinism contract, checked end-to-end on a fresh interpreter.
A clean run must also observe zero worker-process crashes.

Run: ``PYTHONPATH=src python tools/procpool_smoke.py``
"""

from __future__ import annotations

import sys

import numpy as np

from repro import frame as pf
from repro.config import Config
from repro.core import Session
from repro.dataframe import from_frame
from repro.workloads.tpch import ALL_QUERIES, generate_tables
from repro.workloads.tpch.queries import materialize


def make_session(mode: str, chunk_limit: int) -> Session:
    cfg = Config()
    cfg.chunk_store_limit = chunk_limit
    cfg.execution_mode = mode
    return Session(cfg)


def tpch_q1(session: Session):
    tables = generate_tables(sf=0.5, seed=7)
    handles = {
        name: from_frame(frame, session) for name, frame in tables.items()
    }
    return materialize(ALL_QUERIES["q1"](handles))


def groupby_shuffle(session: Session):
    rng = np.random.default_rng(11)
    local = pf.DataFrame({
        "k": rng.integers(0, 200, 4_000),
        "v": rng.normal(size=4_000),
    })
    return from_frame(local, session).groupby("k").agg({"v": "sum"}).fetch()


WORKLOADS = [
    ("tpch_q1", tpch_q1, 64 * 1024),
    ("groupby_shuffle", groupby_shuffle, 4_000),
]


def run(name: str, workload, chunk_limit: int) -> int:
    outcomes = {}
    for mode in ("serial", "process"):
        with make_session(mode, chunk_limit) as session:
            value = workload(session)
            procpool = session.cluster._procpool
            crashes = procpool.crashes if procpool is not None else 0
            outcomes[mode] = (
                value, session.cluster.clock.makespan, crashes,
            )
    serial_value, serial_makespan, _ = outcomes["serial"]
    process_value, process_makespan, crashes = outcomes["process"]
    failures = 0
    if hasattr(serial_value, "equals"):
        same = bool(serial_value.equals(process_value))
    else:
        a, b = np.asarray(serial_value), np.asarray(process_value)
        same = a.shape == b.shape and a.tobytes() == b.tobytes()
    if not same:
        print(f"FAIL {name}: process result diverged from serial mode")
        failures += 1
    if serial_makespan != process_makespan:
        print(f"FAIL {name}: virtual makespan diverged "
              f"({serial_makespan} vs {process_makespan})")
        failures += 1
    if crashes:
        print(f"FAIL {name}: {crashes} worker crashes in a clean run")
        failures += 1
    if not failures:
        print(f"OK {name}: identical across serial/process, 0 crashes")
    return failures


def main() -> int:
    failures = sum(
        run(name, workload, chunk_limit)
        for name, workload, chunk_limit in WORKLOADS
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
