"""Multi-tenant serving benchmark: N concurrent sessions, one cluster.

Drives N tenants of mixed TPC-H + pipeline traffic against one shared
service plane (cluster-scoped Meta/Storage/Shuffle/Scheduling/Cache/
Lifecycle singletons, per-session ``SessionActor``s) and measures what
the multi-tenant plane buys over the pre-multi-tenant alternative —
serialized back-to-back execution, each tenant taking the whole cluster
solo with a cold cache:

- **aggregate throughput** — total virtual makespan of the concurrent
  run vs the sum of solo makespans (the serialized queue);
- **fairness** — the Jain index of per-tenant slowdowns (tenant's
  shared-run makespan over its solo makespan) across equal-weight
  tenants: 1.0 means everyone degraded identically;
- **per-tenant latency** — p50/p99 of tenant makespans (virtual time on
  each tenant's own frontier);
- **isolation** — every tenant's results verified bit-identical
  (``repr``) to its solo run, including a scenario where one tenant runs
  under seeded chaos plus scripted faults (so recovery must fire) while
  its neighbours stay clean.

Writes ``BENCH_multitenant.json`` (repo root).
Run standalone::

    PYTHONPATH=src python benchmarks/bench_multitenant.py [--smoke]
        [--tenants N]
"""

from __future__ import annotations

import os
import sys
import threading
import time

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))

from harness import format_table, report, save_bench_json  # noqa: E402

from repro import frame as pf  # noqa: E402
from repro.cluster.cluster import ClusterState  # noqa: E402
from repro.config import Config  # noqa: E402
from repro.core import Session  # noqa: E402
from repro.dataframe import from_frame  # noqa: E402
from repro.workloads.tpch import ALL_QUERIES, generate_tables  # noqa: E402
from repro.workloads.tpch.queries import materialize  # noqa: E402

KiB = 1024

#: chaos rates for the noisy-tenant scenario (the fault-recovery dial).
CHAOS = {
    "seed": 20240806,
    "compute_fault_rate": 0.05,
    "chunk_loss_rate": 0.03,
    "memory_squeeze_rate": 0.05,
}

#: the traffic mix tenants draw from, round-robin by tenant index:
#: TPC-H point queries plus two non-TPC-H pipeline shapes.
TRAFFIC = ["q1", "q6", "q3", "q5", "pipe_groupby", "pipe_merge"]


def make_config(**overrides) -> Config:
    cfg = Config()
    cfg.chunk_store_limit = 64 * KiB
    cfg.parallel_execution = False
    cfg.result_cache = True
    for name, value in overrides.items():
        setattr(cfg, name, value)
    return cfg


def pipe_groupby(session: Session, seed: int):
    rng = np.random.default_rng(seed)
    local = pf.DataFrame({
        "k": rng.integers(0, 200, 4_000),
        "v": rng.normal(size=4_000),
    })
    return from_frame(local, session).groupby("k").agg({"v": "sum"}).fetch()


def pipe_merge(session: Session, seed: int):
    rng = np.random.default_rng(seed)
    left = pf.DataFrame({
        "k": rng.integers(0, 50, 1_500),
        "a": rng.normal(size=1_500),
    })
    right = pf.DataFrame({"k": np.arange(50), "b": rng.normal(size=50)})
    return from_frame(left, session).merge(
        from_frame(right, session), on="k"
    ).fetch()


def run_item(session: Session, tables, item: str):
    if item == "pipe_groupby":
        return pipe_groupby(session, seed=11)
    if item == "pipe_merge":
        return pipe_merge(session, seed=5)
    handles = {
        name: from_frame(frame, session) for name, frame in tables.items()
    }
    return materialize(ALL_QUERIES[item](handles))


def tenant_mix(index: int, items_per_tenant: int) -> list[str]:
    return [
        TRAFFIC[(index + j) % len(TRAFFIC)] for j in range(items_per_tenant)
    ]


def run_mix(session: Session, tables, mix: list[str]) -> list[str]:
    return [repr(run_item(session, tables, item)) for item in mix]


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def solo_references(tables, mixes: list[list[str]]) -> list[dict]:
    """Each tenant's mix on a private cluster: the reference values and
    the serialized-queue cost (cold cache every time — pre-multi-tenant,
    clusters are not shared)."""
    out = []
    for mix in mixes:
        with Session(make_config()) as session:
            values = run_mix(session, tables, mix)
            out.append({
                "values": values,
                "makespan": session.executor.frontier,
            })
    return out


def concurrent_run(tables, mixes: list[list[str]],
                   chaos_tenant: int | None = None,
                   **cfg_overrides) -> dict:
    """All tenants at once on one shared cluster."""
    cluster = ClusterState(make_config(**cfg_overrides))
    results: list[dict | None] = [None] * len(mixes)
    errors: list = []

    def work(i: int, mix: list[str]):
        if i == chaos_tenant:
            # no cached neighbour results: the scripted faults land on
            # stages the chaos tenant runs itself.
            cfg = make_config(**{**cfg_overrides, "result_cache": False})
            for name, value in CHAOS.items():
                setattr(cfg.faults, name, value)
            session = Session(cfg, cluster=cluster)
            # the mixes are a few subtasks the seeded rates may miss:
            # fail the first attempt of stage 0, lose stage 1's output.
            session.faults.script_compute_fault(0, 0)
            session.faults.script_chunk_loss(1, 0)
        else:
            session = Session(cluster=cluster)
        try:
            values = run_mix(session, tables, mix)
            # recovery over the whole mix, not its last item alone
            total = session.executor.report
            results[i] = {
                "values": values,
                "makespan": session.executor.frontier,
                "retries": total.retries,
                "recomputed": total.recomputed_subtasks,
            }
        except Exception as exc:  # noqa: BLE001 — surfaced in the payload
            errors.append(f"tenant {i}: {exc!r}")
        finally:
            session.close()

    wall0 = time.perf_counter()
    threads = [
        threading.Thread(target=work, args=(i, mix))
        for i, mix in enumerate(mixes)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - wall0
    makespan = cluster.clock.makespan
    cache = cluster.services.cache.stats_snapshot() \
        if cluster.services is not None else {}
    cluster.shutdown()
    return {
        "results": results,
        "errors": errors,
        "cluster_makespan": makespan,
        "wall_seconds": wall,
        "cache_hits": cache.get("hits", 0),
        "cache_bytes_reused": cache.get("bytes_reused", 0),
    }


def sequential_shared_run(tables, mixes: list[list[str]]) -> dict:
    """Tenants one after another on one shared cluster (warm cache but
    no overlap) — isolates the concurrency win from the cache win."""
    cluster = ClusterState(make_config())
    results = []
    for i, mix in enumerate(mixes):
        session = Session(cluster=cluster)
        try:
            values = run_mix(session, tables, mix)
            results.append({
                "values": values,
                "makespan": session.executor.frontier,
            })
        finally:
            session.close()
    makespan = cluster.clock.makespan
    cluster.shutdown()
    return {"results": results, "cluster_makespan": makespan}


def jain_index(xs: list[float]) -> float:
    if not xs:
        return 1.0
    arr = np.asarray(xs, dtype=float)
    denom = len(arr) * float((arr ** 2).sum())
    return float(arr.sum()) ** 2 / denom if denom > 0 else 1.0


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_benchmark(n_tenants: int, items_per_tenant: int,
                  sf: float) -> dict:
    tables = generate_tables(sf=sf, seed=7)
    mixes = [tenant_mix(i, items_per_tenant) for i in range(n_tenants)]

    solo = solo_references(tables, mixes)
    serialized_makespan = sum(ref["makespan"] for ref in solo)

    conc = concurrent_run(tables, mixes)
    seq_shared = sequential_shared_run(tables, mixes)

    identical = [
        conc["results"][i] is not None
        and conc["results"][i]["values"] == solo[i]["values"]
        for i in range(n_tenants)
    ]
    seq_identical = [
        seq_shared["results"][i]["values"] == solo[i]["values"]
        for i in range(n_tenants)
    ]
    makespans = [
        r["makespan"] for r in conc["results"] if r is not None
    ]
    slowdowns = [
        conc["results"][i]["makespan"] / solo[i]["makespan"]
        for i in range(n_tenants)
        if conc["results"][i] is not None and solo[i]["makespan"] > 0
    ]
    throughput_x = (
        serialized_makespan / conc["cluster_makespan"]
        if conc["cluster_makespan"] > 0 else float("inf")
    )

    # fairness: equal-weight tenants running *identical* work with the
    # cache off (cross-tenant hits would skew per-tenant cost); the Jain
    # index of their makespans shows how evenly turns and bands go round.
    fair_mixes = [["q1", "q6"] for _ in range(n_tenants)]
    fair = concurrent_run(tables, fair_mixes, result_cache=False)
    fair_makespans = [
        r["makespan"] for r in fair["results"] if r is not None
    ]
    jain_equal_work = jain_index(fair_makespans)

    # noisy-neighbour scenario: tenant 0 under seeded chaos and scripted
    # faults; every tenant must still match its solo values.
    chaos = concurrent_run(tables, mixes, chaos_tenant=0)
    chaos_identical = [
        chaos["results"][i] is not None
        and chaos["results"][i]["values"] == solo[i]["values"]
        for i in range(n_tenants)
    ]
    clean_recovery = sum(
        chaos["results"][i]["retries"] + chaos["results"][i]["recomputed"]
        for i in range(1, n_tenants)
        if chaos["results"][i] is not None
    )

    return {
        "n_tenants": n_tenants,
        "items_per_tenant": items_per_tenant,
        "scale_factor": sf,
        "traffic": TRAFFIC,
        "serialized_makespan": serialized_makespan,
        "concurrent_makespan": conc["cluster_makespan"],
        "sequential_shared_makespan": seq_shared["cluster_makespan"],
        "throughput_vs_serialized": throughput_x,
        "throughput_vs_sequential_shared": (
            seq_shared["cluster_makespan"] / conc["cluster_makespan"]
            if conc["cluster_makespan"] > 0 else float("inf")
        ),
        "tenant_makespan_p50": float(np.percentile(makespans, 50)),
        "tenant_makespan_p99": float(np.percentile(makespans, 99)),
        "jain_fairness_equal_work": jain_equal_work,
        "fair_scenario_makespans": fair_makespans,
        "jain_fairness_slowdown": jain_index(slowdowns),
        "jain_fairness_makespan": jain_index(makespans),
        "slowdowns": slowdowns,
        "cache_hits": conc["cache_hits"],
        "cache_bytes_reused": conc["cache_bytes_reused"],
        "wall_seconds_concurrent": conc["wall_seconds"],
        "all_identical_to_solo": all(identical),
        "sequential_identical_to_solo": all(seq_identical),
        "errors": conc["errors"],
        "chaos_scenario": {
            "chaos_tenant": 0,
            "all_identical_to_solo": all(chaos_identical),
            "chaos_tenant_recovery": (
                (chaos["results"][0]["retries"]
                 + chaos["results"][0]["recomputed"])
                if chaos["results"][0] is not None else None
            ),
            "clean_tenants_recovery": clean_recovery,
            "errors": chaos["errors"],
        },
    }


def render(row: dict) -> str:
    rows = [
        ["tenants", str(row["n_tenants"])],
        ["serialized (solo queue)", f"{row['serialized_makespan']:.3f}s"],
        ["sequential shared", f"{row['sequential_shared_makespan']:.3f}s"],
        ["concurrent shared", f"{row['concurrent_makespan']:.3f}s"],
        ["throughput vs serialized",
         f"{row['throughput_vs_serialized']:.2f}x"],
        ["throughput vs seq-shared",
         f"{row['throughput_vs_sequential_shared']:.2f}x"],
        ["tenant makespan p50/p99",
         f"{row['tenant_makespan_p50']:.3f}s / "
         f"{row['tenant_makespan_p99']:.3f}s"],
        ["Jain fairness (equal work)",
         f"{row['jain_fairness_equal_work']:.3f}"],
        ["Jain fairness (mixed, slowdown)",
         f"{row['jain_fairness_slowdown']:.3f}"],
        ["cache hits / bytes reused",
         f"{row['cache_hits']} / {row['cache_bytes_reused'] / KiB:.0f} KiB"],
        ["bit-identical to solo", str(row["all_identical_to_solo"])],
        ["bit-identical under chaos tenant",
         str(row["chaos_scenario"]["all_identical_to_solo"])],
        ["chaos tenant's recovery",
         str(row["chaos_scenario"]["chaos_tenant_recovery"])],
        ["clean tenants' recovery under chaos",
         str(row["chaos_scenario"]["clean_tenants_recovery"])],
    ]
    return format_table(
        "Multi-tenant serving: N concurrent sessions on one shared cluster",
        ["metric", "value"],
        rows,
        note=("times are virtual (simulated); serialized = each tenant "
              "solo on a private cluster back-to-back (cold cache), the "
              "pre-multi-tenant queue. Values verified via repr against "
              "each tenant's solo run."),
    )


def main() -> int:
    smoke = "--smoke" in sys.argv[1:]
    n_tenants = 4 if smoke else 10
    if "--tenants" in sys.argv[1:]:
        n_tenants = int(sys.argv[sys.argv.index("--tenants") + 1])
    items = 1 if smoke else 2
    sf = 0.1 if smoke else 0.25

    row = run_benchmark(n_tenants, items, sf)
    payload = {"benchmark": "multitenant", **row}
    save_bench_json("BENCH_multitenant.json", payload)
    report("BENCH_multitenant", render(row))

    failed = False
    if row["errors"] or row["chaos_scenario"]["errors"]:
        print(f"WARNING: tenant errors: "
              f"{row['errors'] + row['chaos_scenario']['errors']}")
        failed = True
    if not row["all_identical_to_solo"]:
        print("WARNING: concurrent tenant results differ from solo runs")
        failed = True
    if not row["chaos_scenario"]["all_identical_to_solo"]:
        print("WARNING: results differ from solo under the chaos tenant")
        failed = True
    if not row["chaos_scenario"]["chaos_tenant_recovery"]:
        print("WARNING: the chaos tenant's faults never fired")
        failed = True
    if row["chaos_scenario"]["clean_tenants_recovery"] != 0:
        print("WARNING: a clean tenant saw recovery activity under a "
              "neighbour's chaos")
        failed = True
    if row["throughput_vs_serialized"] < 1.5:
        print(f"WARNING: aggregate throughput "
              f"{row['throughput_vs_serialized']:.2f}x (< 1.5x)")
        failed = True
    if row["jain_fairness_equal_work"] < 0.9:
        print(f"WARNING: Jain fairness "
              f"{row['jain_fairness_equal_work']:.3f} (< 0.9)")
        failed = True
    return 1 if failed else 0


def test_multitenant_bench(benchmark=None):
    """Pytest entry: small fleet, same acceptance dials."""
    row = run_benchmark(4, 1, 0.1)
    assert not row["errors"]
    assert row["all_identical_to_solo"]
    assert row["chaos_scenario"]["all_identical_to_solo"]
    assert row["chaos_scenario"]["chaos_tenant_recovery"] > 0
    assert row["chaos_scenario"]["clean_tenants_recovery"] == 0
    assert row["jain_fairness_equal_work"] >= 0.9


if __name__ == "__main__":
    raise SystemExit(main())
