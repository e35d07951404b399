"""The seven benchmark workloads.

Each workload supplies its seeded inputs, the single-node oracle, the
session configuration and the query under test.  ``run_iteration`` is
the one timed loop body every workload shares: fresh session, handles
built untimed, pool warmed, then ``query -> execute -> fetched value``
under the timer, counters read from the session, session closed.

``scale`` multiplies every row count (1.0 = the sizes BENCHMARK.json
states; the smoke test runs at a few percent).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.config import default_config
from repro.core.session import Session
from repro.dataframe import from_frame
from repro.tensor import qr, tensor_from_numpy
from repro.workloads.tpch.queries import ALL_QUERIES, materialize

import datagen

KiB = 1024

RTOL = 1e-9


@dataclass
class Iteration:
    """What one timed iteration produced."""

    wall_s: float
    value: Any
    counters: dict[str, Any]


class Workload:
    """Base: subclasses fill in the hooks below."""

    name = ""
    why = ""

    def generate(self, seed: int, scale: float) -> Any:
        """Seeded inputs (plain ``repro.frame`` / NumPy values)."""
        raise NotImplementedError

    def input_rows(self, inputs) -> int:
        """Rows one iteration reads (the ``rows_per_s`` numerator)."""
        raise NotImplementedError

    def config(self, inputs):
        raise NotImplementedError

    def handles(self, inputs, session):
        """Distributed handles over ``inputs`` (built untimed)."""
        raise NotImplementedError

    def query(self, handles) -> list:
        """Build, execute and fetch — the timed region.  Returns the
        values the oracle check compares."""
        raise NotImplementedError

    def oracle(self, inputs) -> Any:
        """The same answer on plain ``repro.frame`` / NumPy."""
        raise NotImplementedError

    def matches(self, got, want) -> bool:
        return all(values_match(g, w) for g, w in zip(got, want, strict=True))


# ---------------------------------------------------------------------------
# oracle comparison
# ---------------------------------------------------------------------------

def arrays_match(got: np.ndarray, want: np.ndarray) -> bool:
    """Exact on ints/strings/dates; ``rtol=1e-9`` on floats (the
    absolute floor scales with the column so near-zero cells of a
    well-conditioned result do not fail on rounding)."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return False
    if want.dtype.kind == "f" or got.dtype.kind == "f":
        want = want.astype(np.float64)
        floor = RTOL * float(np.max(np.abs(want), initial=0.0))
        return bool(np.allclose(got.astype(np.float64), want,
                                rtol=RTOL, atol=floor, equal_nan=True))
    return bool(np.array_equal(got, want))


def values_match(got, want) -> bool:
    """Frames compare column by column after sorting both by their
    non-float columns (distributed groupbys return partition order)."""
    if hasattr(want, "columns"):
        if not hasattr(got, "columns"):
            return False
        got, want = got.reset_index(), want.reset_index()
        columns = list(want.columns)
        if list(got.columns) != columns or len(got) != len(want):
            return False
        keys = [c for c in columns if want[c].values.dtype.kind != "f"
                and c != "index"]
        if keys:
            got, want = got.sort_values(keys), want.sort_values(keys)
        return all(arrays_match(got[c].values, want[c].values)
                   for c in columns if c != "index")
    return arrays_match(got, want)


# ---------------------------------------------------------------------------
# the shared timed loop body
# ---------------------------------------------------------------------------

def session_counters(session: Session) -> dict[str, Any]:
    """Whole-session totals (one fresh session per iteration, so these
    are the iteration's own): the ``=``-marked counts of the per-layer
    table, which must repeat exactly across reps."""
    report = session.executor.report
    # read first: the storage reads below are actor messages themselves
    messages = session.cluster.actor_system.log.total_delivered
    return {
        "graph.n_subtasks": report.n_subtasks,
        "graph.n_chunk_nodes": report.n_graph_nodes,
        "tiler.partial_executes": session.tiler.yield_count,
        "storage.transferred_bytes": session.storage.transferred_bytes(),
        "storage.spilled_bytes": session.storage.spilled_bytes(),
        "shuffle.bytes": report.total_shuffle_bytes,
        "cache.hit_chunks": report.cache_hit_chunks,
        "cache.reused_bytes": report.cache_reused_bytes,
        "cluster.virtual_makespan_s": session.cluster.clock.makespan,
        "cluster.virtual_peak_memory": max(
            session.cluster.peak_memory().values(), default=0),
        "actors.messages": messages,
        "actors.runner_restarts":
            session.cluster.supervision.supervisor.snapshot()["total_restarts"],
    }


def run_iteration(workload: Workload, inputs, *,
                  mutate_config: Callable | None = None,
                  recorder=None) -> Iteration:
    """``recorder`` (a ``trace.Recorder``) gets one root ``iteration``
    span over the timed region, so the time spent outside every
    ``Session`` call — building lazy tileables — is its self time."""
    cfg = workload.config(inputs)
    if mutate_config is not None:
        mutate_config(cfg)
    session = Session(cfg)
    try:
        handles = workload.handles(inputs, session)
        if cfg.execution_mode == "process":
            session.cluster.procpool_client().warm()
        with recorder.iteration_span() if recorder else nullcontext():
            start = time.perf_counter()
            value = workload.query(handles)
            end = time.perf_counter()
        counters = session_counters(session)
    finally:
        session.close()
    return Iteration(end - start, value, counters)


# ---------------------------------------------------------------------------
# TPC-H family
# ---------------------------------------------------------------------------

class TpchWorkload(Workload):
    """A list of TPC-H queries over one generated table set."""

    queries: tuple[str, ...] = ()
    sf = 1.0
    chunk_divisor = 48
    tables_read: dict[str, tuple[str, ...]] = {
        "q1": ("lineitem",),
        "q6": ("lineitem",),
        "q3": ("customer", "orders", "lineitem"),
        "q5": ("region", "nation", "customer", "orders", "lineitem",
               "supplier"),
    }

    def generate(self, seed, scale):
        return datagen.tpch_tables(self.sf * scale, seed)

    def input_rows(self, inputs):
        return sum(len(inputs[t]) for q in self.queries
                   for t in self.tables_read[q])

    def config(self, inputs):
        cfg = default_config()
        cfg.cluster.n_workers = 4
        nbytes = sum(frame.nbytes for frame in inputs.values())
        cfg.chunk_store_limit = max(nbytes // self.chunk_divisor, 16 * KiB)
        return cfg

    def handles(self, inputs, session):
        return {name: from_frame(frame, session)
                for name, frame in inputs.items()}

    def query(self, handles):
        return [materialize(ALL_QUERIES[q](handles)) for q in self.queries]

    def oracle(self, inputs):
        return [ALL_QUERIES[q](inputs) for q in self.queries]


class TpchScan(TpchWorkload):
    name = "tpch_scan"
    why = ("q1+q6 over 480k lineitem rows (sf=400), 4 workers, 48 chunks: "
           "scan/filter/groupby-agg, no shuffle - frame kernels and "
           "services.runner dominate; the no-change control for planning work")
    queries = ("q1", "q6")
    sf = 400.0


class TpchJoin(TpchWorkload):
    name = "tpch_join"
    why = ("q3+q5 at sf=200 (334k rows read): multi-join with dynamic-tiling "
           "re-entries, broadcasts and one range shuffle - tiler, graph, "
           "storage, scheduling, dispatch, actors dominate; kernels are minor")
    queries = ("q3", "q5")
    sf = 200.0
    # bytes // 48 leaves q5's orders-customer join at 0.98x the broadcast
    # threshold, so the plan (and 10 % of the subtasks) flips with the
    # seed; at 42 every join sits >= 11 % away from it on all seeds tried.
    chunk_divisor = 42


class PlanSweep(TpchWorkload):
    name = "plan_sweep"
    why = ("q1,q6,q3,q5,q1,q5 with fresh handles in one result_cache=True "
           "session at sf=8 on ~20 chunks: all fixed overhead; four cold "
           "queries write services.cache, two warm ones read it")
    queries = ("q1", "q6", "q3", "q5", "q1", "q5")
    # at sf=1, bytes // 24 the sampled join sizes straddle the broadcast
    # threshold (152 subtasks on most seeds, 868 on others); sf=8 with
    # bytes // 20 keeps every join a broadcast on all seeds tried.
    sf = 8.0
    chunk_divisor = 20

    def config(self, inputs):
        cfg = super().config(inputs)
        cfg.result_cache = True
        return cfg

    def handles(self, inputs, session):
        return inputs, session

    def query(self, handles):
        # fresh handles per query (the PR-7 sweep shape): the repeats hit
        # the cache by structural identity, not by reusing tileables.
        inputs, session = handles
        return [
            materialize(ALL_QUERIES[q](
                TpchWorkload.handles(self, inputs, session)))
            for q in self.queries
        ]


class ProcessWire(TpchWorkload):
    name = "process_wire"
    why = ("q1 at sf=40 (48k lineitem rows) in execution_mode=process: the "
           "tpch_scan runner seam through procpool encode/shm/child/decode, "
           "which is most of the time; IPC work shows here only")
    queries = ("q1",)
    sf = 40.0

    def config(self, inputs):
        cfg = super().config(inputs)
        cfg.execution_mode = "process"
        return cfg


# ---------------------------------------------------------------------------
# shuffle / columnar / tensor
# ---------------------------------------------------------------------------

class GroupbyShuffle(Workload):
    name = "groupby_shuffle"
    why = ("20k rows, 10k distinct int keys, 16 chunks, groupby-agg forced "
           "onto shuffle-reduce (288 subtasks): engine.partition kernels, "
           "frame.groupby and storage.shuffle register/gather do the work")
    n_rows = 20_000

    def generate(self, seed, scale):
        return datagen.groupby_frame(max(int(self.n_rows * scale), 64), seed)

    def input_rows(self, inputs):
        return len(inputs)

    def config(self, inputs):
        cfg = default_config()
        cfg.cluster.n_workers = 4
        cfg.tree_reduce_threshold = 1  # any sampled size picks shuffle-reduce
        cfg.chunk_store_limit = max(inputs.nbytes // 16, 8 * KiB)
        return cfg

    def handles(self, inputs, session):
        return from_frame(inputs, session)

    def query(self, handles):
        return [handles.groupby("k").agg({"v": "mean", "w": "sum"}).fetch()]

    def oracle(self, inputs):
        return [inputs.groupby("k").agg({"v": "mean", "w": "sum"})]


class StrkeyColumnar(Workload):
    name = "strkey_columnar"
    why = ("200k rows keyed by 2000 distinct strings on chunk_engine="
           "columnar, combine off: groupby-sum, then merge with a dimension "
           "and groupby its label - the only workload on the second engine")
    n_rows = 200_000
    n_keys = 2_000

    def generate(self, seed, scale):
        return datagen.strkey_frames(max(int(self.n_rows * scale), 256),
                                     max(int(self.n_keys * scale), 16), seed)

    def input_rows(self, inputs):
        fact, dim = inputs
        return 2 * len(fact) + len(dim)

    def config(self, inputs):
        cfg = default_config()
        cfg.cluster.n_workers = 4
        cfg.chunk_engine = "columnar"
        cfg.mapper_side_combine = False  # the shuffle carries every key
        cfg.tree_reduce_threshold = 1
        cfg.chunk_store_limit = max(inputs[0].nbytes // 16, 8 * KiB)
        return cfg

    def handles(self, inputs, session):
        return tuple(from_frame(frame, session) for frame in inputs)

    @staticmethod
    def _plan(fact, dim):
        by_key = fact.groupby("k").agg({"v": "sum"})
        by_label = fact.merge(dim, on="k").groupby("label").agg({"v": "sum"})
        return [by_key, by_label]

    def query(self, handles):
        return [t.fetch() for t in self._plan(*handles)]

    def oracle(self, inputs):
        return self._plan(*inputs)


def _chain_weights(width: int) -> tuple[np.ndarray, np.ndarray]:
    """A fixed lift to ``width`` columns and an orthogonal step matrix,
    so the 60-step chain neither blows up nor decays."""
    rng = np.random.default_rng(0)
    lift = rng.normal(size=(32, width)) / np.sqrt(32)
    step, _ = np.linalg.qr(rng.normal(size=(width, width)))
    return lift, step


_LIFT, _STEP = _chain_weights(64)


def matmul_chain(block: np.ndarray) -> np.ndarray:
    """60 BLAS calls per block (the GIL is released inside each).  Every
    output row depends only on its own input row, so the answer does not
    depend on how the tensor was chunked — unlike ``bench_wallclock``'s
    ``block @ (block.T @ out)``, whose result changes with the layout
    and so has no oracle."""
    out = block @ _LIFT
    for _ in range(60):
        out = out @ _STEP
    return out


class TensorBlas(Workload):
    name = "tensor_blas"
    why = ("65536x32 map_blocks 60-step matmul chain + sum (32 chunks), then "
           "auto-rechunked TSQR of 100000x64 at 512 KiB chunks: tensor tiling "
           "and GIL-releasing kernels, where thread dispatch can win")
    chain_rows = 65_536
    qr_rows = 100_000

    def generate(self, seed, scale):
        rng = np.random.default_rng(seed)
        chain = rng.random((max(int(self.chain_rows * scale), 2048), 32))
        tall = rng.random((max(int(self.qr_rows * scale), 2048), 64))
        return chain, tall

    def input_rows(self, inputs):
        return len(inputs[0]) + len(inputs[1])

    def config(self, inputs):
        cfg = default_config()
        cfg.cluster.n_workers = 4
        cfg.chunk_store_limit = 512 * KiB
        return cfg

    def handles(self, inputs, session):
        return tuple(tensor_from_numpy(a, session) for a in inputs)

    def query(self, handles):
        chain, tall = handles
        total = chain.map_blocks(matmul_chain, out_cols=64).sum().fetch()
        _, r = qr(tall)
        return [np.asarray(total), _positive_diagonal(r.fetch())]

    def oracle(self, inputs):
        chain, tall = inputs
        # in cache-sized slices: one 32 MiB pass per step is 5x slower
        total = sum(matmul_chain(chain[i:i + 2048]).sum()
                    for i in range(0, len(chain), 2048))
        return [np.asarray(total),
                _positive_diagonal(np.linalg.qr(tall, mode="r"))]


def _positive_diagonal(r: np.ndarray) -> np.ndarray:
    """QR is unique up to the sign of each row of R: fix diag(R) > 0."""
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return r * signs[:, None]


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        TpchScan(), TpchJoin(), PlanSweep(), GroupbyShuffle(),
        StrkeyColumnar(), TensorBlas(), ProcessWire(),
    )
}
