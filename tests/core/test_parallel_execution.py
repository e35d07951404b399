"""Concurrent-correctness tests for the event-driven parallel executor.

The contract under test (see DESIGN.md §Execution engine): process mode
may only change *wall-clock* behaviour. Results must be byte-identical
to serial mode, every ``SimReport`` field must match exactly, and the
reference-count cleanup must free each non-retained chunk exactly once.
Kernels run in exactly one place — the shared kernel loop — whichever
way a stage reaches it, so a kernel error surfaces once and a retried
subtask recomputes to the same record in every mode.
"""

from collections import Counter

import numpy as np
import pytest

from types import SimpleNamespace

from repro.config import Config
from repro.core import Session
from repro.core.dispatch import (
    MIN_DISPATCH_SUBTASKS,
    BandDispatcher,
    shared_pool,
    should_use_parallel,
)
from repro.storage.service import StorageService
from repro import frame as pf
from repro.dataframe import from_frame
from repro.tensor import rand


WIDE_SHAPE = (8192, 8)  # 512 KiB of float64
WIDE_CHUNK_LIMIT = 8192  # bytes -> 64 row chunks of 128 rows


#: the two ways a stage reaches the kernel loop.
MODES = ("serial", "process")


def make_session(parallel: bool, chunk_limit: int = WIDE_CHUNK_LIMIT,
                 **overrides) -> Session:
    """``parallel`` picks the execution mode: process pool, or inline."""
    cfg = Config()
    cfg.chunk_store_limit = chunk_limit
    cfg.execution_mode = "process" if parallel else "serial"
    for name, value in overrides.items():
        setattr(cfg, name, value)
    return Session(cfg)


def report_tuple(session: Session):
    report = session.executor.report
    return (
        report.makespan,
        report.total_compute_seconds,
        report.total_transfer_bytes,
        report.total_shuffle_bytes,
        report.n_subtasks,
        report.n_graph_nodes,
        dict(report.peak_memory),
        dict(report.band_busy),
    )


def wide_fanout_result(session: Session) -> np.ndarray:
    """A ≥64-chunk embarrassingly parallel graph plus a reduction."""
    t = rand(*WIDE_SHAPE, seed=7, session=session)
    out = (t * 2.0 + 1.0).sum()
    return np.asarray(out.fetch())


class TestWideFanout:
    def test_graph_is_actually_wide(self):
        with make_session(parallel=False) as session:
            wide_fanout_result(session)
            assert session.executor.report.n_subtasks >= 64

    def test_results_byte_identical_to_serial(self):
        with make_session(parallel=False) as serial:
            expected = wide_fanout_result(serial)
            serial_report = report_tuple(serial)
        with make_session(parallel=True) as parallel:
            actual = wide_fanout_result(parallel)
            parallel_report = report_tuple(parallel)
        assert actual.tobytes() == expected.tobytes()
        assert parallel_report == serial_report

    def test_refcount_frees_each_key_exactly_once(self, monkeypatch):
        removed: Counter = Counter()
        original_delete = StorageService.delete

        def counting_delete(self, key):
            if self.contains(key):
                removed[key] += 1
            original_delete(self, key)

        monkeypatch.setattr(StorageService, "delete", counting_delete)
        with make_session(parallel=True) as session:
            t = rand(*WIDE_SHAPE, seed=7, session=session)
            result = (t * 2.0 + 1.0).sum()
            result.fetch()
            retained = {chunk.key for chunk in result.data.chunks}
            resident = {
                key
                for worker in session.cluster.memory
                for key in session.storage.keys_on(worker)
            }
        # no double-delete:
        doubles = {key: n for key, n in removed.items() if n > 1}
        assert not doubles, f"keys freed more than once: {doubles}"
        # no leak: only the retained (user-visible) chunks stay resident.
        assert resident == retained
        # the cleanup actually ran over the wide stage
        assert len(removed) >= 64


class TestDataFrameDeterminism:
    def _pipeline(self, session: Session):
        rng = np.random.default_rng(11)
        local = pf.DataFrame({
            "k": rng.integers(0, 9, 2_400),
            "v": rng.normal(size=2_400),
            "w": rng.normal(size=2_400),
        })
        df = from_frame(local, session)
        agg = df.groupby("k").agg({"v": "mean", "w": "sum"})
        return agg.fetch()

    def test_simreport_identical_with_dynamic_tiling(self):
        with make_session(parallel=False, chunk_limit=4000) as serial:
            expected = self._pipeline(serial)
            serial_report = report_tuple(serial)
        with make_session(parallel=True, chunk_limit=4000) as parallel:
            actual = self._pipeline(parallel)
            parallel_report = report_tuple(parallel)
        assert actual.equals(expected)
        assert parallel_report == serial_report


class TestErrorPropagation:
    @pytest.mark.parametrize("mode", MODES)
    def test_kernel_error_runs_once_and_keeps_its_type(self, mode, tmp_path):
        """A raising kernel executes once per subtask, in every mode.

        The kernel logs each call (keyed by its block's first value) to
        a file, so calls made inside pool worker processes count too.
        The accounting walk used to own a second interpreter that re-ran
        a kernel whose first (runner-side) failure had been swallowed.
        """
        log = tmp_path / "calls.log"

        def boom(block):
            with open(log, "a") as f:
                f.write(f"{float(block[0, 0])!r}\n")
            raise ValueError("kernel exploded")

        with make_session(parallel=mode == "process") as session:
            t = rand(4096, 4, seed=1, session=session)  # 16 subtasks
            bad = t.map_blocks(boom, out_cols=4)
            with pytest.raises(ValueError, match="kernel exploded"):
                bad.fetch()
        calls = log.read_text().split()
        assert calls, "the kernel never ran"
        assert len(calls) == len(set(calls)), (
            f"{mode}: a failing kernel was executed more than once: {calls}"
        )

    def test_failure_does_not_poison_next_execution(self):
        def boom(block):
            raise ValueError("kernel exploded")

        with make_session(parallel=True) as session:
            t = rand(4096, 4, seed=1, session=session)
            with pytest.raises(ValueError):
                t.map_blocks(boom, out_cols=4).fetch()
            ok = (rand(4096, 4, seed=2, session=session) + 1.0).sum()
            assert np.isfinite(float(np.asarray(ok.fetch())))


class TestRetryRecomputes:
    """A retried subtask has no usable compute-phase record: the walk
    asks the kernel loop for a fresh one. Same loop, same record, same
    accounting — whichever mode produced the first attempt."""

    def test_retried_outputs_and_report_identical_across_modes(self):
        outcomes = {}
        for mode in MODES:
            cfg = Config()
            cfg.chunk_store_limit = WIDE_CHUNK_LIMIT
            cfg.faults.seed = 20240806
            cfg.faults.compute_fault_rate = 0.05
            cfg.execution_mode = mode
            with Session(cfg) as session:
                value = wide_fanout_result(session)
                report = session.executor.report
                outcomes[mode] = (
                    value.tobytes(), report_tuple(session),
                    report.retries, report.backoff_time,
                )
        assert outcomes["serial"][2] > 0, "no compute fault was injected"
        assert outcomes["process"] == outcomes["serial"]


class TestStructuralGate:
    """The dispatcher's only payoff is overlap between bands, so a stage
    goes through it exactly when it has ≥ MIN_DISPATCH_SUBTASKS subtasks
    on ≥ 2 bands. The gate reads the stage — not the host, not a knob."""

    @staticmethod
    def _order(n_subtasks: int, n_bands: int):
        return [
            SimpleNamespace(band=f"worker-{i % n_bands}/band-0")
            for i in range(n_subtasks)
        ]

    def test_small_stage_goes_inline(self):
        assert not should_use_parallel(self._order(1, n_bands=1))
        assert not should_use_parallel(
            self._order(MIN_DISPATCH_SUBTASKS - 1, n_bands=4))

    def test_single_band_stage_goes_inline(self):
        assert not should_use_parallel(self._order(2, n_bands=1))
        assert not should_use_parallel(self._order(64, n_bands=1))

    def test_wide_stage_on_two_bands_goes_to_the_dispatcher(self):
        assert should_use_parallel(
            self._order(MIN_DISPATCH_SUBTASKS, n_bands=2))
        assert should_use_parallel(self._order(64, n_bands=4))

    def test_stale_threshold_knobs_fail_loudly(self):
        cfg = Config()
        with pytest.raises(AttributeError):
            cfg.parallel_min_subtasks = 2
        with pytest.raises(AttributeError):
            cfg.cluster.n_wokers = 2
        with pytest.raises(AttributeError):
            cfg.faults.compute_rate = 0.1
        with pytest.raises(AttributeError):
            cfg.speculation = True
        with pytest.raises(AttributeError):
            cfg.procpool_workers = 2

    @pytest.mark.parametrize("stale", ["thread", "proces"])
    def test_unknown_execution_mode_fails_loudly(self, stale):
        """Thread mode is gone: its name — like any typo — is refused
        when the service plane is deployed, not silently run inline."""
        cfg = Config()
        cfg.execution_mode = stale
        with pytest.raises(ValueError, match="'serial', 'process'"):
            Session(cfg)

    def test_executor_follows_the_gate(self, monkeypatch):
        """Integration: a dispatcher exists iff the stage can overlap."""
        import repro.core.executor as executor_mod

        constructed = []
        original_init = BandDispatcher.__init__

        def counting_init(self, graph, order, *args, **kwargs):
            constructed.append(len(order))
            original_init(self, graph, order, *args, **kwargs)

        monkeypatch.setattr(executor_mod.BandDispatcher, "__init__",
                            counting_init)

        # one chunk end to end: every stage is a single subtask.
        cfg = Config()
        cfg.execution_mode = "process"
        with Session(cfg) as session:
            t = rand(256, 4, seed=5, session=session)
            (t + 1.0).sum().fetch()
        assert not constructed

        # the default config computes inline, however wide the stage
        # (64 subtasks on 8 bands here) ...
        cfg = Config()
        cfg.chunk_store_limit = WIDE_CHUNK_LIMIT
        with Session(cfg) as session:
            wide_fanout_result(session)
        assert not constructed

        # ... and so does process mode with parallel_execution off.
        with make_session(parallel=True,
                          parallel_execution=False) as session:
            wide_fanout_result(session)
        assert not constructed

        with make_session(parallel=True) as session:
            wide_fanout_result(session)
        assert constructed
        assert all(n >= MIN_DISPATCH_SUBTASKS for n in constructed)


class TestDispatcherInternals:
    def test_shared_pool_is_singleton(self):
        assert shared_pool() is shared_pool()

    def test_band_slots_serialize_per_band(self):
        """Two subtasks on one band never run concurrently."""
        import threading
        import time

        from repro.core.dispatch import SubtaskComputation
        from repro.graph.dag import DAG
        from repro.graph.entity import ChunkData
        from repro.graph.subtask import Subtask

        running = set()
        overlaps = []
        lock = threading.Lock()

        def compute(subtask, inputs):
            with lock:
                if subtask.band in running:
                    overlaps.append(subtask.key)
                running.add(subtask.band)
            time.sleep(0.01)
            with lock:
                running.discard(subtask.band)
            return SubtaskComputation({}, {}, {})

        graph: DAG = DAG()
        order = []
        for i in range(6):
            chunk = ChunkData("tensor", (1,), index=(i,))
            subtask = Subtask([chunk])
            subtask.band = f"worker-0/band-{i % 2}"
            subtask.priority = i
            graph.add_node(subtask)
            order.append(subtask)
        dispatcher = BandDispatcher(
            graph, order, compute, fetch=lambda keys: {},
        )
        dispatcher.start()
        try:
            for subtask in order:
                dispatcher.wait_for(subtask.key)
        finally:
            dispatcher.shutdown()
        assert not overlaps
