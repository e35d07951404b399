"""Memory-pressure control: admission ledger, footprint estimation,
the OOM reschedule target, and the wall-clock dispatch gate.

The paper's headline robustness claim (Table II, "OOM or Killed") is
that the engine *completes* memory-hungry workloads where eager
dataframe systems die. This module supplies the machinery:

- :class:`FootprintEstimator` — predicts a subtask's transient memory
  footprint before it runs: input bytes from the meta service / storage,
  output bytes from a per-operator-class history of observed sizes
  (defaulting to ``chunk_store_limit`` for never-seen classes, the
  paper's "presume a full chunk" rule).

- :class:`MemoryAdmission` — a per-worker ledger of virtual-time grants
  ``(end_time, nbytes)``. Before a subtask is accounted, its footprint
  must fit ``used + active_grants + request <= limit``; when it does not,
  the subtask's virtual start is pushed past the earliest-ending grants
  (backpressure, charged as ``admission_wait_time``) instead of
  dispatching into a guaranteed OOM. The **deadlock guard**: because
  grants are drained in virtual time on a single deterministic walk, the
  oldest-priority waiter of a worker always reaches ``active == 0`` and
  is then admitted even oversubscribed (``forced_admissions``) — a
  budget smaller than any two subtasks serializes instead of deadlocking.

- :class:`MemoryPressure` — the facade the executor owns. It also names
  the freest other worker, where a subtask that ran out of memory
  retries once before the session re-tiles.

- :class:`DispatchGate` — the wall-clock mirror of the ledger for the
  parallel band runner: pool threads must not *actually* run N kernels
  whose estimated footprints exceed the worker budget, independent of
  what the virtual-time ledger later charges. The gate never affects any
  simulated number (compute results are deterministic and the accounting
  walk is unchanged); it only reorders real execution. Its deadlock
  guard admits any subtask on an idle worker.

Determinism argument: every ledger decision happens on the executor's
single accounting thread, in topological order, from state (tracker
``used``, grant list, estimator history) that is itself only mutated on
that thread — so ``admission_wait_time`` and friends are bit-identical
between serial and parallel execution modes.
"""

from __future__ import annotations

import bisect
import threading
from typing import TYPE_CHECKING, Any

from ..graph.subtask import Subtask

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.cluster import ClusterState
    from ..config import Config
    from ..storage.service import StorageService
    from .meta import MetaService


#: working-set multiplier: executing a subtask needs roughly
#: ``PEAK_FACTOR * (input_bytes + output_bytes)`` free memory.
PEAK_FACTOR = 1.5


def worker_of_band(band: str | None) -> str:
    """The worker name a band name belongs to (``worker-0/band-1``)."""
    if not band:
        return ""
    return band.split("/", 1)[0]


class FootprintEstimator:
    """Pre-execution footprint prediction with per-op-class history.

    ``estimate`` is what admission reserves *before* kernels run; it uses
    only information a real scheduler would have: recorded chunk meta,
    storage sizes, and the observed output bytes of previously executed
    operators of the same class. Unknown inputs and never-seen operator
    classes count as one full chunk (``chunk_store_limit``) — deliberately
    conservative, so cold starts under-subscribe rather than OOM.

    History updates happen on the accounting walk only, keeping the
    estimates (and therefore admission waits) deterministic.
    """

    #: EWMA smoothing for observed output sizes.
    ALPHA = 0.5

    def __init__(self, config: "Config", meta: "MetaService",
                 storage: "StorageService"):
        self.config = config
        self.meta = meta
        self.storage = storage
        #: op class name -> smoothed observed per-output bytes.
        self._output_history: dict[str, float] = {}

    # -- prediction -------------------------------------------------------
    def input_bytes(self, subtask: Subtask) -> int:
        keys = list(subtask.input_keys)
        if not keys:
            return 0
        metas = self.meta.get_many(keys)
        total = 0
        unknown: list[str] = []
        for key in keys:
            meta = metas.get(key)
            if meta is not None and meta.nbytes is not None:
                total += int(meta.nbytes)
            else:
                unknown.append(key)
        if unknown:
            absent = set(self.storage.missing_keys(unknown))
            for key in unknown:
                if key in absent:
                    total += self.config.chunk_store_limit
                else:
                    total += self.storage.nbytes_of(key)
        return total

    def output_bytes(self, subtask: Subtask) -> int:
        producer: dict[str, str] = {}
        for chunk in subtask.chunks:
            if chunk.op is not None:
                producer[chunk.key] = type(chunk.op).__name__
        total = 0
        for key in subtask.output_keys:
            op_class = producer.get(key)
            known = self._output_history.get(op_class) if op_class else None
            if known is None:
                total += self.config.chunk_store_limit
            else:
                total += int(known)
        return total

    def estimate(self, subtask: Subtask) -> int:
        """Predicted transient footprint, commensurate with the
        executor's ``working_set`` (peak-factor applied)."""
        raw = self.input_bytes(subtask) + self.output_bytes(subtask)
        return int(PEAK_FACTOR * raw)

    # -- observation ------------------------------------------------------
    def observe(self, subtask: Subtask, sizes: dict[str, int]) -> None:
        """Fold a completed subtask's actual output sizes into the
        per-op-class history (accounting thread only)."""
        producer: dict[str, str] = {}
        for chunk in subtask.chunks:
            if chunk.op is not None:
                producer[chunk.key] = type(chunk.op).__name__
        for key in subtask.output_keys:
            op_class = producer.get(key)
            nbytes = sizes.get(key)
            if op_class is None or nbytes is None:
                continue
            old = self._output_history.get(op_class)
            if old is None:
                self._output_history[op_class] = float(nbytes)
            else:
                self._output_history[op_class] = (
                    (1.0 - self.ALPHA) * old + self.ALPHA * float(nbytes)
                )


class AdmissionDecision:
    """Outcome of one :meth:`MemoryAdmission.admit` call."""

    __slots__ = ("worker", "nbytes", "start", "wait", "active", "forced")

    def __init__(self, worker: str, nbytes: int, start: float, wait: float,
                 active: int, forced: bool):
        self.worker = worker
        #: bytes this grant reserves when committed.
        self.nbytes = nbytes
        #: admitted virtual start time (``ready_time + wait``).
        self.start = start
        #: virtual seconds of backpressure charged to the clock.
        self.wait = wait
        #: concurrent granted bytes still active at ``start``.
        self.active = active
        #: admitted oversubscribed after draining every grant — the
        #: deadlock guard fired (caller escalates to spill / OOM retry).
        self.forced = forced


class MemoryAdmission:
    """Per-worker virtual-time grant ledger (the backpressure core).

    A grant is ``(end_time, nbytes)``: the working set a subtask occupies
    until its virtual completion. ``admit`` computes how long a new
    request must wait for enough grants to end; ``commit`` records the
    admitted subtask's own grant once its completion time is known.

    All calls happen on a session's accounting walk; a stage boundary
    prunes the grants that ended by the stage's base time.
    """

    def __init__(self):
        #: worker -> sorted list of (end_time, nbytes) grants.
        self._grants: dict[str, list[tuple[float, int]]] = {}
        self.forced_admissions = 0
        self.total_wait = 0.0

    def begin_stage(self, base: float) -> None:
        """Drop the grants that ended at or before a stage's ``base``.

        A lone session's base is past every grant it committed, so the
        ledger starts the stage empty; on a shared cluster other
        sessions' grants still in flight at ``base`` survive.
        """
        for worker in list(self._grants):
            kept = [g for g in self._grants[worker] if g[0] > base]
            if kept:
                self._grants[worker] = kept
            else:
                del self._grants[worker]

    def active_bytes(self, worker: str, at: float) -> int:
        return sum(
            nbytes for end, nbytes in self._grants.get(worker, ())
            if end > at
        )

    def outstanding(self, at: float) -> int:
        """Total granted bytes still active anywhere at time ``at``."""
        return sum(
            self.active_bytes(worker, at) for worker in self._grants
        )

    def admit(self, worker: str, nbytes: int, ready_time: float,
              used: int, limit: int, allow_wait: bool) -> AdmissionDecision:
        """Grant ``nbytes`` on ``worker`` no earlier than ``ready_time``.

        ``allow_wait`` off reproduces the seed engine: the request is
        admitted at ``ready_time`` regardless of concurrent grants (the
        caller then spills or OOMs). With it on, the start is pushed past
        the earliest-ending grants until ``used + active + nbytes``
        fits — or every grant has ended, at which point the lone waiter
        is admitted even oversubscribed (the deadlock guard).
        """
        grants = self._grants.get(worker, ())
        start = ready_time
        active = sum(n for end, n in grants if end > start)
        if allow_wait:
            ends = sorted(end for end, _ in grants if end > start)
            for end in ends:
                if used + active + nbytes <= limit:
                    break
                start = end
                active = sum(n for e, n in grants if e > start)
        forced = used + active + nbytes > limit
        if forced and allow_wait:
            self.forced_admissions += 1
        wait = start - ready_time
        self.total_wait += wait
        return AdmissionDecision(worker, nbytes, start, wait, active, forced)

    def commit(self, decision: AdmissionDecision, end_time: float) -> None:
        """Record the admitted subtask's grant now that its virtual
        completion time is known."""
        grants = self._grants.setdefault(decision.worker, [])
        bisect.insort(grants, (end_time, decision.nbytes))


class MemoryPressure:
    """Facade owned by the executor: estimator + ledger."""

    def __init__(self, config: "Config", cluster: "ClusterState",
                 meta: "MetaService", storage: "StorageService"):
        self.cluster = cluster
        self.estimator = FootprintEstimator(config, meta, storage)
        self.admission = MemoryAdmission()

    def freest_worker(self, other_than: str) -> str | None:
        """The worker other than ``other_than`` with the most available
        budget (deterministic name tie-break) — where a subtask that ran
        out of memory on ``other_than`` retries. ``None`` on a
        one-worker cluster."""
        others = [t for t in self.cluster.memory.values()
                  if t.worker != other_than]
        if not others:
            return None
        return min(others,
                   key=lambda t: (-(t.limit - t.used), t.worker)).worker

    def dispatch_gate(self, order: list[Subtask]) -> "DispatchGate":
        """A wall-clock gate for one stage, with estimates snapshotted
        on the accounting thread before the band runner starts."""
        estimates = {s.key: self.estimator.estimate(s) for s in order}
        limits = {
            name: tracker.limit
            for name, tracker in self.cluster.memory.items()
        }
        return DispatchGate(estimates, limits)


class DispatchGate:
    """Wall-clock admission for the parallel band runner.

    Bounds the *real* concurrent kernel footprint per worker by the
    estimated sizes snapshotted at stage start. Purely a throttle on
    when pool threads run: simulated numbers never observe it. The
    deadlock guard mirrors the ledger's: a worker with nothing in
    flight admits its next subtask unconditionally, so dispatch always
    progresses.
    """

    def __init__(self, estimates: dict[str, int], limits: dict[str, int]):
        self._estimates = estimates
        self._limits = limits
        self._inflight_bytes: dict[str, int] = {}
        self._inflight_count: dict[str, int] = {}
        self._lock = threading.Lock()

    def try_start(self, subtask: Subtask) -> bool:
        """May this subtask's kernels start now? (Called under the
        dispatcher lock; must not block.)"""
        worker = worker_of_band(subtask.band)
        estimate = self._estimates.get(subtask.key, 0)
        limit = self._limits.get(worker)
        with self._lock:
            count = self._inflight_count.get(worker, 0)
            if count == 0:
                pass  # idle-worker guard: always admit
            elif limit is not None and (
                self._inflight_bytes.get(worker, 0) + estimate > limit
            ):
                return False
            self._inflight_count[worker] = count + 1
            self._inflight_bytes[worker] = (
                self._inflight_bytes.get(worker, 0) + estimate
            )
            return True

    def finish(self, subtask: Subtask) -> None:
        worker = worker_of_band(subtask.band)
        estimate = self._estimates.get(subtask.key, 0)
        with self._lock:
            self._inflight_count[worker] = max(
                0, self._inflight_count.get(worker, 0) - 1
            )
            self._inflight_bytes[worker] = max(
                0, self._inflight_bytes.get(worker, 0) - estimate
            )


def verify_memory_invariants(session: Any) -> None:
    """Post-run memory-accounting invariants (chaos & pressure tests).

    - every worker's tracked ``used`` equals the summed nbytes of its
      memory-resident items (no leaked or double-counted allocations);
    - no pins survive outside a subtask's accounting span;
    - the admission ledger holds no grant past the clock's makespan.

    Raises ``AssertionError`` with a precise message on violation.
    """
    storage = session.storage
    cluster = session.cluster
    for worker, tracker in cluster.memory.items():
        resident = storage.memory_bytes(worker)
        if tracker.used != resident:
            raise AssertionError(
                f"{worker}: tracker.used={tracker.used} != "
                f"resident bytes {resident}"
            )
    pinned = storage.pinned_keys()
    if pinned:
        raise AssertionError(f"pins survived the run: {pinned!r}")
    admission = session.executor.pressure.admission
    now = cluster.clock.makespan
    leftover = admission.outstanding(now)
    if leftover:
        raise AssertionError(
            f"admission ledger not drained: {leftover} bytes active "
            f"past makespan {now}"
        )
