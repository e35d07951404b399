"""Event-driven parallel subtask dispatch: the per-band ready queue.

Each subtask has two halves (see ``GraphExecutor``):

- the **compute phase** — the kernel loop
  (``services.runner.run_subtask_kernels``) turning input values into a
  :class:`SubtaskComputation` record — is embarrassingly parallel
  across independent subtasks and is what this module schedules;
- the **accounting replay** — storage puts/gets with transfer charging,
  memory admission/spill, meta records, virtual-clock advances and
  reference-count cleanup, driven by replaying that record — stays on
  the caller's thread in deterministic topological order, so
  ``SimReport`` numbers are bit-identical wherever the record came from.

:func:`should_use_parallel` is the structural gate deciding which stages
of a process-mode session come here at all: ≥ 8 subtasks on ≥ 2 bands,
the only shape where overlap can repay the hand-off. Every other stage
computes inline through its band's runner, feeding the very same
accounting loop.

The dispatcher is the classic event-driven ready queue of the paper's
scheduling service (Section V-B): per-subtask indegree counters seed a
ready set with zero-dependency subtasks; every completion decrements its
successors and enqueues newly-ready work. Each *band* of the simulated
cluster owns one logical execution slot — a band runs its assigned
subtasks one at a time, in the scheduler's priority order, preserving
the band assignment and locality decisions already made.

The executor's ``compute`` runs no kernel on a pool thread: the thread
gathers its subtask's inputs, encodes them and waits on the worker
process pool (``repro.core.procpool``), where kernels overlap outside
the GIL.
"""

from __future__ import annotations

import heapq
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from ..errors import DispatcherError, DispatcherStall
from ..graph.dag import DAG
from ..graph.subtask import Subtask

# ---------------------------------------------------------------------------
# shared worker pool
# ---------------------------------------------------------------------------
# One process-wide pool backs every simulated cluster: per-band slot
# gating (below) bounds how much of it a single stage can occupy, and
# sharing avoids leaking one pool per short-lived Session (the test
# suite creates hundreds).

_pool_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None


def shared_pool() -> ThreadPoolExecutor:
    """The lazily-created process-wide band-runner thread pool.

    One thread per host core: dispatch threads mostly wait on IPC, and
    the per-band slots bound how much of the pool one stage can occupy.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=os.cpu_count() or 1,
                thread_name_prefix="band-runner",
            )
        return _pool


#: a stage with fewer subtasks than this computes inline: starting a
#: dispatcher and handing every record across threads costs more than so
#: few subtasks can win back by overlapping.
MIN_DISPATCH_SUBTASKS = 8


def should_use_parallel(order: list[Subtask]) -> bool:
    """The structural dispatch gate: can this stage win by overlapping?

    The dispatcher's only payoff is overlap between bands, so a stage
    goes through it exactly when it has at least
    :data:`MIN_DISPATCH_SUBTASKS` subtasks placed on at least two bands;
    a smaller or single-band stage takes the inline compute phase. The
    gate reads the stage alone — never the host, never the config.
    Simulated numbers are unaffected either way — both sources feed the
    same accounting replay — so the gate only ever trades wall-clock.
    """
    return (len(order) >= MIN_DISPATCH_SUBTASKS
            and len({s.band for s in order}) >= 2)


class SubtaskComputation:
    """Kernel results of one subtask's compute phase.

    The accounting walk replays this record; it never calls a kernel
    itself. A fused step (two or more ops) contributes only its final
    op's result: the chain's intermediates are never replayed.
    """

    __slots__ = ("op_results", "op_extra_meta", "outputs")

    def __init__(self, op_results: dict[int, Any],
                 op_extra_meta: dict[int, dict[str, dict]],
                 outputs: dict[str, Any]):
        #: ``id(op)`` -> the (persisted) value the op's kernel returned.
        self.op_results = op_results
        #: ``id(op)`` -> the ``ExecContext.extra_meta`` it produced.
        self.op_extra_meta = op_extra_meta
        #: the subtask's output chunk values by key.
        self.outputs = outputs


class BandDispatcher:
    """Ready-queue dispatcher with one logical slot per band.

    ``compute`` is called on a pool thread with ``(subtask, inputs)``
    where ``inputs`` maps every input key to its value; stage-produced
    values come from the dispatcher's in-flight cache, anything older
    from ``fetch`` (an accounting-free storage read).

    The caller drains results in its own (topological) order via
    :meth:`wait_for`; compute-phase exceptions are re-raised there, at
    the failing subtask's position, so error surfacing matches the
    serial walk.
    """

    def __init__(self, graph: DAG[Subtask], order: list[Subtask],
                 compute: Callable[[Subtask, dict[str, Any]], SubtaskComputation],
                 fetch: Callable[[list[str]], dict[str, Any]],
                 pool: ThreadPoolExecutor | None = None,
                 gate=None, watchdog: float = 60.0):
        self._graph = graph
        self._order = order
        self._compute = compute
        self._fetch = fetch
        self._pool = pool if pool is not None else shared_pool()
        #: wall-clock seconds per liveness window: ``wait_for`` re-checks
        #: progress at this period and raises :class:`DispatcherStall`
        #: after two consecutive windows with zero completions.
        self._watchdog = max(float(watchdog), 0.001)
        #: optional wall-clock memory gate (``DispatchGate``): a band's
        #: ready subtask only starts when its estimated footprint fits
        #: the worker's in-flight budget. Purely reorders real kernel
        #: execution — simulated numbers never observe it.
        self._gate = gate
        self._lock = threading.Lock()
        self._event = threading.Condition(self._lock)
        #: per-key conditions (sharing ``_lock``): ``wait_for`` blocks on
        #: its key's condition and every state change signals exactly the
        #: affected keys — no timed polling loops.
        self._key_conds: dict[str, threading.Condition] = {}
        self._position = {s.key: i for i, s in enumerate(order)}
        self._indegree = {s.key: graph.in_degree(s) for s in order}
        self._records: dict[str, SubtaskComputation] = {}
        self._errors: dict[str, BaseException] = {}
        #: band name -> heap of (priority, position, subtask) ready to run.
        self._band_queues: dict[str, list[tuple[int, int, Subtask]]] = {}
        self._band_busy: set[str] = set()
        #: chunk values produced by this stage, kept while in-stage
        #: consumers still need them for their compute phase.
        self._values: dict[str, Any] = {}
        self._value_consumers: dict[str, int] = {}
        produced = {key for s in order for key in s.output_keys}
        for subtask in order:
            for key in subtask.input_keys:
                if key in produced:
                    self._value_consumers[key] = (
                        self._value_consumers.get(key, 0) + 1
                    )
        self._inflight = 0
        self._stopped = False
        #: total completions, for the zero-progress stall watchdog.
        self._completions = 0
        #: fatal pool-level failure (submit failed, completion bookkeeping
        #: raised): surfaced to every waiter as DispatcherError.
        self._poisoned: BaseException | None = None
        #: poisoned key -> keys of the failed root subtasks that poisoned
        #: it; resolve() lifts marks owed to a recovered root.
        self._poison_root: dict[str, set[str]] = {}

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Seed the ready set and dispatch onto idle bands."""
        with self._lock:
            for subtask in self._order:
                if self._indegree[subtask.key] == 0:
                    self._enqueue(subtask)
            self._dispatch_ready()

    def wait_for(self, key: str) -> SubtaskComputation:
        """Block until ``key``'s compute phase finished; re-raise its error.

        Never blocks forever: a poisoned pool (runner thread died in its
        completion bookkeeping, or submit itself failed), a stopped
        dispatcher, or a stalled graph (nothing in flight and nothing
        queued while ``key`` is still absent) all raise
        :class:`DispatcherError` instead of hanging the caller.

        Blocking is per-key condition signaling, not a poll loop: every
        completion/failure/poison/stop notifies the affected keys' (or
        all) conditions; the watchdog window bounds how long a wedged
        runner can wedge the walk — two consecutive windows with zero
        completions raise :class:`DispatcherStall` with the blocked key
        and queue state instead of silently re-waiting forever.
        """
        with self._lock:
            cond = self._key_conds.get(key)
            if cond is None:
                cond = self._key_conds[key] = threading.Condition(self._lock)
            stalled_windows = 0
            try:
                while True:
                    error = self._errors.get(key)
                    if error is not None:
                        raise error
                    record = self._records.get(key)
                    if record is not None:
                        return record
                    if self._poisoned is not None:
                        raise DispatcherError(
                            f"band runner pool failed while waiting for "
                            f"{key!r}: {self._poisoned!r}"
                        ) from self._poisoned
                    if self._stopped:
                        raise DispatcherError(
                            f"dispatcher stopped while waiting for {key!r}"
                        )
                    if self._inflight == 0 and not any(
                        self._band_queues.values()
                    ):
                        raise DispatcherError(
                            f"dispatcher stalled waiting for {key!r}: nothing "
                            "in flight and nothing queued"
                        )
                    before = self._completions
                    notified = cond.wait(timeout=self._watchdog)
                    if notified or self._completions != before:
                        stalled_windows = 0
                    else:
                        stalled_windows += 1
                        if stalled_windows >= 2:
                            queued = {band: len(q) for band, q
                                      in self._band_queues.items() if q}
                            raise DispatcherStall(
                                key, stalled_windows * self._watchdog,
                                self._inflight, queued)
            finally:
                self._key_conds.pop(key, None)

    def resolve(self, subtask: Subtask) -> None:
        """Clear a failed subtask the caller has recovered inline.

        The accounting thread catches a retryable compute failure from
        :meth:`wait_for`, re-executes the subtask (and any lost
        producers) itself, stores the outputs, then calls this: poison
        marks owed to the failed root are lifted, its successors'
        indegrees are decremented exactly as a normal completion would
        have done, and dispatch resumes — descendants read the recovered
        outputs from storage via the accounting-free ``fetch``.
        """
        with self._event:
            root = subtask.key
            for key in list(self._poison_root):
                roots = self._poison_root[key]
                if root in roots:
                    roots.discard(root)
                    if not roots:
                        del self._poison_root[key]
                        self._errors.pop(key, None)
            for key in subtask.input_keys:
                remaining = self._value_consumers.get(key)
                if remaining is not None:
                    remaining -= 1
                    self._value_consumers[key] = remaining
                    if remaining <= 0:
                        self._values.pop(key, None)
            for succ in self._graph.successors(subtask):
                self._indegree[succ.key] -= 1
                if self._indegree[succ.key] == 0:
                    self._enqueue(succ)
            self._dispatch_ready()
            self._event.notify_all()
            self._signal_keys()

    def discard(self, key: str) -> None:
        """Drop a consumed record so intermediates can be collected."""
        with self._lock:
            self._records.pop(key, None)

    def shutdown(self) -> None:
        """Stop dispatching new work and wait for in-flight computes.

        Event-driven: every completion notifies the dispatcher
        condition, so the wait wakes exactly when progress happens; the
        timeout is a watchdog for a runner thread that vanished without
        reporting completion (half a watchdog window of zero progress
        stops the wait instead of deadlocking the caller).
        """
        with self._event:
            self._stopped = True
            self._signal_keys()
            while self._inflight > 0 and self._poisoned is None:
                before = self._inflight
                notified = self._event.wait(timeout=self._watchdog / 2.0)
                if notified or self._inflight != before:
                    continue
                break
            self._records.clear()
            self._values.clear()
            for queue in self._band_queues.values():
                queue.clear()

    # -- internals (all called with self._lock held) ---------------------
    def _signal_keys(self, keys=None) -> None:
        """Wake waiters: the given keys' conditions, or every waiter."""
        if keys is None:
            for cond in self._key_conds.values():
                cond.notify_all()
            return
        for key in keys:
            cond = self._key_conds.get(key)
            if cond is not None:
                cond.notify_all()

    def _enqueue(self, subtask: Subtask) -> None:
        band = subtask.band or ""
        queue = self._band_queues.setdefault(band, [])
        heapq.heappush(
            queue,
            (subtask.priority, self._position[subtask.key], subtask),
        )

    def _dispatch_ready(self) -> None:
        if self._stopped:
            return
        for band, queue in self._band_queues.items():
            if queue and band not in self._band_busy:
                # peek before popping: a gate refusal leaves the subtask
                # queued for the next completion's dispatch round. The
                # gate's idle-worker guard guarantees progress.
                subtask = queue[0][2]
                if self._gate is not None and not self._gate.try_start(subtask):
                    continue
                heapq.heappop(queue)
                self._band_busy.add(band)
                self._inflight += 1
                try:
                    self._pool.submit(self._run, subtask)
                except BaseException as exc:  # pool shut down / saturated
                    self._inflight -= 1
                    self._band_busy.discard(band)
                    if self._gate is not None:
                        self._gate.finish(subtask)
                    self._set_poisoned(exc)
                    return

    # -- pool-thread side -------------------------------------------------
    def _run(self, subtask: Subtask) -> None:
        record: SubtaskComputation | None = None
        error: BaseException | None = None
        try:
            inputs = self._gather(subtask)
            record = self._compute(subtask, inputs)
        except BaseException as exc:  # noqa: BLE001 — re-raised in wait_for
            error = exc
        try:
            self._complete(subtask, record, error)
        except BaseException as exc:  # noqa: BLE001 — completion bookkeeping
            # died: without this every wait_for caller would hang forever
            # on a completion that will never be delivered.
            self._poison_pool(exc)

    def _gather(self, subtask: Subtask) -> dict[str, Any]:
        inputs: dict[str, Any] = {}
        missing: list[str] = []
        with self._lock:
            for key in subtask.input_keys:
                if key in self._values:
                    inputs[key] = self._values[key]
                else:
                    missing.append(key)
        if missing:
            inputs.update(self._fetch(missing))
        return inputs

    def _complete(self, subtask: Subtask,
                  record: SubtaskComputation | None,
                  error: BaseException | None) -> None:
        with self._event:
            self._inflight -= 1
            self._completions += 1
            self._band_busy.discard(subtask.band or "")
            if self._gate is not None:
                self._gate.finish(subtask)
            if error is None:
                assert record is not None
                try:
                    self._records[subtask.key] = record
                    for key, value in record.outputs.items():
                        if self._value_consumers.get(key, 0) > 0:
                            self._values[key] = value
                    for key in subtask.input_keys:
                        remaining = self._value_consumers.get(key)
                        if remaining is not None:
                            remaining -= 1
                            self._value_consumers[key] = remaining
                            if remaining <= 0:
                                self._values.pop(key, None)
                    for succ in self._graph.successors(subtask):
                        self._indegree[succ.key] -= 1
                        if self._indegree[succ.key] == 0:
                            self._enqueue(succ)
                except BaseException as exc:  # noqa: BLE001 — surfaced in wait_for
                    self._records.pop(subtask.key, None)
                    error = exc
            if error is not None:
                self._fail(subtask, error)
            self._dispatch_ready()
            self._event.notify_all()
            if error is None and self._inflight > 0:
                self._signal_keys([subtask.key])
            else:
                # failures poison descendants and a drained pool flips
                # the stall predicate for every waiter — wake them all.
                self._signal_keys()

    def _fail(self, subtask: Subtask, error: BaseException) -> None:
        # Descendants can never become ready (their indegree never hits
        # zero); mark them with the same error so wait_for does not hang.
        # Every mark remembers which failed root caused it, so resolve()
        # can lift exactly the marks owed to a recovered root.
        stack = [subtask]
        while stack:
            node = stack.pop()
            roots = self._poison_root.setdefault(node.key, set())
            if subtask.key in roots:
                continue
            roots.add(subtask.key)
            if node.key not in self._errors:
                self._errors[node.key] = error
            stack.extend(self._graph.successors(node))

    def _set_poisoned(self, error: BaseException) -> None:
        # called with self._lock held
        if self._poisoned is None:
            self._poisoned = error
        self._event.notify_all()
        self._signal_keys()

    def _poison_pool(self, error: BaseException) -> None:
        with self._event:
            self._set_poisoned(error)
