"""Process-pool subtask execution with zero-copy chunk exchange.

One interpreter serializes every pure-Python/pandas kernel on its GIL.
This module moves the *compute phase* of a subtask into a persistent
pool of spawned worker processes, so those kernels genuinely run in
parallel, while keeping the accounting phase untouched on the
dispatching thread — simulated numbers stay bit-identical to serial
mode.

Wire protocol
-------------

A payload (subtask + inputs on the way out, kernel results on the way
back) is pickled with protocol 5 and *out-of-band buffers*
(``cloudpickle.dumps(obj, buffer_callback=...)``).  The buffer bytes —
the actual chunk data — travel one of two ways:

- **inline** (total buffer bytes below ``INLINE_THRESHOLD``):
  copied into the pickle message itself.  One small copy beats an shm
  segment's syscall overhead;
- **shared memory** (at or above the threshold): all buffers are packed
  into a single ``multiprocessing.shared_memory`` segment; the message
  carries only the segment name and buffer lengths.  The receiver maps
  the segment and reconstructs the object over ``memoryview`` slices —
  ndarray-backed chunks cross the process boundary without a copy in
  either direction.

Chunks cross as the values kernels computed on; a string column's
dictionary (``frame.dtypes.DictArray``) is left behind and the column
crosses as its plain cells, so the columnar engine's ``persist`` hashes
it again on the other side.

Ownership rules (POSIX ``SharedMemory`` registers with the resource
tracker on *every* init, create and attach alike):

- the **parent** owns every unlink.  Input segments are unlinked as soon
  as the subtask's future settles; result segments are unlinked right
  after the parent attaches (the mapping stays valid until closed);
- the **child** never talks to the resource tracker: registration is
  suppressed around its ``SharedMemory`` inits.  Workers share the
  parent's tracker process, and a child's register/unregister messages
  interleave arbitrarily with the parent's for the same segment name —
  the only race-free protocol is for exactly one process (the parent,
  whose own messages are pipe-ordered) to ever mention a name;
- ``close()`` of a mapped segment is *deferred* while zero-copy views
  into it are alive (:class:`SharedMemoryArena` retries on the next
  sweep and at shutdown).

A worker process dying (OOM-killed, segfault, ``os._exit``) surfaces as
:class:`~repro.errors.WorkerProcessCrash`; the pool is rebuilt and the
accounting walk re-runs the subtask's kernels inline — the same
lineage-recoverable fault path every other compute failure takes.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
from contextlib import contextmanager, nullcontext
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context, resource_tracker, shared_memory
from typing import Any

from ..errors import WorkerProcessCrash

try:  # the kernels close over lambdas; plain pickle cannot ship those
    import cloudpickle as _pickler
except ImportError:  # pragma: no cover - baked into the image
    _pickler = pickle

PROTOCOL = 5
#: chunk payloads at or above this many bytes cross the process boundary
#: through one shared-memory segment; smaller ones ship as inline pickle
#: bytes — the copy is cheaper than an shm segment. Measured, not
#: chosen: ``benchmarks/bench_ipc.py`` finds the crossover.
INLINE_THRESHOLD = 64 * 1024


def iter_subtask_ops(subtask) -> list:
    """A subtask's distinct ops in first-appearance chunk order.

    The deterministic op numbering both sides of the process boundary
    agree on: ``SubtaskComputation.op_results`` is keyed by ``id(op)``,
    which does not survive pickling, so the child keys results by this
    index and the parent maps them back onto its own op objects.
    """
    seen: set[int] = set()
    ops: list = []
    for chunk in subtask.chunks:
        op = chunk.op
        if op is None or id(op) in seen:
            continue
        seen.add(id(op))
        ops.append(op)
    return ops


class SharedMemoryArena:
    """Deferred-close registry for mapped shared-memory segments.

    Zero-copy decode hands out objects whose buffers live inside a
    mapped segment; ``close()`` on such a segment raises ``BufferError``
    until every view dies.  The arena keeps those handles and retries on
    each sweep — a segment that is still exporting views simply waits
    for the next one (or for interpreter teardown).
    """

    def __init__(self):
        self._segments: list[shared_memory.SharedMemory] = []

    def adopt(self, shm: shared_memory.SharedMemory) -> None:
        self._segments.append(shm)

    def sweep(self) -> None:
        remaining = []
        for shm in self._segments:
            try:
                shm.close()
            except BufferError:
                remaining.append(shm)
        self._segments = remaining

    def __len__(self) -> int:
        return len(self._segments)


@contextmanager
def _untracked():
    """Suppress resource-tracker registration inside the block.

    Used by pool workers around every ``SharedMemory`` init (Python
    3.11 registers on attach as well as create): the tracker process is
    shared with the parent, and register/unregister messages from
    different processes for the same name interleave arbitrarily — so
    only the parent may ever register or unregister a segment.  Workers
    run one task at a time on one thread, so the patch cannot race.
    """
    original = resource_tracker.register
    resource_tracker.register = lambda name, rtype: None
    try:
        yield
    finally:
        resource_tracker.register = original


def encode_payload(obj: Any, threshold: int, *, child: bool = False):
    """Pickle ``obj`` for the other side; returns ``(payload, shm)``.

    ``payload`` is ``(data, inline_buffers, shm_name, lengths)``.  When
    the protocol-5 out-of-band buffers total at least ``threshold``
    bytes they are packed into one fresh segment (returned as ``shm``,
    still owned by the caller); smaller payloads inline the buffer bytes
    and return ``shm = None``.
    """
    buffers: list[pickle.PickleBuffer] = []
    data = _pickler.dumps(obj, protocol=PROTOCOL,
                          buffer_callback=buffers.append)
    raws = [buf.raw() for buf in buffers]
    total = sum(raw.nbytes for raw in raws)
    if not raws or total < threshold:
        return (data, [bytes(raw) for raw in raws], None, None), None
    with _untracked() if child else nullcontext():
        shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
    lengths: list[int] = []
    offset = 0
    for raw in raws:
        n = raw.nbytes
        shm.buf[offset:offset + n] = raw
        lengths.append(n)
        offset += n
    for buf in buffers:
        buf.release()
    return (data, None, shm.name, lengths), shm


def decode_payload(payload, *, child: bool = False, unlink: bool = False):
    """Rebuild the object; returns ``(obj, shm)``.

    ``shm`` (``None`` for inline payloads) is the mapped segment backing
    the object's buffers zero-copy — the caller must adopt it into an
    arena so its close is deferred past the object's lifetime.  With
    ``unlink=True`` (parent decoding results) the segment name is
    released immediately; the mapping stays readable until closed.
    """
    data, inline, name, lengths = payload
    if name is None:
        return pickle.loads(data, buffers=inline), None
    with _untracked() if child else nullcontext():
        shm = shared_memory.SharedMemory(name=name)
    views = []
    offset = 0
    for n in lengths:
        views.append(shm.buf[offset:offset + n])
        offset += n
    obj = pickle.loads(data, buffers=views)
    if unlink:
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - raced cleanup
            pass
    return obj, shm


# ---------------------------------------------------------------------------
# worker side — module-level so spawn children can import it
# ---------------------------------------------------------------------------

_worker_arena = SharedMemoryArena()


def _worker_initialize(sys_paths: list[str]) -> None:
    """Spawn initializer: make the repo importable in the fresh child."""
    for path in reversed(sys_paths):
        if path not in sys.path:
            sys.path.insert(0, path)


def _worker_ping() -> int:
    """No-op task used to force worker startup (``ProcPoolClient.warm``)."""
    return os.getpid()


def _worker_run(payload):
    """Run one subtask's kernels in the pool worker.

    Decodes ``(subtask, inputs, config)``, runs the shared kernel loop,
    and returns an encoded ``{op_results, op_extra, outputs}`` record
    with op results keyed by the deterministic op index (see
    :func:`iter_subtask_ops`).  The whole record is one pickle, so
    values shared between ``op_results`` and ``outputs`` keep their
    identity across the boundary.
    """
    from ..services.runner import run_subtask_kernels

    # previous calls' zero-copy views are dead by now; release their maps.
    _worker_arena.sweep()
    (subtask, inputs, config), in_shm = decode_payload(payload, child=True)
    if in_shm is not None:
        _worker_arena.adopt(in_shm)
    record = run_subtask_kernels(subtask, inputs, config)
    ops = iter_subtask_ops(subtask)
    result = {
        "op_results": {
            index: record.op_results[id(op)]
            for index, op in enumerate(ops)
            if id(op) in record.op_results
        },
        "op_extra": {
            index: record.op_extra_meta[id(op)]
            for index, op in enumerate(ops)
            if id(op) in record.op_extra_meta
        },
        "outputs": record.outputs,
    }
    out_payload, out_shm = encode_payload(
        result, INLINE_THRESHOLD, child=True,
    )
    if out_shm is not None:
        try:
            out_shm.close()  # data persists until the parent unlinks it
        except BufferError:  # pragma: no cover
            _worker_arena.adopt(out_shm)
    return out_payload


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


class ProcPoolClient:
    """One cluster's handle on the persistent worker process pool.

    Lazy: the executor (and its spawn cost) materializes on the first
    subtask — sessions that never enter process mode pay nothing.
    Thread-safe: band-runner threads submit concurrently; a
    ``BrokenProcessPool`` rebuilds the executor once and surfaces as
    :class:`WorkerProcessCrash` to every submit that hit the dead pool.
    """

    def __init__(self, config):
        self.config = config
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None
        self._arena = SharedMemoryArena()
        #: worker-process deaths observed (chaos tests assert on this).
        self.crashes = 0

    # -- pool lifecycle -------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                # one slot per band and ``cpu_count`` dispatch threads:
                # no more children than that can ever be busy.
                self._executor = ProcessPoolExecutor(
                    max_workers=min(os.cpu_count() or 1,
                                    self.config.cluster.n_bands),
                    mp_context=get_context("spawn"),
                    initializer=_worker_initialize,
                    initargs=(list(sys.path),),
                )
            return self._executor

    def _handle_crash(self, broken: ProcessPoolExecutor) -> None:
        with self._lock:
            self.crashes += 1
            if self._executor is broken:
                self._executor = None
        try:
            broken.shutdown(wait=False)
        except Exception:  # pragma: no cover
            pass

    def warm(self) -> int:
        """Spawn every worker now; returns the worker count.

        Benchmarks call this before starting timers so measured speedup
        reflects steady-state execution, not interpreter spawn cost.
        """
        executor = self._ensure_executor()
        count = executor._max_workers  # noqa: SLF001
        futures = [executor.submit(_worker_ping) for _ in range(count)]
        for future in futures:
            future.result()
        return count

    def close(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        self._arena.sweep()

    # -- the data plane -------------------------------------------------
    def run_subtask(self, subtask, inputs: dict[str, Any], config):
        """Execute one subtask's kernels in a pool worker.

        Kernel exceptions propagate with their original type (matching
        the inline path); a dead worker raises :class:`WorkerProcessCrash`.
        """
        from .dispatch import SubtaskComputation

        payload, in_shm = encode_payload(
            (subtask, inputs, config), INLINE_THRESHOLD,
        )
        executor = self._ensure_executor()
        try:
            out_payload = executor.submit(_worker_run, payload).result()
        except BrokenProcessPool as exc:
            self._handle_crash(executor)
            raise WorkerProcessCrash(subtask.band or "?", str(exc)) from exc
        finally:
            if in_shm is not None:
                try:
                    in_shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
                in_shm.close()  # no local views: the parent only wrote
        self._arena.sweep()
        result, out_shm = decode_payload(out_payload, unlink=True)
        if out_shm is not None:
            self._arena.adopt(out_shm)
        ops = iter_subtask_ops(subtask)
        op_results = {
            id(ops[index]): value
            for index, value in result["op_results"].items()
        }
        op_extra = {
            id(ops[index]): value
            for index, value in result["op_extra"].items()
        }
        return SubtaskComputation(op_results, op_extra, result["outputs"])
