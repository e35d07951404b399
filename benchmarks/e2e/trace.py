"""Outside-in tracing for the benchmark's ``--trace`` run.

Nothing inside ``src/`` records time, so the per-layer numbers come from
here: :func:`instrument` temporarily replaces each layer's *public*
callables (a method on its class, or the name a module imported with
``from x import f``) with a wrapper that records a span, and restores
every attribute on exit.  Spans live in memory; :func:`chrome_trace`
writes them out after the run.

A span's self time is its duration minus its direct children's.  The
parent stack is thread-local, so a band-runner thread's spans nest under
that thread's own open span, never under the dispatching thread's.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None  # index into Recorder.spans
    thread: int
    iteration: int
    nbytes: int = 0

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Recorder:
    """In-memory span sink shared by every wrapped callable."""

    def __init__(self):
        self.spans: list[Span] = []
        self.iteration = 0
        self._lock = threading.Lock()
        self._tls = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        span = Span(name, 0, 0, stack[-1] if stack else None,
                    threading.get_ident(), self.iteration)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span.start_ns = time.perf_counter_ns()
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            stack.pop()

    def iteration_span(self):
        """Root span of the next benchmark iteration; every span opened
        until the following call carries the new iteration id."""
        self.iteration += 1
        return self.span("iteration")

    def wrap(self, name: str, fn, nbytes=None):
        """``nbytes(args, result)`` sizes the call where bytes matter."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if nbytes is not None:
                    span.nbytes = nbytes(args, result)
                return result
        return traced


def span_floor_s() -> float:
    """Duration of one empty span: the recorder's resolution (~1 us)."""
    recorder = Recorder()
    with recorder.span("floor"):
        pass
    return recorder.spans[0].seconds


def _payload_bytes(payload) -> int:
    """Bytes of one procpool wire payload (pickle + buffers)."""
    data, inline, _name, lengths = payload
    return len(data) + sum(len(b) for b in inline or ()) + sum(lengths or ())


#: how the two procpool codec calls expose the payload they moved.
WIRE_BYTES = {
    "encode_payload": lambda args, result: _payload_bytes(result[0]),
    "decode_payload": lambda args, result: _payload_bytes(args[0]),
}


#: (module, owner class or None for a module-level name, attribute, span).
#: Module-level names are patched where they are *used*: ``session`` and
#: ``executor`` bind these functions with ``from x import f``.
TARGETS = [
    ("repro.core.session", "Session", "execute", "session.execute"),
    ("repro.core.session", "Session", "fetch", "session.fetch"),
    ("repro.core.session", None, "build_tileable_graph", "tiler.graph_build"),
    ("repro.core.session", None, "prune_columns", "pruning.prune"),
    ("repro.core.tiler", "TilingEngine", "tile", "tiler.tile"),
    ("repro.core.executor", "GraphExecutor", "execute", "executor.execute"),
    ("repro.core.executor", None, "fusion_groups", "fusion.groups"),
    ("repro.core.executor", None, "build_subtask_graph", "graph.subtask_build"),
    ("repro.core.executor", None, "compute_chunk_identities", "graph.identity"),
    ("repro.services.scheduling", "SchedulingService", "assign",
     "scheduling.assign"),
    ("repro.services.scheduling", "SchedulingService", "admit_subtask",
     "scheduling.admit"),
    ("repro.services.scheduling", "SchedulingService", "finish_subtask",
     "scheduling.admit"),
    ("repro.core.dispatch", "BandDispatcher", "wait_for", "dispatch.wait"),
    ("repro.services.runner", "SubtaskRunner", "compute", "runner.compute"),
    ("repro.services.runner", "SubtaskRunner", "precompute", "runner.compute"),
    ("repro.storage.service", "StorageService", "put", "storage.put"),
    ("repro.storage.service", "StorageService", "put_many", "storage.put"),
    ("repro.storage.service", "StorageService", "get", "storage.get"),
    ("repro.storage.service", "StorageService", "get_many", "storage.get"),
    ("repro.storage.service", "StorageService", "acquire_many", "storage.get"),
    ("repro.storage.service", "StorageService", "peek_values", "storage.get"),
    ("repro.storage.shuffle", "ShuffleManager", "register_partitions",
     "shuffle.register"),
    ("repro.storage.shuffle", "ShuffleManager", "gather", "shuffle.gather"),
    ("repro.services.cache", "ResultCacheService", "lookup_many",
     "cache.lookup"),
    ("repro.services.cache", "ResultCacheService", "record_many",
     "cache.record"),
    ("repro.core.procpool", "ProcPoolClient", "run_subtask",
     "procpool.run_subtask"),
    ("repro.core.procpool", None, "encode_payload", "procpool.encode"),
    ("repro.core.procpool", None, "decode_payload", "procpool.decode"),
] + [
    (module, cls, method, span)
    for module, cls in (("repro.engine.row", "RowEngine"),
                        ("repro.engine.columnar", "ColumnarEngine"))
    for method, span in (("hash_partition", "engine.partition"),
                         ("range_partition", "engine.partition"),
                         ("split", "engine.partition"),
                         ("persist", "engine.persist"),
                         ("compute", "engine.compute"))
]


def target_owner(module_name: str, cls_name: str | None):
    """The object whose attribute a :data:`TARGETS` row replaces."""
    module = importlib.import_module(module_name)
    return module if cls_name is None else getattr(module, cls_name)


@contextmanager
def instrument(recorder: Recorder):
    """Wrap every :data:`TARGETS` callable; restore all of them on exit."""
    patched = []
    try:
        for module_name, cls_name, attr, span_name in TARGETS:
            owner = target_owner(module_name, cls_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, recorder.wrap(span_name, original,
                                               WIRE_BYTES.get(attr)))
            patched.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

@dataclass
class LayerTotals:
    """Per-span-name sums for one traced iteration."""

    total_s: dict[str, float]   # outermost spans only (no self-nesting)
    self_s: dict[str, float]    # duration minus direct children
    count: dict[str, int]
    nbytes: dict[str, int]


def layer_totals(spans: list[Span], iteration: int) -> LayerTotals:
    child_s: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.iteration == iteration and span.parent is not None:
            child_s[span.parent] += span.seconds
    total = defaultdict(float)
    self_s = defaultdict(float)
    count = defaultdict(int)
    nbytes = defaultdict(int)
    for index, span in enumerate(spans):
        if span.iteration != iteration:
            continue
        self_s[span.name] += span.seconds - child_s[index]
        count[span.name] += 1
        nbytes[span.name] += span.nbytes
        # put_many -> put style nesting must not count the time twice
        if span.parent is None or spans[span.parent].name != span.name:
            total[span.name] += span.seconds
    return LayerTotals(total, self_s, count, nbytes)


def chrome_trace(spans: list[Span]) -> dict:
    """The spans as Chrome-trace ``X`` events (load in Perfetto or
    ``chrome://tracing``); ``args`` keeps parent and iteration ids."""
    origin = min((s.start_ns for s in spans), default=0)
    return {"traceEvents": [
        {"name": s.name, "cat": s.name.split(".")[0], "ph": "X",
         "ts": (s.start_ns - origin) / 1e3,
         "dur": (s.end_ns - s.start_ns) / 1e3,
         "pid": 0, "tid": s.thread,
         "args": {"id": index, "parent": s.parent, "iteration": s.iteration}}
        for index, s in enumerate(spans)
    ]}
