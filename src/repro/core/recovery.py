"""Lineage-based fault recovery: deterministic injection + recompute planning.

Two pieces live here:

- :class:`FaultInjector` — a seeded chaos source that can fail a
  subtask's compute, drop a stored chunk, or kill a worker, either at
  configured rates (``Config.faults``) or at scripted injection points.
  Every decision hashes a *structural* identity — (stage index,
  topological priority, attempt) — never a runtime key or call order, so
  for one seed the same faults fire in serial and parallel execution
  mode and across separate sessions running the same workload. That is
  what makes faulted ``SimReport``s bit-identical between modes.

- :class:`RecoveryManager` — the lineage registry. Every executed
  subtask is recorded by its output chunk keys; when a consumer finds an
  input missing (dropped chunk, killed worker, refcount-freed shuffle
  partition), :meth:`RecoveryManager.plan` walks the lineage backwards
  to the minimal set of producers whose re-execution restores the
  missing data — pulling in transitive producers whose own inputs are
  gone too — and returns them in a valid execution order. The paper's
  subtask graph (Section III-C) provides exactly this lineage; the
  recomputation strategy follows GraphX-style lineage recovery
  (PAPERS.md).

The executor (``core.executor``) owns the retry loop, backoff
accounting, and the actual re-execution; injection decisions and the
lineage walk are kept here so they stay side-effect free and testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..config import FaultSpec
from ..errors import UnrecoverableChunkLoss
from ..graph.identity import structural_draw
from ..graph.subtask import Subtask

#: a squeezed worker keeps this fraction of its memory budget while the
#: fault is active.
MEMORY_SQUEEZE_FACTOR = 0.5


@dataclass
class FaultEvent:
    """One fired injection, kept for reports and tests."""

    point: str      # "compute" | "chunk_loss" | "worker_kill" | "mem_squeeze"
    target: str     # subtask key / chunk key / worker name
    stage: int
    priority: int
    detail: str = ""


class FaultInjector:
    """Deterministic, seeded fault source; each session owns one.

    Rate draws hash ``(seed, point, stage, priority, ...)`` into a
    uniform ``[0, 1)`` value compared against the configured rate.
    Scripted injections (tests, benchmarks) name the exact structural
    identity to hit; predicate hooks inspect the live subtask. All
    decision points are evaluated only on the executor's deterministic
    accounting walk, never on band-runner threads.
    """

    def __init__(self, spec: FaultSpec | None = None):
        self.spec = spec if spec is not None else FaultSpec()
        #: every injection that fired, in accounting order.
        self.events: list[FaultEvent] = []
        self._scripted: set[tuple] = set()
        #: scripted squeeze identities -> budget factor override.
        self._scripted_squeeze: dict[tuple, float] = {}
        self._compute_hooks: list[Callable[[Subtask, int], bool]] = []
        self._loss_hooks: list[Callable[[Subtask, str], bool]] = []
        self._kill_hooks: list[Callable[[Subtask], bool]] = []
        #: scripted actor kills: (stage, priority) -> uids to crash
        #: right after that subtask completes (accounting walk).
        self._scripted_actor_kills: dict[tuple[int, int], list[str]] = {}

    @property
    def enabled(self) -> bool:
        # Once any injection has fired the injector stays enabled even
        # after its scripted points are consumed: a chunk lost in an
        # earlier stage must still be caught by the recovery wrapper's
        # missing-input pre-check in later stages.
        return (self.spec.any_rate or bool(self._scripted)
                or bool(self._scripted_squeeze)
                or bool(self._scripted_actor_kills)
                or bool(self._compute_hooks) or bool(self._loss_hooks)
                or bool(self._kill_hooks) or bool(self.events))

    # -- deterministic draws ----------------------------------------------
    def _draw(self, *identity) -> float:
        """Uniform [0, 1) value derived from the seed and an identity."""
        return structural_draw(self.spec.seed, *identity)

    # -- decision points ---------------------------------------------------
    def fail_compute(self, subtask: Subtask, attempt: int) -> bool:
        """Should this attempt of ``subtask`` fail before doing any work?"""
        ident = ("compute", subtask.stage_index, subtask.priority, attempt)
        fired = ident in self._scripted
        if fired:
            self._scripted.discard(ident)
        if not fired and any(h(subtask, attempt) for h in self._compute_hooks):
            fired = True
        if not fired and self.spec.compute_fault_rate > 0.0:
            fired = self._draw(*ident) < self.spec.compute_fault_rate
        if fired:
            self.events.append(FaultEvent(
                "compute", subtask.key, subtask.stage_index,
                subtask.priority, detail=f"attempt {attempt}",
            ))
        return fired

    def drop_chunk(self, subtask: Subtask, out_index: int, key: str) -> bool:
        """Should this freshly stored output chunk be lost?"""
        ident = ("chunk_loss", subtask.stage_index, subtask.priority, out_index)
        fired = ident in self._scripted
        if fired:
            self._scripted.discard(ident)
        if not fired and any(h(subtask, key) for h in self._loss_hooks):
            fired = True
        if not fired and self.spec.chunk_loss_rate > 0.0:
            fired = self._draw(*ident) < self.spec.chunk_loss_rate
        if fired:
            self.events.append(FaultEvent(
                "chunk_loss", key, subtask.stage_index, subtask.priority,
            ))
        return fired

    def kill_worker_after(self, subtask: Subtask) -> bool:
        """Should the worker that just ran ``subtask`` crash?"""
        ident = ("worker_kill", subtask.stage_index, subtask.priority)
        fired = ident in self._scripted
        if fired:
            self._scripted.discard(ident)
        if not fired and any(h(subtask) for h in self._kill_hooks):
            fired = True
        if not fired and self.spec.worker_kill_rate > 0.0:
            fired = self._draw(*ident) < self.spec.worker_kill_rate
        if fired:
            band = subtask.band or "?"
            self.events.append(FaultEvent(
                "worker_kill", band.split("/")[0], subtask.stage_index,
                subtask.priority,
            ))
        return fired

    def squeeze_memory(self, subtask: Subtask) -> Optional[float]:
        """Budget factor if this subtask's worker is transiently squeezed.

        Returns the factor to multiply the worker's memory limit by for
        the duration of the subtask's admission/execution, or ``None``.
        Drawn once per subtask (not per attempt): the squeeze models
        external pressure lasting across the subtask's OOM retry.
        """
        ident = ("mem_squeeze", subtask.stage_index, subtask.priority)
        factor = self._scripted_squeeze.pop(ident, None)
        if factor is None and self.spec.memory_squeeze_rate > 0.0:
            if self._draw(*ident) < self.spec.memory_squeeze_rate:
                factor = MEMORY_SQUEEZE_FACTOR
        if factor is not None:
            worker = (subtask.band or "?").split("/")[0]
            self.events.append(FaultEvent(
                "mem_squeeze", worker, subtask.stage_index,
                subtask.priority, detail=f"factor {factor}",
            ))
        return factor

    # -- scripted injection points ----------------------------------------
    def script_compute_fault(self, stage: int, priority: int,
                             attempt: int = 0) -> None:
        """Fail one exact attempt of the subtask at (stage, priority)."""
        self._scripted.add(("compute", stage, priority, attempt))

    def script_chunk_loss(self, stage: int, priority: int,
                          out_index: int = 0) -> None:
        """Drop one output of the subtask at (stage, priority) post-store."""
        self._scripted.add(("chunk_loss", stage, priority, out_index))

    def script_worker_kill(self, stage: int, priority: int) -> None:
        """Kill the worker that runs the subtask at (stage, priority)."""
        self._scripted.add(("worker_kill", stage, priority))

    def script_actor_kill(self, stage: int, priority: int, uid: str) -> None:
        """Crash the actor ``uid`` after the subtask at (stage, priority).

        Fired on the accounting walk right after that subtask's
        post-completion injection point, so the kill lands at the same
        structural moment in serial and process mode. The
        supervisor restarts the actor lazily (next delivery or probe).
        """
        self._scripted_actor_kills.setdefault((stage, priority), []).append(uid)

    def actor_kills_after(self, subtask: Subtask) -> list[str]:
        """Consume the actor kills scripted for this subtask, if any."""
        uids = self._scripted_actor_kills.pop(
            (subtask.stage_index, subtask.priority), None)
        if not uids:
            return []
        for uid in uids:
            self.events.append(FaultEvent(
                "actor_kill", uid, subtask.stage_index, subtask.priority,
            ))
        return uids

    def script_memory_squeeze(self, stage: int, priority: int,
                              factor: float | None = None) -> None:
        """Squeeze the budget of the worker running (stage, priority)."""
        if factor is None:
            factor = MEMORY_SQUEEZE_FACTOR
        self._scripted_squeeze[("mem_squeeze", stage, priority)] = factor

    # -- predicate hooks (tests) ------------------------------------------
    def on_compute(self, hook: Callable[[Subtask, int], bool]) -> None:
        self._compute_hooks.append(hook)

    def on_store(self, hook: Callable[[Subtask, str], bool]) -> None:
        self._loss_hooks.append(hook)


class RecoveryManager:
    """Lineage registry + recompute planning for one :class:`GraphExecutor`.

    The registry outlives reference counting on purpose: a chunk's value
    may be freed the moment its last consumer ran, but its producing
    subtask (with live operator objects all the way down to data
    sources) stays reachable here, so any later loss is recomputable.
    """

    def __init__(self):
        #: chunk key -> the subtask whose execution produces it.
        self._producer_of: dict[str, Subtask] = {}

    def record(self, subtask: Subtask) -> None:
        """Register a successfully executed subtask's outputs."""
        for key in subtask.output_keys:
            self._producer_of[key] = subtask

    def producer_of(self, key: str) -> Optional[Subtask]:
        return self._producer_of.get(key)

    def plan(self, missing: Iterable[str],
             contains: Callable[[str], bool]) -> list[Subtask]:
        """Minimal producer set whose re-execution restores ``missing``.

        Walks the lineage backwards: a producer whose own inputs are gone
        (e.g. shuffle-map partitions freed by refcounting) pulls its
        producers in too, terminating at chunks still resident in storage
        or at data sources with no inputs. Returns the subtasks in a
        valid execution order.

        Raises :class:`UnrecoverableChunkLoss` for a key no recorded
        subtask produces.
        """
        needed: dict[str, Subtask] = {}
        seen: set[str] = set()
        stack = list(missing)
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            if contains(key):
                continue
            producer = self._producer_of.get(key)
            if producer is None:
                raise UnrecoverableChunkLoss(key)
            if producer.key in needed:
                continue
            needed[producer.key] = producer
            stack.extend(producer.input_keys)

        # Order by dataflow, not by recorded (stage, priority): dynamic
        # tiling can re-execute a refcount-freed chunk's producer in a
        # *later* stage than the one its consumers first ran in, so the
        # recorded stage indices are not topological across stages. A
        # Kahn walk with a deterministic tie-break keeps the plan
        # identical across execution modes.
        deps: dict[str, set[str]] = {key: set() for key in needed}
        dependents: dict[str, set[str]] = {key: set() for key in needed}
        for subtask in needed.values():
            for input_key in subtask.input_keys:
                producer = self._producer_of.get(input_key)
                if (producer is not None and producer.key in needed
                        and producer.key != subtask.key):
                    deps[subtask.key].add(producer.key)
                    dependents[producer.key].add(subtask.key)
        order: list[Subtask] = []
        ready = [s for s in needed.values() if not deps[s.key]]
        while ready:
            ready.sort(key=lambda s: (s.stage_index, s.priority))
            current = ready.pop(0)
            order.append(current)
            for dependent_key in sorted(dependents[current.key]):
                remaining = deps[dependent_key]
                remaining.discard(current.key)
                if not remaining:
                    ready.append(needed[dependent_key])
        if len(order) != len(needed):
            # a lineage cycle means the registry was corrupted; surface
            # it as unrecoverable rather than recomputing garbage.
            leftover = sorted(set(needed) - {s.key for s in order})
            raise UnrecoverableChunkLoss(leftover[0])
        return order
