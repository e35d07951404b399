"""The scheduling service: placement, admission, and the tenant turnstile.

Combines the :class:`~repro.core.scheduler.Scheduler` (band placement
and load accounting) with the :class:`~repro.core.memory_control`
subsystem (footprint estimator, admission ledger, degraded-worker state,
dispatch gates) behind one flat message interface — what the paper's
supervisor-side scheduling service owns.  The
:class:`GraphExecutor` talks to this service (directly or through the
``service/scheduling`` actor ref) instead of reaching into scheduler or
pressure internals.

On a shared cluster the service additionally owns the **fair-share
turnstile** (:class:`FairShareQueue`): concurrent sessions serialize
their *stage accounting* through it in weighted stride order, so N
tenant threads interleave at stage granularity — a weight-2 tenant gets
stage turns twice as often as a weight-1 tenant — while each stage's
deterministic accounting walk runs unshared.
"""

from __future__ import annotations

import threading

from ..core.memory_control import MemoryPressure
from ..core.scheduler import Scheduler


class FairShareQueue:
    """Weighted fair-share turnstile over shared-plane stage grants.

    Stride scheduling: each tenant carries a *pass* value advanced by
    ``1 / weight`` per granted turn; among waiting tenants the lowest
    pass (ties broken by arrival order) goes next.

    The holder may re-enter (``acquire`` is reentrant per tenant with a
    depth count) — fetch-time recovery runs ``execute`` inside an
    already-held turn.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        #: tenant -> (weight, pass value)
        self._tenants: dict[str, list[float]] = {}
        self._global_pass = 0.0
        self._arrivals = 0
        #: tenant -> arrival seq, set while waiting.
        self._waiting: dict[str, int] = {}
        self._holder: str | None = None
        self._depth = 0
        self.turns_granted: dict[str, int] = {}

    def register(self, session: str, weight: float = 1.0) -> None:
        with self._lock:
            weight = max(float(weight), 1e-9)
            # late joiners start at the current pass front, not at zero —
            # otherwise a fresh tenant would monopolize the turnstile
            # until it caught up with everyone's accumulated pass.
            self._tenants[session] = [weight, self._global_pass]

    def unregister(self, session: str) -> None:
        with self._lock:
            self._tenants.pop(session, None)
            self._waiting.pop(session, None)
            self._cond.notify_all()

    def _next_in_line(self) -> str | None:
        if not self._waiting:
            return None
        return min(
            self._waiting,
            key=lambda s: (self._tenants.get(s, [1.0, 0.0])[1],
                           self._waiting[s]),
        )

    def acquire(self, session: str) -> None:
        """Block until it is ``session``'s turn; reentrant for the holder."""
        with self._lock:
            if self._holder == session:
                self._depth += 1
                return
            self._waiting[session] = self._arrivals
            self._arrivals += 1
            self._cond.notify_all()
            while not (self._holder is None
                       and self._next_in_line() == session):
                self._cond.wait()
            del self._waiting[session]
            self._holder = session
            self._depth = 1
            entry = self._tenants.get(session)
            if entry is not None:
                entry[1] += 1.0 / entry[0]
                self._global_pass = max(self._global_pass, entry[1])
            self.turns_granted[session] = (
                self.turns_granted.get(session, 0) + 1)

    def release(self, session: str) -> None:
        with self._lock:
            if self._holder != session:
                return
            self._depth -= 1
            if self._depth <= 0:
                self._holder = None
                self._depth = 0
                self._cond.notify_all()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "tenants": {
                    s: {"weight": w, "pass": p}
                    for s, (w, p) in self._tenants.items()
                },
                "waiting": len(self._waiting),
                "holder": self._holder,
                "turns_granted": dict(self.turns_granted),
            }


class SchedulingService:
    """Band placement + band-load accounting + memory admission."""

    def __init__(self, scheduler: Scheduler, pressure: MemoryPressure):
        self._scheduler = scheduler
        self._pressure = pressure
        self._turnstile = FairShareQueue()

    @classmethod
    def create(cls, cluster, config, meta, storage) -> "SchedulingService":
        """Assemble the service over ``meta``/``storage`` handles.

        The handles may be plain services or actor refs — the pressure
        subsystem only calls methods on them.
        """
        return cls(Scheduler(cluster, config),
                   MemoryPressure(config, cluster, meta, storage))

    # -- placement ---------------------------------------------------------
    def assign(self, subtask_graph, input_nbytes) -> None:
        self._scheduler.assign(subtask_graph, input_nbytes)

    def reassign(self, subtask, band: str) -> None:
        self._scheduler.reassign(subtask, band)

    def record_chunk(self, key: str, band: str) -> None:
        self._scheduler.record_chunk(key, band)

    def forget_chunk(self, key: str) -> None:
        self._scheduler.forget_chunk(key)

    # -- fair-share turnstile ----------------------------------------------
    def register_tenant(self, session: str, weight: float = 1.0) -> None:
        self._turnstile.register(session, weight)

    def unregister_tenant(self, session: str) -> None:
        self._turnstile.unregister(session)
        self._pressure.drop_session(session)

    def acquire_turn(self, session: str) -> None:
        self._turnstile.acquire(session)

    def release_turn(self, session: str) -> None:
        self._turnstile.release(session)

    def fair_share_snapshot(self) -> dict:
        return self._turnstile.snapshot()

    # -- memory admission --------------------------------------------------
    def begin_stage(self, base: float | None = None) -> None:
        self._pressure.admission.begin_stage(base)

    # -- per-subtask composites --------------------------------------------
    def admit_subtask(self, subtask, worker: str, working_set: int,
                      ready_time: float, used: int, limit: int,
                      allow_wait: bool = True, session: str = "",
                      quota: int | None = None):
        """One message for the executor's whole admission round-trip.

        Folds estimate → degraded-check → admit into a single call;
        returns ``(decision, exclusive)``.  The ledger request is the
        estimated footprint floored by the measured working set, exactly
        as the three separate calls computed it.
        """
        request = max(working_set, self._pressure.estimator.estimate(subtask))
        exclusive = self._pressure.is_degraded(worker, session)
        decision = self._pressure.admission.admit(
            worker, request, ready_time, used, limit,
            allow_wait=allow_wait, exclusive=exclusive,
            session=session, quota=quota,
        )
        return decision, exclusive

    def finish_subtask(self, decision, end: float, subtask, sizes) -> None:
        """One message for the post-subtask scheduling epilogue.

        Commits the admission grant through ``end``, feeds the measured
        sizes to the footprint estimator, and releases the subtask's
        band-load claim — the same three calls, same order, one message.
        """
        self._pressure.admission.commit(decision, end)
        self._pressure.estimator.observe(subtask, sizes)
        self._scheduler.note_completed(subtask)

    # -- pressure state ----------------------------------------------------
    def degrade(self, worker: str, session: str = "") -> None:
        self._pressure.degrade(worker, session)

    def freest_worker(self) -> str:
        return self._pressure.freest_worker()

    def dispatch_gate(self, order, session: str = ""):
        return self._pressure.dispatch_gate(order, session)

    # -- introspection -----------------------------------------------------
    def memory_pressure(self) -> MemoryPressure:
        """The pressure subsystem (diagnostics and invariant checks)."""
        return self._pressure
