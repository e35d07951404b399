"""Cluster state: supervisor + workers, their pools, trackers and clocks,
and the fair-share turnstile every session's stage accounting takes."""

from __future__ import annotations

import threading

from ..actors import ActorSystem
from ..config import Config
from .resource import Band, MemoryTracker, WorkerSpec, build_workers
from .simulation import SimClock

SUPERVISOR_ADDRESS = "supervisor"


class FairShareQueue:
    """Weighted fair-share turnstile over the cluster's stage grants.

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


class ClusterState:
    """Everything a running simulated cluster consists of.

    Mirrors the deployment of Section III-A: one supervisor node managing
    sessions/tasks/scheduling, N workers executing subtasks. Creating the
    state spawns one actor pool per node; services attach themselves to
    these pools.
    """

    def __init__(self, config: Config):
        self.config = config
        spec = config.cluster
        self.workers: list[WorkerSpec] = build_workers(
            spec.n_workers, spec.bands_per_worker,
            spec.threads_per_band, spec.memory_limit,
        )
        self.bands: list[Band] = [
            band for worker in self.workers for band in worker.bands
        ]
        self.memory: dict[str, MemoryTracker] = {
            worker.name: MemoryTracker(worker.name, worker.memory_limit)
            for worker in self.workers
        }
        self.clock = SimClock(self.bands, config.cost_model)
        #: every session on the cluster takes a turn here for each stage
        #: it accounts (a lock, not a service: no actor message).
        self.turnstile = FairShareQueue()
        #: actor-plane supervision (``SupervisionPlane``) — installed by
        #: ``deploy_services`` alongside the service actors.
        self.supervision = None
        self.actor_system = ActorSystem()
        self.actor_system.create_pool(SUPERVISOR_ADDRESS)
        for worker in self.workers:
            self.actor_system.create_pool(worker.name)
        #: lazy process-pool client (``execution_mode == "process"``).
        self._procpool = None
        #: the cluster-scoped service plane, memoized by
        #: ``deploy_cluster_services`` — ``None`` until first deploy.
        #: Sessions sharing this cluster attach to the same handles.
        self.services = None
        #: serializes service deployment and session attach/detach on a
        #: shared cluster.
        self.services_lock = threading.Lock()

    @property
    def n_bands(self) -> int:
        return len(self.bands)

    def procpool_client(self):
        """The cluster's process-pool client, created on first use.

        Shared by every band runner so one cluster keeps exactly one set
        of worker processes; the executor itself spawns lazily inside
        the client, on the first process-mode subtask.
        """
        if self._procpool is None:
            from ..core.procpool import ProcPoolClient

            self._procpool = ProcPoolClient(self.config)
        return self._procpool

    def band_by_name(self, name: str) -> Band:
        for band in self.bands:
            if band.name == name:
                return band
        raise KeyError(name)

    def peak_memory(self) -> dict[str, int]:
        return {name: tracker.peak for name, tracker in self.memory.items()}

    def reset_clock(self) -> None:
        self.clock = SimClock(self.bands, self.config.cost_model)

    def shutdown(self) -> None:
        if self._procpool is not None:
            try:
                self._procpool.close()
            except Exception:  # noqa: BLE001 — shutdown must not raise
                pass
            self._procpool = None
        self.actor_system.shutdown()
