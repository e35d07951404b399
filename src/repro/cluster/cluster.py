"""Cluster state: supervisor + workers, their pools, trackers and clocks,
and the turnstile lock every session's stage accounting takes."""

from __future__ import annotations

import threading

from ..actors import ActorSystem
from ..config import Config
from .resource import Band, MemoryTracker, WorkerSpec, build_workers
from .simulation import SimClock

SUPERVISOR_ADDRESS = "supervisor"


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
        #: every session on the cluster holds this for each stage it
        #: accounts (a lock, not a service: no actor message). Reentrant:
        #: fetch-time recovery runs a stage inside an already-held turn.
        self.turnstile = threading.RLock()
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
