"""Supervisor/worker service actors (the Xoscar service plane).

The paper's Section III-B architecture runs every engine concern as a
service actor on the supervisor or on a worker. There is one actor
class, :class:`ServiceActor`: its message interface is the public
methods of the object it fronts.

=======================  ============================================
supervisor uid           fronts
=======================  ============================================
``service/meta``         :class:`~repro.core.meta.MetaService`
``service/storage``      :class:`~repro.storage.service.StorageService`
                         (every worker's tiers, as plain
                         :class:`~repro.storage.worker.WorkerStorage`
                         state)
``service/shuffle``      :class:`~repro.storage.shuffle.ShuffleManager`
``service/scheduling``   :class:`~repro.services.scheduling.SchedulingService`
``service/cache``        :class:`~repro.services.cache.ResultCacheService`
``service/lifecycle``    :class:`~repro.services.lifecycle.LifecycleService`
``session-N/actor``      ``SessionActor``: one session's executor + tiler
=======================  ============================================

=======================  ============================================
band uid                 fronts
=======================  ============================================
``runner/<band>``        :class:`~repro.services.runner.SubtaskRunner`
=======================  ============================================

Cross-service calls go through ``ActorRef``s, and the actor system's
``MessageLog`` counts every delivery by ``(sender, recipient, method)``
(``tools/profile_workload.py --messages`` prints a workload's
per-method census).  Deployment lives in :mod:`repro.services.deploy`.
"""

from __future__ import annotations

from .base import ServiceActor

#: supervisor-side service actor uids.
META_UID = "service/meta"
STORAGE_UID = "service/storage"
SHUFFLE_UID = "service/shuffle"
SCHEDULING_UID = "service/scheduling"
LIFECYCLE_UID = "service/lifecycle"
CACHE_UID = "service/cache"


def runner_uid(band: str) -> str:
    """Uid of the per-band subtask runner actor (lives on its worker's
    pool, the only actor there)."""
    return f"runner/{band}"


def session_actor_uid(session_id: str) -> str:
    return f"{session_id}/actor"


__all__ = [
    "ServiceActor",
    "META_UID",
    "STORAGE_UID",
    "SHUFFLE_UID",
    "SCHEDULING_UID",
    "LIFECYCLE_UID",
    "CACHE_UID",
    "runner_uid",
    "session_actor_uid",
]
