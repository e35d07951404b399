"""Actor supervision: per-uid restart policy with storm limiting.

The :class:`Supervisor` owns a registry of respawn factories, one per
service uid. When an actor dies (scripted kill, destroyed pool entry),
the next delivery to its uid — or the executor's stage-boundary probe —
restarts it through its factory and the actor resumes serving from
authoritative state:

* Supervisor-pool service actors (meta, storage, shuffle, scheduling,
  cache, lifecycle) close over their long-lived service objects; the
  actor shell is stateless, so the storage service's tiers, pins and
  spill state survive it.
* band runner actor factories build a fresh stateless runner; any
  compute lost with the old one re-runs through the executor's inline
  retry, and lost chunks replay through ``LifecycleService`` lineage
  (``RecoveryManager``).

Restart-storm limiting: each uid has a restart budget
(``restart_limit``, five by default); once exhausted the supervisor
raises :class:`~repro.errors.RestartStorm` instead of looping on a
crashing actor.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable

from ..errors import ActorNotFound, RestartStorm

if TYPE_CHECKING:  # pragma: no cover
    from .actor import ActorRef
    from .pool import ActorSystem

#: a factory returns ``(actor_cls, args, kwargs)`` for ``create_actor``.
Factory = Callable[[], tuple[type, tuple, dict]]


class _Registration:
    __slots__ = ("address", "uid", "factory", "kind", "restarts")

    def __init__(self, address: str, uid: str, factory: Factory, kind: str):
        self.address = address
        self.uid = uid
        self.factory = factory
        self.kind = kind
        self.restarts = 0


class Supervisor:
    """Restart policy for supervised actors (thread-safe).

    Restarts may fire from the accounting thread *or* a band-runner
    thread (whichever delivers to the dead uid first), so the registry
    and restart bookkeeping live under a lock; the actual respawn runs
    under it too, making concurrent deliveries to one dead uid restart
    it exactly once.
    """

    def __init__(self, system: "ActorSystem", restart_limit: int = 5):
        self.system = system
        self.restart_limit = restart_limit
        self._lock = threading.RLock()
        self._registry: dict[str, _Registration] = {}
        self.total_restarts = 0
        self.total_kills = 0

    # -- registry -----------------------------------------------------------
    def register(self, address: str, uid: str, factory: Factory,
                 kind: str = "service") -> None:
        """Adopt ``uid``: on death, respawn at ``address`` via ``factory``."""
        with self._lock:
            self._registry[uid] = _Registration(address, uid, factory, kind)

    def unregister(self, uid: str) -> None:
        with self._lock:
            self._registry.pop(uid, None)

    def release(self) -> None:
        """Forget every registration: the system has shut down and nothing
        can be respawned.  The factories close over the service objects,
        which hold the cluster, which holds the system that holds this
        supervisor — dropping them here is what lets a closed session's
        cluster, and the chunks its services still reference, be freed by
        reference counting alone."""
        with self._lock:
            self._registry.clear()

    def supervised(self) -> dict[str, str]:
        """uid -> kind (``"service"`` or ``"runner"``) of every adoptee."""
        with self._lock:
            return {uid: reg.kind for uid, reg in self._registry.items()}

    def address_of(self, uid: str) -> str | None:
        with self._lock:
            reg = self._registry.get(uid)
            return None if reg is None else reg.address

    def restarts_of(self, uid: str) -> int:
        with self._lock:
            reg = self._registry.get(uid)
            return 0 if reg is None else reg.restarts

    # -- death & rebirth ----------------------------------------------------
    def kill(self, uid: str) -> bool:
        """Remove ``uid`` abruptly (no ``on_stop``), simulating a crash.

        Returns whether the actor was alive. Restart happens lazily on
        the next delivery to the uid, or at the next stage-boundary probe.
        """
        with self._lock:
            reg = self._registry.get(uid)
            if reg is None:
                raise ActorNotFound("<unsupervised>", uid,
                                    "kill of an unsupervised uid")
            try:
                pool = self.system.get_pool(reg.address)
                pool.remove(uid)
            except ActorNotFound:
                return False
            self.total_kills += 1
            return True

    def restart(self, uid: str) -> "ActorRef":
        """Respawn ``uid`` through its factory, enforcing the storm limit."""
        with self._lock:
            reg = self._registry.get(uid)
            if reg is None:
                raise ActorNotFound("<unsupervised>", uid,
                                    "restart of an unsupervised uid")
            if self.system.has_actor(reg.address, uid):
                return self.system.actor_ref(reg.address, uid)
            if reg.restarts >= self.restart_limit:
                raise RestartStorm(uid, reg.restarts, self.restart_limit)
            actor_cls, args, kwargs = reg.factory()
            ref = self.system.create_actor(
                reg.address, actor_cls, *args, uid=uid, **kwargs)
            reg.restarts += 1
            self.total_restarts += 1
            return ref

    def ensure_alive(self, uid: str) -> bool:
        """Restart ``uid`` if dead; returns whether a restart happened."""
        with self._lock:
            reg = self._registry.get(uid)
            if reg is None or self.system.has_actor(reg.address, uid):
                return False
            self.restart(uid)
            return True

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "supervised": len(self._registry),
                "total_restarts": self.total_restarts,
                "total_kills": self.total_kills,
                "restarts_by_uid": {
                    uid: reg.restarts
                    for uid, reg in self._registry.items() if reg.restarts
                },
            }
