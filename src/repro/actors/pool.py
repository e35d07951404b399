"""Actor pools and the actor system.

An :class:`ActorSystem` hosts one :class:`ActorPool` per node address
(supervisor and each worker), mirroring the Xoscar deployment the paper
describes: services are actors created on specific nodes, and all
inter-service communication is message delivery between pools.
"""

from __future__ import annotations

import threading
from typing import Any, Type

from ..errors import ActorError, ActorNotFound
from .actor import Actor, ActorRef
from .message import MessageLog


class _DeliveryState(threading.local):
    """One thread's delivery context: the actor handling the message in
    flight, and the sender label for deliveries made outside any actor."""

    current_actor: Actor | None = None
    sender_label: str | None = None


class ActorPool:
    """All actors living on one node address."""

    def __init__(self, address: str):
        self.address = address
        self._actors: dict[str, Actor] = {}
        self.stopped = False

    def register(self, actor: Actor) -> None:
        if actor.uid in self._actors:
            raise ActorError(f"actor {actor.uid!r} already exists on {self.address!r}")
        self._actors[actor.uid] = actor

    def lookup(self, uid: str) -> Actor:
        try:
            return self._actors[uid]
        except KeyError:
            raise ActorNotFound(self.address, uid) from None

    def remove(self, uid: str) -> Actor:
        try:
            return self._actors.pop(uid)
        except KeyError:
            raise ActorNotFound(self.address, uid) from None

    def uids(self) -> list[str]:
        return list(self._actors)

    def __contains__(self, uid: str) -> bool:
        return uid in self._actors

    def __len__(self) -> int:
        return len(self._actors)


class ActorSystem:
    """Creates pools, actors, and routes messages between them."""

    def __init__(self):
        self._pools: dict[str, ActorPool] = {}
        self.log = MessageLog()
        #: optional Supervisor: deliveries to a dead-but-supervised uid
        #: restart the actor transparently instead of failing.
        self.supervisor = None
        #: per-thread delivery state: parallel band runners deliver
        #: concurrently with the accounting thread, so the "which actor
        #: is currently handling a message" marker must be thread-local —
        #: a single shared field corrupts sender attribution across
        #: threads (and un-attributes nested calls racing each other).
        self._tls = _DeliveryState()

    # -- pool management ----------------------------------------------------
    def create_pool(self, address: str) -> ActorPool:
        if address in self._pools:
            raise ActorError(f"pool {address!r} already exists")
        pool = ActorPool(address)
        self._pools[address] = pool
        return pool

    def get_pool(self, address: str) -> ActorPool:
        try:
            return self._pools[address]
        except KeyError:
            raise ActorError(f"no pool at {address!r}") from None

    def stop_pool(self, address: str) -> None:
        pool = self.get_pool(address)
        for uid in pool.uids():
            self.destroy_actor(address, uid)
        pool.stopped = True
        del self._pools[address]

    def addresses(self) -> list[str]:
        return list(self._pools)

    # -- actor lifecycle ------------------------------------------------------
    def create_actor(self, address: str, actor_cls: Type[Actor], *args: Any,
                     uid: str, **kwargs: Any) -> ActorRef:
        pool = self.get_pool(address)
        actor = actor_cls(*args, **kwargs)
        actor.uid = uid
        actor.address = address
        actor._system = self
        pool.register(actor)
        actor.on_start()
        return ActorRef(self, address, uid)

    def destroy_actor(self, address: str, uid: str) -> None:
        pool = self.get_pool(address)
        actor = pool.lookup(uid)
        actor.on_stop()
        pool.remove(uid)

    def actor_ref(self, address: str, uid: str) -> ActorRef:
        pool = self.get_pool(address)
        if uid not in pool:
            raise ActorNotFound(address, uid)
        return ActorRef(self, address, uid)

    def has_actor(self, address: str, uid: str) -> bool:
        return address in self._pools and uid in self._pools[address]

    # -- message delivery --------------------------------------------------------
    def set_thread_sender(self, label: str | None) -> None:
        """Name this thread's deliveries when no actor is handling one.

        Band-runner pool threads set e.g. ``"band-runner"`` so their
        compute-phase storage peeks are attributed in the trace instead
        of showing up as ``<external>``.
        """
        self._tls.sender_label = label

    def _resolve(self, address: str, uid: str) -> Actor:
        """Look up a delivery target, restarting supervised dead actors.

        A ``destroy_actor``/``stop_pool``/kill racing an in-flight
        ``deliver`` surfaces as the typed, retryable
        :class:`~repro.errors.ActorNotFound` — unless the uid is
        supervised, in which case the actor is respawned from
        authoritative state and delivery proceeds as if nothing
        happened.  A supervised uid with no restart budget left raises
        :class:`~repro.errors.RestartStorm` instead: a crash loop must
        crash loudly, not retry forever.
        """
        try:
            try:
                return self._pools[address].lookup(uid)
            except KeyError:
                raise ActorNotFound(address, uid, "pool is gone") from None
        except ActorNotFound:
            supervisor = self.supervisor
            if supervisor is None or supervisor.address_of(uid) is None:
                raise
            supervisor.restart(uid)  # RestartStorm past the limit
            return self.get_pool(address).lookup(uid)

    def deliver(self, address: str, uid: str, method: str,
                args: tuple, kwargs: dict) -> Any:
        pool = self._pools.get(address)
        actor = None if pool is None else pool._actors.get(uid)
        if actor is None:
            actor = self._resolve(address, uid)
        handler = actor.handler(method)
        if handler is None:
            raise ActorError(f"actor {uid!r} has no method {method!r}")
        state = self._tls
        current = state.current_actor
        if current is None:
            sender = state.sender_label or "<external>"
        else:
            sender = current.uid
        self.log.record(sender, uid, method)
        state.current_actor = actor
        try:
            return handler(*args, **kwargs)
        finally:
            state.current_actor = current

    def shutdown(self) -> None:
        for address in list(self._pools):
            self.stop_pool(address)
        if self.supervisor is not None:  # and it refers back to this system
            self.supervisor.release()
            self.supervisor = None
