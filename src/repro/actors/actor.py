"""Actor base class and actor references."""

from __future__ import annotations

from typing import Any

from ..errors import ActorError


class Actor:
    """Base class for service actors.

    Subclasses implement plain methods; other actors invoke them through an
    :class:`ActorRef` obtained from the :class:`~repro.actors.pool.ActorSystem`.
    Lifecycle hooks ``on_start``/``on_stop`` run on creation/destruction.
    """

    def __init__(self):
        self.uid: str = ""
        self.address: str = ""
        self._system = None

    def on_start(self) -> None:
        """Called after the actor is registered in its pool."""

    def on_stop(self) -> None:
        """Called before the actor is removed from its pool."""

    def ref(self) -> "ActorRef":
        """A reference to this actor, usable from any other actor."""
        if self._system is None:
            raise ActorError(f"actor {self.uid!r} is not attached to a system")
        return self._system.actor_ref(self.address, self.uid)

    def handler(self, method: str):
        """The callable a message named ``method`` invokes, or ``None``."""
        handler = getattr(self, method, None)
        return handler if callable(handler) else None


class ActorRef:
    """Proxy for a (possibly remote) actor.

    Method access returns a callable that routes through the actor system,
    so every invocation is counted by ``(sender, recipient, method)`` and
    validated against liveness.  The callable is built on first access
    and kept on the ref; each call still goes through ``deliver``.
    """

    def __init__(self, system, address: str, uid: str):
        self._system = system
        self.address = address
        self.uid = uid

    def __getattr__(self, method: str):
        if method.startswith("_"):
            raise AttributeError(method)
        system, address, uid = self._system, self.address, self.uid

        def invoke(*args: Any, **kwargs: Any):
            return system.deliver(address, uid, method, args, kwargs)

        invoke.__name__ = method
        self.__dict__[method] = invoke
        return invoke

    def __repr__(self) -> str:
        return f"ActorRef({self.address}/{self.uid})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ActorRef)
            and other.address == self.address
            and other.uid == self.uid
        )

    def __hash__(self) -> int:
        return hash((self.address, self.uid))
