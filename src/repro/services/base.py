"""The one actor class that fronts every service object."""

from __future__ import annotations

from ..actors import Actor


class ServiceActor(Actor):
    """An actor whose message interface is its service's public methods.

    :meth:`handler` resolves a message's name on the wrapped object, so
    every public callable of the service is an actor-plane entry point
    without a hand-kept list. The lookup happens per message (a method
    patched onto the service's class while the actor lives is what the
    next message calls); ``_private`` names and data attributes are
    unreachable through a ref.
    """

    def __init__(self, service):
        super().__init__()
        self._service = service

    def handler(self, method: str):
        if method.startswith("_"):
            return None
        handler = getattr(self._service, method, None)
        return handler if callable(handler) else None
