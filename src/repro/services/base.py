"""The one actor class that fronts every service object."""

from __future__ import annotations

from ..actors import Actor


class ServiceActor(Actor):
    """An actor whose message interface is its service's public methods.

    Message delivery resolves methods with ``getattr``, so delegating
    through ``__getattr__`` gives every public callable of the wrapped
    object an actor-plane entry point without a hand-kept list. The
    lookup happens per message (a method patched onto the service's
    class while the actor lives is what the next message calls);
    ``_private`` names and data attributes are unreachable through a ref.
    """

    def __init__(self, service):
        super().__init__()
        self._service = service

    def __getattr__(self, name: str):
        if not name.startswith("_"):
            method = getattr(self._service, name, None)
            if callable(method):
                return method
        raise AttributeError(
            f"{type(self._service).__name__} actor exposes no method {name!r}"
        )
