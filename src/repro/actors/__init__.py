"""``repro.actors`` — an in-process actor framework (Xoscar stand-in).

The engine's services (session, task, meta, storage, scheduling) are
implemented as actors created on node pools, matching the paper's service
decomposition (Fig. 1) without requiring real processes.
"""

from .actor import Actor, ActorRef
from .message import MessageLog
from .pool import ActorPool, ActorSystem
from .supervisor import Supervisor

__all__ = [
    "Actor",
    "ActorPool",
    "ActorRef",
    "ActorSystem",
    "MessageLog",
    "Supervisor",
]
