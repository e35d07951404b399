"""Actor-plane supervision: the cluster's :class:`SupervisionPlane`.

The plane deploy wires up holds the :class:`~repro.actors.Supervisor`
(the uid registry that maps service/runner uids to their pools and
respawn factories) and counts restarts by kind. Probes at stage
boundaries restart anything dead; a dead runner's in-flight subtasks
surface as retryable :class:`~repro.errors.ActorNotFound` and re-run
through the existing lineage retry path.
"""

from __future__ import annotations

from typing import Any

from ..actors.supervisor import Supervisor


class SupervisionPlane:
    """Cluster-level supervision facade: supervisor + restart counts."""

    def __init__(self, system):
        self.supervisor = Supervisor(system)
        self.service_restarts = 0
        self.runner_restarts = 0

    def kill(self, uid: str) -> bool:
        """Crash an actor (no ``on_stop``); restart is lazy."""
        return self.supervisor.kill(uid)

    def probe(self) -> None:
        """Stage-boundary liveness sweep.

        A supervised actor that is gone (killed or destroyed between
        messages) respawns through the supervisor; lost runner state
        re-runs via the executor's retry + lineage path.
        """
        for uid, kind in self.supervisor.supervised().items():
            if self.supervisor.ensure_alive(uid):
                if kind == "runner":
                    self.runner_restarts += 1
                else:
                    self.service_restarts += 1

    def snapshot(self) -> dict[str, Any]:
        return {
            "supervisor": self.supervisor.snapshot(),
            "service_restarts": self.service_restarts,
            "runner_restarts": self.runner_restarts,
        }
