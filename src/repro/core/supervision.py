"""Actor-plane health: heartbeats and liveness probes.

Two pieces ride on the :class:`~repro.actors.Supervisor`:

* :class:`HealthMonitor` — per-band runner (and per-service) liveness on
  the *virtual* clock. The executor beats a band's runner every time a
  subtask completes on it; a runner whose last beat is older than
  ``heartbeat_interval * heartbeat_miss_limit`` virtual seconds is
  overdue. Probes at stage boundaries restart anything dead; a dead
  runner's in-flight subtasks surface as retryable
  :class:`~repro.errors.ActorNotFound` and re-run through the existing
  lineage retry path.

* :class:`SupervisionPlane` — the cluster-level facade deploy wires up:
  the supervisor, the health monitor, and the uid registry that maps
  service/runner uids to their pools.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from ..actors.supervisor import Supervisor

if TYPE_CHECKING:  # pragma: no cover
    from ..config import Config


class HealthMonitor:
    """Virtual-clock liveness tracking for runners and services.

    The lease is *expectation-based* so idle bands are never
    false-positived: dispatching work to a band arms an expectation at
    the current virtual time; every subtask completion on the band
    ``beat``s the runner, clearing it. A uid whose armed expectation is
    older than ``interval * miss_limit`` virtual seconds — work was
    sent, nothing ever came back — is overdue (wedged or dead).

    Expectations, beats and probes all ride the deterministic accounting
    walk (stage base times and subtask completion times), so health
    verdicts are identical across serial and process execution.
    """

    def __init__(self, interval: float, miss_limit: int):
        self.interval = interval
        self.miss_limit = miss_limit
        self._lock = threading.Lock()
        #: uid -> virtual time of the last heartbeat.
        self._beats: dict[str, float] = {}
        #: uid -> virtual time work was dispatched with no beat since.
        self._expected: dict[str, float] = {}
        self.deaths_declared = 0

    @property
    def enabled(self) -> bool:
        return self.interval > 0.0 and self.miss_limit > 0

    def watch(self, uid: str, now: float = 0.0) -> None:
        with self._lock:
            self._beats.setdefault(uid, now)

    def expect(self, uid: str, now: float) -> None:
        """Arm the lease: work went to ``uid``, a beat must follow."""
        with self._lock:
            self._expected.setdefault(uid, now)

    def beat(self, uid: str, now: float) -> None:
        with self._lock:
            previous = self._beats.get(uid)
            if previous is None or now > previous:
                self._beats[uid] = now
            self._expected.pop(uid, None)

    def last_beat(self, uid: str) -> float | None:
        with self._lock:
            return self._beats.get(uid)

    def deadline(self, uid: str) -> float | None:
        """Virtual time past which ``uid`` counts as dead (armed only)."""
        with self._lock:
            expected = self._expected.get(uid)
        if expected is None or not self.enabled:
            return None
        return expected + self.interval * self.miss_limit

    def overdue(self, now: float) -> list[str]:
        if not self.enabled:
            return []
        with self._lock:
            return [uid for uid, expected in self._expected.items()
                    if now - expected > self.interval * self.miss_limit]

    def declare_dead(self, uid: str, now: float) -> None:
        """Disarm the lease (the restarted actor starts fresh)."""
        with self._lock:
            self._expected.pop(uid, None)
            self._beats[uid] = now
            self.deaths_declared += 1

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "watched": len(self._beats),
                "armed": len(self._expected),
                "deaths_declared": self.deaths_declared,
            }


class SupervisionPlane:
    """Cluster-level supervision facade: supervisor + health + registry."""

    def __init__(self, system, config: "Config"):
        self.supervisor = Supervisor(system)
        self.health = HealthMonitor(config.heartbeat_interval,
                                    config.heartbeat_miss_limit)
        #: band name -> runner uid (heartbeat subjects).
        self.runner_uids: dict[str, str] = {}
        self.service_restarts = 0
        self.runner_restarts = 0

    # -- registration (deploy time) -----------------------------------------
    def register_service(self, address: str, uid: str, factory) -> None:
        self.supervisor.register(address, uid, factory, kind="service")
        self.health.watch(uid)

    def register_runner(self, band: str, address: str, uid: str,
                        factory) -> None:
        self.supervisor.register(address, uid, factory, kind="runner")
        self.runner_uids[band] = uid
        self.health.watch(uid)

    # -- heartbeats ----------------------------------------------------------
    def expect_runner(self, band: str, now: float) -> None:
        uid = self.runner_uids.get(band)
        if uid is not None and self.health.enabled:
            self.health.expect(uid, now)

    def beat_runner(self, band: str, now: float) -> None:
        uid = self.runner_uids.get(band)
        if uid is not None and self.health.enabled:
            self.health.beat(uid, now)

    # -- probes & kills ------------------------------------------------------
    def kill(self, uid: str) -> bool:
        """Crash an actor (no ``on_stop``); restart is lazy."""
        return self.supervisor.kill(uid)

    def probe(self, now: float) -> list[str]:
        """Stage-boundary liveness sweep; returns the uids restarted.

        Two triggers: a supervised actor that is simply gone (killed or
        destroyed between messages), and a heartbeat subject whose beat
        lease expired — the latter covers runners that are wedged rather
        than absent. Both respawn through the supervisor; lost runner
        state re-runs via the executor's retry + lineage path.
        """
        restarted: list[str] = []
        runner_uids = set(self.runner_uids.values())
        overdue = set(self.health.overdue(now))
        for uid in self.supervisor.supervised():
            dead = self.supervisor.ensure_alive(uid)
            if not dead and uid in runner_uids and uid in overdue:
                # present but wedged: work was dispatched, no beat came
                # back within the lease — crash it and respawn fresh.
                self.health.declare_dead(uid, now)
                self.supervisor.kill(uid)
                self.supervisor.restart(uid)
                dead = True
            if dead:
                restarted.append(uid)
                self.health.beat(uid, now)
                if uid in runner_uids:
                    self.runner_restarts += 1
                else:
                    self.service_restarts += 1
        return restarted

    def snapshot(self) -> dict[str, Any]:
        return {
            "supervisor": self.supervisor.snapshot(),
            "health": self.health.snapshot(),
            "service_restarts": self.service_restarts,
            "runner_restarts": self.runner_restarts,
        }
