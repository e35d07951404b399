"""Service deployment: create every engine service as an actor.

One call builds the paper's supervisor/worker service plane on an
existing cluster's actor pools and returns the refs the session client
and executor hold.  All service objects live *inside* their actors;
callers get ``ActorRef``s only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..cluster.cluster import SUPERVISOR_ADDRESS, ClusterState
from ..config import Config
from ..core.meta import MetaService
from ..core.supervision import SupervisionPlane
from ..storage.service import StorageService
from ..storage.shuffle import ShuffleManager
from . import (
    CACHE_UID,
    LIFECYCLE_UID,
    META_UID,
    SCHEDULING_UID,
    SHUFFLE_UID,
    STORAGE_UID,
    runner_uid,
)
from .base import ServiceActor
from .cache import ResultCacheService
from .lifecycle import LifecycleService
from .runner import SubtaskRunner
from .scheduling import SchedulingService


@dataclass
class ServiceHandles:
    """Actor refs to one session's deployed services."""

    meta: Any = None
    storage: Any = None
    scheduling: Any = None
    lifecycle: Any = None
    shuffle: Any = None
    cache: Any = None
    #: band name -> ref of the band's subtask runner actor.
    runners: dict[str, Any] = field(default_factory=dict)


def deploy_cluster_services(cluster: ClusterState) -> ServiceHandles:
    """The cluster's service plane, deployed once and memoized.

    The services are cluster-scoped singletons built with the cluster's
    config: the first session on a cluster stands them up, every later
    session attaches to the same handles.  This is what makes N
    concurrent sessions share one Meta/Storage/Shuffle/Scheduling/
    Cache/Lifecycle plane instead of each owning a private copy.
    """
    with cluster.services_lock:
        if cluster.services is None:
            cluster.services = deploy_services(cluster, cluster.config)
        return cluster.services


def deploy_services(cluster: ClusterState, config: Config) -> ServiceHandles:
    """Stand up the full service plane on ``cluster``'s pools.

    Supervisor pool: meta, storage (holding every worker's tiers),
    shuffle index, scheduling, cache, lifecycle.  Worker pools: one
    subtask runner actor per band.
    """
    mode, modes = config.execution_mode, ("serial", "process")
    if mode not in modes:
        raise ValueError(f"unknown execution_mode {mode!r}; known: {modes}")
    system = cluster.actor_system

    # the supervision plane comes up first so every actor created below
    # can register its respawn factory.
    plane = SupervisionPlane(system)
    cluster.supervision = plane
    supervisor = system.supervisor = plane.supervisor

    def serve(address: str, uid: str, service: Any):
        """``service`` behind a supervised actor: the object outlives
        the actor, so a respawn re-wraps it with its state intact."""
        ref = system.create_actor(address, ServiceActor, service, uid=uid)
        supervisor.register(address, uid,
                            lambda: (ServiceActor, (service,), {}))
        return ref

    meta = serve(SUPERVISOR_ADDRESS, META_UID, MetaService())
    storage = serve(SUPERVISOR_ADDRESS, STORAGE_UID,
                    StorageService(cluster, config))
    shuffle = serve(SUPERVISOR_ADDRESS, SHUFFLE_UID, ShuffleManager(storage))
    scheduling = serve(
        SUPERVISOR_ADDRESS, SCHEDULING_UID,
        SchedulingService.create(cluster, config, meta, storage))
    cache = serve(SUPERVISOR_ADDRESS, CACHE_UID,
                  ResultCacheService(storage, config))
    lifecycle = serve(SUPERVISOR_ADDRESS, LIFECYCLE_UID,
                      LifecycleService(storage, shuffle, config, cache))

    procpool = cluster.procpool_client() if mode == "process" else None

    def fresh_runner(band: str) -> SubtaskRunner:
        return SubtaskRunner(band, storage, config, procpool=procpool)

    runners = {}
    for band in cluster.bands:
        uid = runner_uid(band.name)
        runners[band.name] = system.create_actor(
            band.worker, ServiceActor, fresh_runner(band.name), uid=uid)
        # runners are stateless: the factory builds a *fresh* one — any
        # compute lost with the old actor re-runs through the executor's
        # inline retry, and lost chunks replay via lifecycle lineage.
        supervisor.register(
            band.worker, uid,
            lambda name=band.name: (ServiceActor, (fresh_runner(name),), {}),
            kind="runner")

    handles = ServiceHandles(
        meta=meta, storage=storage, scheduling=scheduling,
        lifecycle=lifecycle, shuffle=shuffle, cache=cache, runners=runners,
    )
    cluster.services = handles
    return handles
