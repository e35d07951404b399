"""Engine configuration.

A single :class:`Config` object travels with every session. It controls the
chunk-size limit used by tiling (Section IV), the feature switches that the
ablation benchmarks flip (dynamic tiling, graph-level fusion, operator-level
fusion, auto merge, column pruning, locality-aware scheduling), the simulated
cluster shape, and the cost model of the discrete-event simulation.

Every field here is set by some test, bench, tool, example or baseline
profile (``tests/test_said_once.py`` takes the census); a value nobody
chooses differently is a constant next to the code that uses it, not a
field (34 settable values across the four dataclasses). All four
use ``__slots__``: assigning to a name that is not a field — a typo, or a
knob a later change deleted — raises ``AttributeError`` instead of silently
doing nothing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field


MiB = 1024 * 1024
GiB = 1024 * MiB


@dataclass(slots=True)
class CostModel:
    """Virtual-time cost model for the discrete-event simulation.

    A subtask executed on a band costs::

        subtask_overhead
        + cpu_bytes / (compute_bandwidth * threads_per_band)
        + remote_input_bytes / network_bandwidth

    All bandwidths are bytes per simulated second. The defaults are loosely
    calibrated to the paper's r6i instances (memory-bound dataframe kernels
    around a few GiB/s per core; 10-25 GbE network).
    """

    compute_bandwidth: float = 2.0 * GiB
    network_bandwidth: float = 1.0 * GiB
    subtask_overhead: float = 0.002
    #: extra virtual seconds charged per graph node during graph
    #: construction/dispatch; makes "too many tiny chunks" measurably bad.
    dispatch_overhead: float = 0.0005


@dataclass(slots=True)
class FaultSpec:
    """Deterministic fault-injection plan (chaos testing, recovery bench).

    All rates are per-draw probabilities in ``[0, 1]``. Draws are seeded
    hashes of *structural* identities — (stage index, topological
    position, attempt) — never of runtime keys or call order, so for one
    seed the same faults fire in serial and parallel execution mode
    (bit-identical ``SimReport``) and across separate sessions running
    the same workload.
    """

    seed: int = 0
    #: probability that a subtask attempt fails before doing any work.
    compute_fault_rate: float = 0.0
    #: probability that a stored output chunk is lost right after its
    #: producing subtask completes (models async storage loss).
    chunk_loss_rate: float = 0.0
    #: probability that the worker that just ran a subtask crashes,
    #: losing every recomputable chunk it stores.
    worker_kill_rate: float = 0.0
    #: probability that a worker's memory budget is transiently squeezed
    #: (halved, ``recovery.MEMORY_SQUEEZE_FACTOR``) for the duration of
    #: one subtask's admission/execution — models a neighbour process
    #: eating RAM. Drawn on the same structural identity as the other
    #: faults.
    memory_squeeze_rate: float = 0.0

    @property
    def any_rate(self) -> bool:
        return (self.compute_fault_rate > 0.0 or self.chunk_loss_rate > 0.0
                or self.worker_kill_rate > 0.0
                or self.memory_squeeze_rate > 0.0)


@dataclass(slots=True)
class ClusterSpec:
    """Shape of the simulated cluster."""

    n_workers: int = 4
    bands_per_worker: int = 2
    threads_per_band: int = 16
    memory_limit: int = 4 * GiB  # per worker

    @property
    def n_bands(self) -> int:
        return self.n_workers * self.bands_per_worker


@dataclass(slots=True)
class Config:
    """All tunables of the engine, with paper-faithful defaults."""

    # --- tiling -----------------------------------------------------------
    #: upper bound on the byte size of a chunk (the paper's predefined
    #: "chunk size limit" used by auto merge and auto rechunk).
    chunk_store_limit: int = 64 * MiB
    #: aggregated-size threshold (bytes) under which tree-reduce is chosen
    #: over shuffle-reduce (Section IV-C, "Auto Reduce Selection").
    tree_reduce_threshold: int = 32 * MiB

    # --- feature switches (ablations flip these) ---------------------------
    dynamic_tiling: bool = True
    graph_fusion: bool = True
    operator_fusion: bool = True
    column_pruning: bool = True
    auto_merge: bool = True
    combine_stage: bool = True
    locality_scheduling: bool = True
    spill_to_disk: bool = True
    #: False: never hand a stage to the band dispatcher, whatever
    #: ``execution_mode`` says. SimReport numbers are identical with
    #: this on or off (see DESIGN.md §Execution engine).
    parallel_execution: bool = True
    #: where kernels run. "serial": every subtask computes inline through
    #: its band's runner just before it is accounted — the determinism
    #: oracle, and the faster path on every benchmark workload.
    #: "process": a stage with ≥ 8 subtasks on ≥ 2 bands routes each
    #: subtask's compute phase through the per-cluster worker process
    #: pool (``repro.core.procpool``) so kernels overlap outside the GIL.
    #: Accounting stays on the dispatching thread either way — SimReport
    #: numbers are bit-identical across both. Any other value is refused
    #: when the service plane is deployed.
    execution_mode: str = "serial"
    #: how kernel results are stored (``repro.engine`` registry key):
    #: "row" stores them as they are; "columnar" stores the same
    #: ``repro.frame`` containers with every all-string column carrying
    #: its dictionary, which kernels read instead of hashing cells.
    #: Like ``execution_mode`` it changes wall-clock only: values and
    #: every SimReport number are identical across both.
    chunk_engine: str = "row"
    #: pre-aggregate each mapper's partition input before it hits storage
    #: (groupby shuffle-reduce only): shuffle bytes then shrink with key
    #: cardinality instead of row count.
    mapper_side_combine: bool = True
    #: release chunks once their last consumer ran (reference counting).
    #: Eager engines (Modin-like) materialize and pin every intermediate
    #: result instead — the accumulation that kills their workers at scale.
    eager_release: bool = True
    #: memory-pressure control. Before a subtask starts, its estimated
    #: footprint must be granted by the per-worker ``MemoryAdmission``
    #: ledger; when concurrent working sets would exceed the worker
    #: budget the subtask *waits* in virtual time
    #: (``admission_wait_time``) instead of dispatching into an OOM. A
    #: subtask that still hits WorkerOutOfMemory retries once on the
    #: freest other worker, then (with ``dynamic_tiling`` on) the
    #: session re-tiles with a halved chunk limit. Off reproduces the seed engine: no backpressure, and an
    #: OOM is fatal.
    admission_control: bool = True

    # --- result cache -------------------------------------------------------
    #: expression-keyed result cache: a tileable whose key (operator
    #: chain + parameters + source fingerprints + config) has a live
    #: stored result is bound to the cached chunks instead of being
    #: tiled and run. Off by default — the golden scenarios pin the
    #: uncached engine bit-for-bit.
    result_cache: bool = False
    #: byte budget for auto-cached results; the least-recently-hit
    #: entries are dropped (and their chunks freed) when recording past
    #: it. Explicit ``.cache()`` entries never count as eviction victims.
    result_cache_budget: int = 256 * MiB

    # --- cluster & costs ----------------------------------------------------
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    cost_model: CostModel = field(default_factory=CostModel)
    #: deterministic fault injection (all rates default to zero = off).
    faults: FaultSpec = field(default_factory=FaultSpec)

    def copy(self, **overrides) -> "Config":
        """Return a deep copy with ``overrides`` applied.

        Nested dataclass fields (``cluster``, ``cost_model``) accept either a
        replacement instance or are copied as-is.
        """
        new = dataclasses.replace(
            self,
            cluster=dataclasses.replace(self.cluster),
            cost_model=dataclasses.replace(self.cost_model),
            faults=dataclasses.replace(self.faults),
        )
        for key, value in overrides.items():
            if not hasattr(new, key):
                raise AttributeError(f"unknown config field {key!r}")
            setattr(new, key, value)
        return new


def default_config() -> Config:
    """A fresh :class:`Config` with default values."""
    return Config()


def calibrate_cost_model(config: Config, data_bytes: int,
                         seconds_per_pass: float = 8.0) -> Config:
    """Scale the virtual bandwidths to the dataset being processed.

    The repository runs the paper's workloads at ~1000x smaller data, so
    with real-world bandwidths compute time would vanish under fixed
    per-subtask overheads and every engine would look alike. Calibration
    preserves the paper's *regime*: one full pass over the dataset on a
    single band costs ``seconds_per_pass`` virtual seconds, and the
    network moves data ~16x slower than a band computes over it (the
    r6i-instance ratio). Skew, locality, and fusion effects then have the
    same relative weight they had on the real cluster.
    """
    if data_bytes <= 0:
        raise ValueError("data_bytes must be positive")
    # bandwidth is defined per *thread* against a fixed reference band
    # (16 threads), so single-threaded profiles (pandas) remain slower by
    # exactly their thread deficit.
    reference_threads = 16
    band_bandwidth = data_bytes / seconds_per_pass
    config.cost_model.compute_bandwidth = max(
        band_bandwidth / reference_threads, 1.0
    )
    config.cost_model.network_bandwidth = max(band_bandwidth / 16.0, 1.0)
    return config
