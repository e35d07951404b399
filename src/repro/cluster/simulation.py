"""Virtual-time simulation of band execution.

Real NumPy compute runs in-process; *when* things would have finished on
the paper's cluster is tracked here. Each band has an availability time;
a subtask placed on a band starts at ``max(band_free, inputs_ready)`` and
occupies the band for its modeled cost. The makespan of a task graph is
the maximum completion time — this is what the benchmark figures report,
because it reflects skew, locality, and graph overheads the way the
paper's wall-clock numbers do.
"""

from __future__ import annotations

import dataclasses
import operator
import threading
from dataclasses import dataclass, field

from ..config import CostModel
from .resource import Band


@dataclass
class SimReport:
    """Aggregated statistics of one simulated task-graph execution."""

    makespan: float = 0.0
    total_compute_seconds: float = 0.0
    total_transfer_bytes: int = 0
    total_shuffle_bytes: int = 0
    #: rows folded away by mapper-side combine before shuffle writes.
    combine_dropped_rows: int = 0
    n_subtasks: int = 0
    n_graph_nodes: int = 0
    #: failed subtask attempts that were re-tried (fault recovery).
    retries: int = 0
    #: producer subtasks re-executed by lineage recovery.
    recomputed_subtasks: int = 0
    #: bytes written back to storage by recovery re-executions.
    recovery_bytes: int = 0
    #: virtual seconds of retry backoff charged to the simulated clock.
    backoff_time: float = 0.0
    #: out-of-memory subtasks retried on another worker.
    oom_retries: int = 0
    #: virtual seconds subtasks waited for a memory admission grant.
    admission_wait_time: float = 0.0
    #: memory-aware re-tiling passes taken after that retry failed too.
    pressure_splits: int = 0
    #: chunks pruned from the graph by a result-cache hit.
    cache_hit_chunks: int = 0
    #: stored bytes those cache hits reused instead of recomputing.
    cache_reused_bytes: int = 0
    peak_memory: dict[str, int] = field(default_factory=dict)
    band_busy: dict[str, float] = field(default_factory=dict)

    @property
    def parallel_efficiency(self) -> float:
        """Busy time over (makespan × bands); 1.0 means perfectly balanced."""
        if not self.band_busy or self.makespan <= 0:
            return 0.0
        return sum(self.band_busy.values()) / (self.makespan * len(self.band_busy))


#: how the fields that are not running sums fold: ``makespan`` and
#: per-worker ``peak_memory`` are high-water marks; ``band_busy`` is a
#: snapshot of the cluster clock, so the latest one wins — and a stage
#: that took none (cache-satisfied, fetch-time recovery) leaves the
#: total's alone.
_FOLDS = {
    "makespan": max,
    "peak_memory": lambda ours, theirs: {
        worker: max(ours.get(worker, 0), theirs.get(worker, 0))
        for worker in {**ours, **theirs}
    },
    "band_busy": lambda ours, theirs: dict(theirs) if theirs else ours,
}


def fold_report(total: SimReport, stage: SimReport) -> None:
    """Fold one stage's report into a running total.

    The dataclass fields are the one counter list: a new counter is a
    new field — it sums here and shows up in :func:`counter_growth`
    (and so in the same-named ``RunReport`` field) with no other edit.
    """
    for f in dataclasses.fields(SimReport):
        fold = _FOLDS.get(f.name, operator.add)
        setattr(total, f.name,
                fold(getattr(total, f.name), getattr(stage, f.name)))


def counter_growth(after: SimReport, before: SimReport) -> dict[str, float]:
    """How much every summed counter grew between two snapshots."""
    return {
        f.name: getattr(after, f.name) - getattr(before, f.name)
        for f in dataclasses.fields(SimReport) if f.name not in _FOLDS
    }


class SimClock:
    """Per-band virtual clocks plus the cost model."""

    def __init__(self, bands: list[Band], cost_model: CostModel):
        if not bands:
            raise ValueError("need at least one band")
        self.cost_model = cost_model
        self.band_free: dict[str, float] = {band.name: 0.0 for band in bands}
        self.band_busy: dict[str, float] = {band.name: 0.0 for band in bands}
        self._bands = {band.name: band for band in bands}
        self.now = 0.0
        # virtual time is advanced only by the (single) accounting
        # thread, but the parallel band runner makes that a cross-thread
        # invariant rather than a structural one — lock the mutations so
        # a future concurrent accountant cannot corrupt the clocks.
        self._lock = threading.Lock()

    def compute_cost(self, cpu_bytes: int, band: Band) -> float:
        """Virtual seconds of pure compute for a subtask on a band."""
        bandwidth = self.cost_model.compute_bandwidth * max(band.threads, 1)
        return cpu_bytes / bandwidth

    def transfer_cost(self, nbytes: int) -> float:
        return nbytes / self.cost_model.network_bandwidth

    def run_subtask(self, band: Band, ready_time: float, duration: float) -> float:
        """Occupy ``band`` for ``duration`` starting no earlier than
        ``ready_time``; returns the completion time."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        with self._lock:
            start = max(self.band_free[band.name], ready_time)
            end = start + duration
            self.band_free[band.name] = end
            self.band_busy[band.name] += duration
            self.now = max(self.now, end)
            return end

    def earliest_free_band(self, bands: list[Band]) -> Band:
        """The band (among ``bands``) that frees up first."""
        best = min(bands, key=lambda b: self.band_free[b.name])
        return best

    def delay_band(self, band_name: str, seconds: float) -> None:
        """Push a band's availability without counting busy time.

        Models downtime rather than work — e.g. the bands of a killed
        worker waiting out its restart.
        """
        with self._lock:
            self.band_free[band_name] += seconds

    @property
    def makespan(self) -> float:
        return max(self.band_free.values())
