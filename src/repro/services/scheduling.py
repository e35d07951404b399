"""The scheduling service: band placement and memory admission.

Places subtasks on bands (Section V-B: breadth-first initial placement,
locality-aware successor placement) and fronts the
:class:`~repro.core.memory_control` subsystem (footprint estimator,
admission ledger, dispatch gates) behind one flat message interface —
what the paper's supervisor-side scheduling service owns.  The :class:`GraphExecutor` talks to this service
(directly or through the ``service/scheduling`` actor ref) instead of
reaching into pressure internals.
"""

from __future__ import annotations

from collections import defaultdict

from ..core.memory_control import MemoryPressure
from ..errors import SchedulingError


class SchedulingService:
    """Band placement + band-load accounting + memory admission.

    - *Breadth-first*: initial subtasks (no predecessors in the graph) are
      spread band-by-band in worker-major order, filling one worker's
      bands before moving to the next, so co-resident sources stay close.
    - *Locality-aware*: a successor subtask goes to the band holding the
      most input bytes (predecessor outputs plus chunks already resident
      in storage), breaking ties toward the least-loaded band.

    ``chunk_band`` records where every produced chunk lives; it persists
    across the partial executions of a run so later stages see earlier
    placements.
    """

    def __init__(self, cluster, config, pressure: MemoryPressure):
        self.cluster = cluster
        self.config = config
        self._pressure = pressure
        self.chunk_band: dict[str, str] = {}
        self._band_load: dict[str, float] = {b.name: 0.0 for b in cluster.bands}
        self._rr_cursor = 0
        #: presumed size of a chunk with no recorded metadata yet: a fresh
        #: full chunk. Without this, small *known* inputs (e.g. a broadcast
        #: table) would dominate locality and funnel work onto one band.
        self._default_nbytes = max(config.chunk_store_limit, 1)

    @classmethod
    def create(cls, cluster, config, meta, storage) -> "SchedulingService":
        """Assemble the service over ``meta``/``storage`` handles.

        The handles may be plain services or actor refs — the pressure
        subsystem only calls methods on them.
        """
        return cls(cluster, config,
                   MemoryPressure(config, cluster, meta, storage))

    # -- placement ---------------------------------------------------------
    def assign(self, graph, input_nbytes: dict[str, int] | None = None) -> None:
        """Set ``subtask.band`` and ``subtask.priority`` for every node.

        ``priority`` is the subtask's topological position: the parallel
        band runner uses it to drain each band's ready queue in the same
        order the serial walk would reach the work, keeping dispatch
        deterministic.
        """
        input_nbytes = input_nbytes or {}
        bands = [band.name for band in self.cluster.bands]
        if not bands:
            raise SchedulingError("cluster has no bands")
        for position, subtask in enumerate(graph.topological_order()):
            subtask.priority = position
            preds = graph.predecessors(subtask)
            has_located_input = any(
                key in self.chunk_band for key in subtask.input_keys
            )
            if not preds and not has_located_input:
                band = bands[self._rr_cursor % len(bands)]
                self._rr_cursor += 1
            elif self.config.locality_scheduling:
                band = self._most_local_band(subtask, input_nbytes, bands)
            else:
                band = self._least_loaded(bands)
            subtask.band = band
            estimated = sum(
                input_nbytes.get(key, self._default_nbytes)
                for key in subtask.input_keys
            ) + 1
            subtask.load_estimate = estimated
            self._band_load[band] += estimated
            for key in subtask.output_keys:
                self.chunk_band[key] = band

    def _most_local_band(self, subtask, input_nbytes: dict[str, int],
                         bands: list[str]) -> str:
        local_bytes: dict[str, int] = defaultdict(int)
        for key in subtask.input_keys:
            band = self.chunk_band.get(key)
            if band is not None:
                local_bytes[band] += input_nbytes.get(key, self._default_nbytes)
        if not local_bytes:
            return self._least_loaded(bands)
        best_bytes = max(local_bytes.values())
        candidates = [b for b, n in local_bytes.items() if n == best_bytes]
        chosen = min(candidates, key=lambda b: self._band_load[b])
        # balance valve: locality must not pile everything on one band —
        # when the locality choice is far more loaded than the idlest
        # band, moving the data is cheaper than waiting for the band.
        least = self._least_loaded(bands)
        if self._band_load[chosen] > 2.0 * self._band_load[least] + best_bytes:
            return least
        return chosen

    def _least_loaded(self, bands: list[str]) -> str:
        return min(bands, key=lambda b: self._band_load[b])

    def note_completed(self, subtask) -> None:
        """Release a finished (or moved) subtask's estimated band load.

        Without this, ``_band_load`` only ever accumulates across the
        partial executions of a run, so ``_least_loaded`` and the
        locality balance valve skew toward whichever bands happened to
        run the first stage.
        """
        band = subtask.band
        if band is None or band not in self._band_load:
            return
        self._band_load[band] = max(
            0.0, self._band_load[band] - subtask.load_estimate
        )

    def reassign(self, subtask, band: str) -> None:
        """Move a subtask (and its future outputs) to another band.

        Used by the out-of-memory retry: the estimated load
        follows the subtask, and output placements are re-recorded so
        locality follows the data to its new home.
        """
        self.note_completed(subtask)
        subtask.band = band
        self._band_load[band] = (
            self._band_load.get(band, 0.0) + subtask.load_estimate
        )
        for key in subtask.output_keys:
            self.chunk_band[key] = band

    def record_chunk(self, key: str, band: str) -> None:
        self.chunk_band[key] = band

    def forget_chunk(self, key: str) -> None:
        """Drop a lost chunk's placement so locality never chases dead data.

        Called when fault injection drops a chunk or kills a worker;
        recovery re-records the placement when the chunk is recomputed.
        """
        self.chunk_band.pop(key, None)

    # -- memory admission --------------------------------------------------
    def begin_stage(self, base: float) -> None:
        self._pressure.admission.begin_stage(base)

    # -- per-subtask composites --------------------------------------------
    def admit_subtask(self, subtask, worker: str, working_set: int,
                      ready_time: float, used: int, limit: int, *,
                      allow_wait: bool):
        """One message for the executor's whole admission round-trip.

        Folds estimate → admit into a single call and returns the
        decision.  The ledger request is the estimated footprint floored
        by the measured working set.
        """
        request = max(working_set, self._pressure.estimator.estimate(subtask))
        return self._pressure.admission.admit(
            worker, request, ready_time, used, limit, allow_wait=allow_wait)

    def finish_subtask(self, decision, end: float, subtask, sizes) -> None:
        """One message for the post-subtask scheduling epilogue.

        Commits the admission grant through ``end``, feeds the measured
        sizes to the footprint estimator, and releases the subtask's
        band-load claim — the same three calls, same order, one message.
        """
        self._pressure.admission.commit(decision, end)
        self._pressure.estimator.observe(subtask, sizes)
        self.note_completed(subtask)

    # -- pressure state ----------------------------------------------------
    def freest_worker(self, other_than: str) -> str | None:
        return self._pressure.freest_worker(other_than)

    def dispatch_gate(self, order):
        return self._pressure.dispatch_gate(order)

    # -- introspection -----------------------------------------------------
    def memory_pressure(self) -> MemoryPressure:
        """The pressure subsystem (diagnostics and invariant checks)."""
        return self._pressure
