"""Unit tests for cluster resources and the virtual-time simulation."""

import pytest

from repro.cluster import (
    Band,
    ClusterState,
    MemoryTracker,
    SimClock,
    SimReport,
    build_workers,
)
from repro.cluster.simulation import fold_report
from repro.config import Config, CostModel
from repro.errors import WorkerOutOfMemory


class TestMemoryTracker:
    def test_allocate_release(self):
        tracker = MemoryTracker("w", 100)
        tracker.allocate(60)
        assert tracker.used == 60 and tracker.available == 40
        tracker.release(10)
        assert tracker.used == 50

    def test_oom_raises_with_details(self):
        tracker = MemoryTracker("w", 100)
        tracker.allocate(80)
        with pytest.raises(WorkerOutOfMemory) as exc:
            tracker.allocate(30)
        assert exc.value.worker == "w"
        assert exc.value.requested == 30
        assert exc.value.used == 80

    def test_oom_is_memory_error(self):
        tracker = MemoryTracker("w", 10)
        with pytest.raises(MemoryError):
            tracker.allocate(11)

    def test_peak_tracked(self):
        tracker = MemoryTracker("w", 100)
        tracker.allocate(70)
        tracker.release(50)
        tracker.allocate(10)
        assert tracker.peak == 70

    def test_over_release_rejected(self):
        tracker = MemoryTracker("w", 100)
        tracker.allocate(5)
        with pytest.raises(ValueError):
            tracker.release(6)

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            MemoryTracker("w", 0)


class TestWorkers:
    def test_build_workers_bands(self):
        workers = build_workers(2, 2, 16, 1000)
        assert len(workers) == 2
        assert [b.name for b in workers[0].bands] == [
            "worker-0/band-0", "worker-0/band-1",
        ]

    def test_band_is_hashable_value(self):
        assert Band("w", 0) == Band("w", 0)
        assert len({Band("w", 0), Band("w", 0), Band("w", 1)}) == 2

    def test_no_workers_rejected(self):
        with pytest.raises(ValueError):
            build_workers(0, 1, 1, 1)


class TestSimClock:
    def _clock(self):
        bands = [Band("w0", 0, threads=1), Band("w0", 1, threads=1)]
        return SimClock(bands, CostModel(compute_bandwidth=100.0,
                                         network_bandwidth=50.0)), bands

    def test_sequential_on_one_band(self):
        clock, bands = self._clock()
        end1 = clock.run_subtask(bands[0], 0.0, 1.0)
        end2 = clock.run_subtask(bands[0], 0.0, 1.0)
        assert end1 == 1.0 and end2 == 2.0

    def test_parallel_on_two_bands(self):
        clock, bands = self._clock()
        clock.run_subtask(bands[0], 0.0, 1.0)
        clock.run_subtask(bands[1], 0.0, 1.0)
        assert clock.makespan == 1.0

    def test_ready_time_delays_start(self):
        clock, bands = self._clock()
        end = clock.run_subtask(bands[0], 5.0, 1.0)
        assert end == 6.0

    def test_compute_and_transfer_costs(self):
        clock, bands = self._clock()
        assert clock.compute_cost(200, bands[0]) == pytest.approx(2.0)
        assert clock.transfer_cost(100) == pytest.approx(2.0)

    def test_threads_scale_compute(self):
        clock, _ = self._clock()
        fat_band = Band("w1", 0, threads=4)
        assert clock.compute_cost(400, fat_band) == pytest.approx(1.0)

    def test_earliest_free_band(self):
        clock, bands = self._clock()
        clock.run_subtask(bands[0], 0.0, 5.0)
        assert clock.earliest_free_band(bands) == bands[1]

    def test_negative_duration_rejected(self):
        clock, bands = self._clock()
        with pytest.raises(ValueError):
            clock.run_subtask(bands[0], 0.0, -1.0)


class TestSimReport:
    def test_parallel_efficiency(self):
        report = SimReport(makespan=2.0, band_busy={"a": 2.0, "b": 1.0})
        assert report.parallel_efficiency == pytest.approx(0.75)

    def test_merge_accumulates(self):
        a = SimReport(makespan=1.0, n_subtasks=2,
                      peak_memory={"w": 10}, band_busy={"b": 1.0})
        b = SimReport(makespan=2.0, n_subtasks=3,
                      peak_memory={"w": 5}, band_busy={"b": 0.5})
        fold_report(a, b)
        # counters add, makespan and peaks are high-water marks, the
        # clock snapshot is the latest stage's.
        assert a.makespan == 2.0
        assert a.n_subtasks == 5
        assert a.peak_memory["w"] == 10
        assert a.band_busy["b"] == 0.5


class TestClusterState:
    def test_pools_created(self):
        cfg = Config()
        cfg.cluster.n_workers = 2
        state = ClusterState(cfg)
        addresses = set(state.actor_system.addresses())
        assert addresses == {"supervisor", "worker-0", "worker-1"}

    def test_band_lookup(self):
        state = ClusterState(Config())
        band = state.bands[0]
        assert state.band_by_name(band.name) == band
        with pytest.raises(KeyError):
            state.band_by_name("nope")

    def test_reset_clock(self):
        state = ClusterState(Config())
        state.clock.run_subtask(state.bands[0], 0.0, 1.0)
        state.reset_clock()
        assert state.clock.makespan == 0.0
