"""One workload's measurement, run inside its own process by ``run.py``.

``measure_end_to_end`` is the untraced run: set-up three times (median
reported as ``setup_s``), then a closed loop of identical cold
iterations for the requested seconds.  Its timings are scaled to the
reference speed by the calibrations taken either side of each one
(``calibrate.py``).  ``measure_layers`` is the traced run behind
``--trace``: untraced reps for the overhead baseline, reps under
``trace.instrument``, then the comparison runs (serial dispatch, result
cache off) whose wall-clock some layer metrics are ratios of; its
numbers are wall-clock as measured.

Every iteration is checked against the oracle, against the first
iteration's counters, and for threads left behind by ``Session.close``;
a miss is a failed operation in the result, never an exception out of
here.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import threading
import time
import traceback
from dataclasses import dataclass, field

from repro.actors import Actor, ActorSystem

import trace
from calibrate import REFERENCE_S, calibration_s, to_reference
from workloads import WORKLOADS, Iteration, Workload, run_iteration

HERE = os.path.dirname(os.path.abspath(__file__))

#: a run measures at least this many iterations, however slow they are.
MIN_REPS = 3
#: set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3


def _live_threads() -> int:
    return sum(1 for t in threading.enumerate()
               if t.is_alive() and not t.daemon)


@dataclass
class Walls:
    """Wall seconds of the iterations of one loop that passed their
    checks: as measured, and scaled to the reference speed."""

    raw: list[float] = field(default_factory=list)
    reference: list[float] = field(default_factory=list)


class Bench:
    """Set-up state of one workload plus the checked iteration."""

    def __init__(self, workload: Workload, seed: int, scale: float):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.setup_times = Walls()
        #: every calibration of the run, to report the machine's speed
        self.calibrations: list[float] = []
        self.oracle_s = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        #: the first good iteration's session counters; every later one
        #: must match them exactly (the determinism contract:
        #: parallelism may change only wall-clock).
        self.counters: dict | None = None

    def set_up(self) -> None:
        """Generate inputs, compute the oracle answer, run and discard
        one warm-up iteration (first-use imports, pools, allocator)."""
        before = self.calibrate()
        start = time.perf_counter()
        self.inputs = self.workload.generate(self.seed, self.scale)
        oracle_start = time.perf_counter()
        self.expected = self.workload.oracle(self.inputs)
        self.oracle_s = time.perf_counter() - oracle_start
        run_iteration(self.workload, self.inputs)
        self._record(self.setup_times, time.perf_counter() - start,
                     before, self.calibrate())
        self.threads_after_warmup = _live_threads()

    def calibrate(self) -> float:
        self.calibrations.append(calibration_s())
        return self.calibrations[-1]

    def speed_factor(self) -> float:
        """Median calibration of the run over the reference: how much
        slower (> 1) than its usual state the machine was."""
        return statistics.median(self.calibrations) / REFERENCE_S

    @staticmethod
    def _record(walls: Walls, wall_s: float, before: float,
                after: float) -> None:
        walls.raw.append(wall_s)
        walls.reference.append(to_reference(wall_s, before, after))

    def iteration(self, **kwargs) -> Iteration | None:
        """One checked iteration, or None if it failed a check."""
        self.attempted += 1
        try:
            result = run_iteration(self.workload, self.inputs, **kwargs)
        except Exception:  # the harness must outlive a failing iteration
            return self._fail("raised\n" + traceback.format_exc())
        if not self.workload.matches(result.value, self.expected):
            return self._fail("result differs from the single-node oracle")
        if _live_threads() > self.threads_after_warmup:
            return self._fail("non-daemon threads survived Session.close()")
        if kwargs.get("mutate_config") is None:
            if self.counters is None:
                self.counters = result.counters
            elif result.counters != self.counters:
                drift = sorted(k for k, v in result.counters.items()
                               if v != self.counters[k])
                return self._fail(f"counters changed between reps: {drift}")
        return result

    def _fail(self, what: str) -> None:
        self.failures.append(f"iteration {self.attempted}: {what}")

    def loop(self, seconds: float, reps: int | None = None, *,
             min_reps: int = MIN_REPS, max_reps: int | None = None,
             **kwargs) -> Walls:
        """Closed loop, one client: the next iteration starts when the
        previous one returned.  Runs exactly ``reps`` iterations if
        given, else until ``seconds`` have passed (but at least
        ``min_reps`` and at most ``max_reps``).  A calibration runs
        between every two iterations, inside the requested seconds."""
        walls, count = Walls(), 0
        deadline = time.perf_counter() + seconds

        def more() -> bool:
            if reps:
                return count < reps
            if count < min_reps:
                return True
            if max_reps and count >= max_reps:
                return False
            return time.perf_counter() < deadline

        before = self.calibrate()
        while more():
            result = self.iteration(**kwargs)
            count += 1
            after = self.calibrate()
            if result is not None:
                self._record(walls, result.wall_s, before, after)
            before = after
        return walls


def _peak_rss_mib() -> float:
    """Peak resident set of this process plus its largest reaped child
    (pool workers are reaped when their session closes); Linux reports
    ``ru_maxrss`` in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _result(bench: Bench, metrics: dict, info: dict) -> dict:
    return {
        "workload": bench.workload.name,
        "seed": bench.seed,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "failures": bench.failures,
        "metrics": metrics,
        "info": info,
    }


def measure_end_to_end(name: str, seed: int, seconds: float, scale: float,
                       reps: int | None) -> dict:
    bench = Bench(WORKLOADS[name], seed, scale)
    for _ in range(SETUP_REPS):
        bench.set_up()
    loop = bench.loop(seconds, reps)
    walls = loop.reference
    rows = bench.workload.input_rows(bench.inputs)
    metrics, info = {}, {"input_rows": rows, "reps": len(walls)}
    if walls:
        wall = statistics.median(walls)
        q1, q3 = _quartiles(walls)
        metrics = {
            "setup_s": statistics.median(bench.setup_times.reference),
            "wall_s": wall,
            "rows_per_s": rows / wall,
            "peak_rss_mib": _peak_rss_mib(),
        }
        info.update(wall_q1_s=q1, wall_q3_s=q3, wall_min_s=min(walls),
                    wall_max_s=max(walls), walls_s=walls,
                    raw_wall_s=statistics.median(loop.raw),
                    raw_walls_s=loop.raw,
                    raw_setup_s=statistics.median(bench.setup_times.raw),
                    speed_factor=bench.speed_factor())
    return _result(bench, metrics, info)


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

class _Noop(Actor):
    def ping(self) -> None:
        return None


def _noop_roundtrip_us(calls: int = 10_000) -> float:
    """Wall microseconds of one actor message that does nothing: the
    fixed cost every service call pays on top of its own work."""
    system = ActorSystem()
    system.create_pool("bench")
    ref = system.create_actor("bench", _Noop, uid="noop")
    start = time.perf_counter()
    for _ in range(calls):
        ref.ping()
    elapsed = time.perf_counter() - start
    system.shutdown()
    return elapsed / calls * 1e6


def _serial(cfg) -> None:
    cfg.parallel_execution = False


def _uncached(cfg) -> None:
    cfg.result_cache = False


def measure_layers(name: str, seed: int, seconds: float, scale: float,
                   reps: int | None) -> dict:
    """Per-layer metrics.  The time budget splits 3:3:2:2 between
    untraced reps, traced reps, serial-dispatch reps and (where the
    workload turns the cache on) cache-off reps."""
    bench = Bench(WORKLOADS[name], seed, scale)
    bench.set_up()
    cached = bench.workload.config(bench.inputs).result_cache
    share = seconds / 10
    untraced = bench.loop(3 * share, reps, min_reps=2).raw
    recorder = trace.Recorder()
    with trace.instrument(recorder):
        traced = bench.loop(3 * share, 2 if reps else None, min_reps=2,
                            recorder=recorder).raw
    totals = [trace.layer_totals(recorder.spans, i + 1)
              for i in range(recorder.iteration)]
    serial = bench.loop((2 if cached else 4) * share, 1 if reps else None,
                        min_reps=1, max_reps=3, mutate_config=_serial).raw
    uncached = bench.loop(
        2 * share, 1 if reps else None, min_reps=1, max_reps=3,
        mutate_config=_uncached).raw if cached else []

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}.trace.json"), "w") as f:
        json.dump(trace.chrome_trace(recorder.spans), f)

    metrics = {}
    if untraced and traced and serial and (uncached or not cached):
        metrics = _layer_metrics(
            totals, bench.counters, wall=statistics.median(untraced),
            traced_wall=statistics.median(traced),
            serial_wall=statistics.median(serial),
            # with the cache off by default, the plain run is the uncached one
            uncached_wall=statistics.median(uncached or untraced),
            oracle_s=bench.oracle_s, speed_factor=bench.speed_factor(),
        )
    info = {"untraced_reps": len(untraced), "traced_reps": len(traced),
            "serial_reps": len(serial), "uncached_reps": len(uncached),
            "spans": len(recorder.spans)}
    return _result(bench, metrics, info)


def _layer_metrics(totals: list[trace.LayerTotals], counters: dict, *,
                   wall: float, traced_wall: float, serial_wall: float,
                   uncached_wall: float, oracle_s: float,
                   speed_factor: float) -> dict:
    """Medians over the traced iterations of each layer's busy time
    (``total``), self time or call count, plus the session counters.

    Every layer time includes one freshly measured empty span — the
    recorder's resolution — so a layer the workload never enters reads
    that floor (about a microsecond, as measured) instead of an exact 0
    that would look like a rounded number."""
    def med(kind: str, span: str) -> float:
        return statistics.median(getattr(t, kind).get(span, 0) for t in totals)

    def busy(span):
        return med("total_s", span) + trace.span_floor_s()

    def self_time(span):
        return med("self_s", span) + trace.span_floor_s()

    def calls(span):
        return med("count", span)

    noop_us = _noop_roundtrip_us()
    messages = counters["actors.messages"]
    subtasks = counters["graph.n_subtasks"]
    m = {
        "api.build_s": self_time("iteration"),
        "tiler.graph_build_s": busy("tiler.graph_build"),
        "pruning.prune_s": busy("pruning.prune"),
        "fusion.groups_s": busy("fusion.groups"),
        "tiler.tile_self_s": self_time("tiler.tile"),
        "graph.subtask_build_s": busy("graph.subtask_build"),
        "graph.identity_s": busy("graph.identity"),
        "scheduling.assign_s": busy("scheduling.assign"),
        "scheduling.admit_s": busy("scheduling.admit"),
        "executor.execute_self_s": self_time("executor.execute"),
        "executor.stages": calls("executor.execute"),
        "dispatch.wait_s": busy("dispatch.wait"),
        "dispatch.serial_wall_s": serial_wall,
        "dispatch.thread_over_serial": serial_wall / wall,
        "runner.compute_s": busy("runner.compute"),
        "runner.subtasks": calls("runner.compute"),
        "runner.kernel_share": busy("runner.compute") / traced_wall,
        "frame.oracle_wall_s": oracle_s,
        "frame.overhead_ratio": wall / oracle_s,
        "engine.partition_s": busy("engine.partition"),
        "engine.persist_s": busy("engine.persist"),
        "engine.compute_s": busy("engine.compute"),
        "storage.put_s": busy("storage.put"),
        "storage.get_s": busy("storage.get"),
        "shuffle.register_s": busy("shuffle.register"),
        "shuffle.gather_s": busy("shuffle.gather"),
        "actors.messages_per_subtask": messages / max(subtasks, 1),
        "actors.noop_roundtrip_us": noop_us,
        "actors.est_overhead_s": messages * noop_us / 1e6,
        "procpool.run_subtask_s": busy("procpool.run_subtask"),
        "procpool.encode_s": busy("procpool.encode"),
        "procpool.decode_s": busy("procpool.decode"),
        "procpool.wire_bytes": med("nbytes", "procpool.encode")
        + med("nbytes", "procpool.decode"),
        "cache.lookup_s": busy("cache.lookup"),
        "cache.record_s": busy("cache.record"),
        "cache.uncached_wall_s": uncached_wall,
        "session.execute_s": busy("session.execute"),
        "session.fetch_s": busy("session.fetch"),
        "session.unattributed_s": self_time("session.execute")
        + self_time("session.fetch"),
        "trace.overhead_frac": traced_wall / wall - 1,
        "trace.untraced_wall_s": wall,
        "machine.speed_factor": speed_factor,
    }
    m.update(counters)
    return m
