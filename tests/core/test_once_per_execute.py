"""An operator instance executes at most once per ``execute()``.

Two mechanisms make that a property of a fault-free run and this file
holds them to it from the outside: sibling fusion (``core/fusion.py``:
the outputs of one operator run in one subtask and are all stored) and
plan-aware retention (``services/lifecycle.py``: a stored chunk stays
while the plan of this execute still has a reader for it, across
dynamic-tiling stages).  Neither may cost a leak: when ``execute()``
returns, storage holds the results, the cache's entries and what it held
before — nothing else.
"""

from __future__ import annotations

import contextlib
from collections import Counter

import numpy as np
import pytest

import repro.core.executor as executor_module
import repro.services.runner as runner_module
from repro import frame as pf
from repro.core.procpool import iter_subtask_ops
from repro.dataframe import from_frame
from repro.workloads.tpch import ALL_QUERIES, generate_tables
from repro.workloads.tpch.queries import materialize
from tests.core.golden_harness import WORKLOADS, make_session, tpch_q5
from tests.core.test_memory_pressure import tensor_fanout_exact

TPCH_CHUNK_LIMIT = 64 * 1024


def tpch_q3(session):
    tables = generate_tables(sf=1.0, seed=7)
    handles = {name: from_frame(frame, session)
               for name, frame in tables.items()}
    return materialize(ALL_QUERIES["q3"](handles))


#: name -> (workload, session overrides): two multi-join queries with a
#: dozen tiling yields each, and the two shuffles.
SCENARIOS = {
    "q3": (tpch_q3, {"chunk_limit": TPCH_CHUNK_LIMIT}),
    "q5": (tpch_q5, WORKLOADS["tpch_q5"][1]),
    "groupby_shuffle": WORKLOADS["groupby_shuffle"],
    "sort": WORKLOADS["sort"],
}


@contextlib.contextmanager
def count_kernel_runs():
    """``Counter``: operator instance -> kernel-loop runs it was part of.

    Every kernel runs behind ``run_subtask_kernels``, once per operator
    of the subtask it is handed, and the loop is reached three ways: a
    band runner's ``precompute`` (inline), its ``compute`` (the hop to a
    pool process, where a parent-side wrapper of ``Operator.execute``
    would see nothing) and the accounting walk's own call for a retry
    or a lineage recovery.  Counting at those three doors is the same
    count in serial and process mode.  No exemption is made for source
    slices: a ``FromFrameSlice`` a later stage reads again is held like
    any other chunk (it is a copy of rows the session already owns, so
    holding it costs its bytes once, redoing it costs the copy again —
    and, through the subtask around it, 28 messages).
    """
    runs: Counter = Counter()

    def counting(call, subtask_at):
        def counted(*args, **kwargs):
            runs.update(iter_subtask_ops(args[subtask_at]))
            return call(*args, **kwargs)
        return counted

    patched = [
        (runner_module, "run_subtask_kernels", 0),
        (executor_module, "run_subtask_kernels", 0),
        (runner_module.SubtaskRunner, "compute", 1),
    ]
    originals = [owner.__dict__[name] for owner, name, _ in patched]
    for (owner, name, subtask_at), original in zip(patched, originals):
        setattr(owner, name, counting(original, subtask_at))
    try:
        yield runs
    finally:
        for (owner, name, _), original in zip(patched, originals):
            setattr(owner, name, original)


class TestOncePerExecute:
    @pytest.mark.parametrize("parallel", [False, True],
                             ids=["serial", "process"])
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_kernel_runs_equal_operator_instances(self, name, parallel):
        workload, overrides = SCENARIOS[name]
        with make_session(parallel=parallel, **overrides) as session:
            with count_kernel_runs() as runs:
                workload(session)
            assert session.tiler.yield_count > 0  # stages did switch
        assert runs
        repeated = {type(op).__name__: n for op, n in runs.items() if n > 1}
        assert not repeated
        assert sum(runs.values()) == len(runs)

    def test_profile_tool_counts_the_same_thing(self):
        # ``tools/profile_workload.py --ops`` wraps the kernels themselves
        # (serial only); its verdict must agree with the count above.
        import os
        import sys

        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        sys.path.insert(0, os.path.join(root, "tools"))
        try:
            from profile_workload import count_op_calls, ops_report
        finally:
            sys.path.remove(os.path.join(root, "tools"))
        workload, overrides = SCENARIOS["groupby_shuffle"]
        with make_session(**overrides) as session:
            with count_op_calls() as calls, count_kernel_runs() as runs:
                workload(session)
        lines, repeats = ops_report(calls)
        assert repeats == 0, "\n".join(lines)
        assert sum(len(made) for made in calls.values()) == len(runs)


def stored_after(session, tileables, stored_before):
    """What ``execute()`` may leave in storage, and what it did."""
    stored = set(session.storage.all_keys())
    results = {chunk.key for t in tileables for chunk in t.chunks}
    allowed = stored_before | results | set(session.lifecycle.cache_protected())
    return stored, results, allowed


class TestNoLeak:
    @pytest.mark.parametrize("cache", [False, True],
                             ids=["cache_off", "cache_on"])
    def test_storage_holds_results_cache_entries_and_what_was_there(
            self, cache):
        tables = generate_tables(sf=1.0, seed=7)
        with make_session(chunk_limit=TPCH_CHUNK_LIMIT,
                          result_cache=cache) as session:
            handles = {name: from_frame(frame, session)
                       for name, frame in tables.items()}
            kept = handles["orders"][handles["orders"]["o_totalprice"] > 0]
            kept.execute()  # a previously materialized tileable
            before = set(session.storage.all_keys())
            assert before
            for query in ("q3", "q5"):
                result = ALL_QUERIES[query]({**handles, "orders": kept})
                result.execute()
                stored, results, allowed = stored_after(
                    session, [result.data], before)
                assert results <= stored
                assert stored <= allowed
                if not cache:
                    # exactly what the engine without retention left: the
                    # result, and what a later stage did not consume.
                    assert stored - before == results
                before = stored

    def test_output_nobody_reads_is_never_stored(self):
        # the closure pulls an operator's outputs in together, but only
        # what the plan reads is kept: asking a QR for R alone must not
        # store (or account a put for) one Q block.
        from repro.tensor import qr, tensor_from_numpy

        tall = np.random.default_rng(2).random((4_096, 16))
        with make_session(chunk_limit=64 * 1024) as session:
            q, r = qr(tensor_from_numpy(tall, session))
            got = r.fetch()

            def behind(chunks):
                seen, stack = {}, list(chunks)
                while stack:
                    chunk = stack.pop()
                    if chunk.key not in seen:
                        seen[chunk.key] = chunk
                        stack.extend(chunk.inputs)
                return seen

            only_q = behind(q.data.chunks).keys() - behind(r.data.chunks).keys()
            assert len(only_q) > len(q.data.chunks)  # the leaf Q blocks too
            stored_once = [key for key in only_q
                           if session.lifecycle.producer_of(key) is not None]
        assert stored_once == []
        np.testing.assert_allclose(np.abs(got),
                                   np.abs(np.linalg.qr(tall, mode="r")))

    def test_untouched_chunks_of_an_earlier_result_survive(self):
        # head() reads the first chunk of a materialized frame: consuming
        # that one frees it, as it always did; the other fifteen were
        # never part of a stage and are not this run's to drop.
        rng = np.random.default_rng(1)
        local = pf.DataFrame({"k": rng.integers(0, 20, 4_000),
                              "v": rng.normal(size=4_000)})
        with make_session(chunk_limit=4_000) as session:
            frame = from_frame(local, session)
            kept = frame[frame["v"] > -10.0]
            kept.execute()
            chunk_keys = [chunk.key for chunk in kept.data.chunks]
            assert len(chunk_keys) > 2
            kept.head(3).execute()
            missing = session.storage.missing_keys(chunk_keys)
        assert missing == chunk_keys[:1]

    def test_retile_after_out_of_memory_leaves_only_the_result(self):
        with make_session(memory_limit=16 * 1024) as session:
            value = tensor_fanout_exact(session)
            assert session.executor.report.pressure_splits >= 1
            stored = session.storage.all_keys()
            # the plan is forgotten with the run: nothing is held now.
            assert session.lifecycle.held(
                stored, set(), session.session_id) == []
        assert len(stored) == 1  # the scalar sum's single chunk
        assert value == np.arange(2048 * 8).sum() * 2 + 2048 * 8

    def test_held_chunks_are_not_pinned(self):
        # a chunk held for a later stage is still a spill victim: asking
        # each worker for its whole budget spills everything it holds.
        workload, overrides = WORKLOADS["groupby_shuffle"]
        with make_session(**overrides) as session:
            workload(session)
            assert not session.storage.pinned_keys()
            for worker in session.cluster.workers:
                tracker = session.cluster.memory[worker.name]
                session.storage.ensure_free(worker.name, tracker.limit)
                assert tracker.used == 0


class TestSiblingRecovery:
    def test_lost_partition_recomputes_its_mapper(self):
        workload, overrides = WORKLOADS["groupby_shuffle"]
        with make_session(**overrides) as clean:
            expected = workload(clean)
            shuffle_stage = clean.executor._stage_index
        with make_session(**overrides) as session:
            # the shuffle stage's first subtask is a mapper holding one
            # partition per reducer: lose its second one.
            session.faults.script_chunk_loss(shuffle_stage, 0, 1)
            with count_kernel_runs() as runs:
                actual = workload(session)
            report = session.executor.report
            events = [e for e in session.faults.events
                      if e.point == "chunk_loss"]
        assert len(events) == 1
        # the reducer that misses the partition retries once; lineage
        # re-runs the mapper, and before it the map chunk the mapper had
        # consumed (and thereby freed) the first time.
        assert report.retries == 1 and report.recomputed_subtasks == 2
        twice = {type(op).__name__: op for op, n in runs.items() if n == 2}
        assert sorted(twice) == [
            "FromFrameSlice", "GroupByAgg", "GroupByPartition"]
        assert len(twice["GroupByPartition"].outputs) > 2
        assert max(runs.values()) == 2
        assert repr(actual) == repr(expected)
        rng = np.random.default_rng(11)
        oracle = pf.DataFrame({
            "k": rng.integers(0, 200, 4_000), "v": rng.normal(size=4_000),
        }).groupby("k").agg({"v": "sum"})
        np.testing.assert_allclose(
            np.sort(np.asarray(actual["v"].values, float)),
            np.sort(np.asarray(oracle["v"].values, float)))


class TestAccumulatingBaselineUnchanged:
    def test_eager_release_off_still_keeps_every_terminal_chunk(self):
        """``eager_release=False`` (the Modin profile) pins user-visible
        frames forever — not "while the plan has a reader": a groupby
        result a later query consumed is still there afterwards, where
        the default engine frees it with its last consumer."""
        rng = np.random.default_rng(4)
        local = pf.DataFrame({"k": rng.integers(0, 10, 2_000),
                              "v": rng.normal(size=2_000)})
        kept = {}
        for eager in (True, False):
            with make_session(chunk_limit=4_000, eager_release=eager,
                              dynamic_tiling=False) as session:
                sums = from_frame(local, session).groupby(
                    "k", as_index=False).agg({"v": "sum"})
                sums.execute()
                out = sums.sort_values("v")
                out.execute()
                stored = set(session.storage.all_keys())
                kept[eager] = (
                    stored,
                    {chunk.key for chunk in sums.data.chunks},
                    {chunk.key for chunk in out.data.chunks},
                )
        stored, sums_keys, out_keys = kept[True]
        assert stored == out_keys
        stored, sums_keys, out_keys = kept[False]
        assert stored == sums_keys | out_keys
