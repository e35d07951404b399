"""Where one iteration of an end-to-end workload spends its time.

Generates the workload's inputs through ``benchmarks/e2e/workloads.py``
(imported, never edited), runs one warm-up and one cProfile'd
``run_iteration`` and prints the top N functions under ``src/`` by self
time, each with the callers that account for it.  cProfile charges every
Python call and no native work, so read the table for *where*, then
measure *how much* with ``benchmarks/e2e/run.py``.

``--ops`` answers a different question without reading a clock: per
operator class, how many kernel calls one iteration made against how many
distinct operator instances it made them on.  An instance that runs twice
in one fault-free ``execute()`` is re-done work, so the exit status is
non-zero when any class has calls > distinct (the ``bench-smoke`` CI job
runs this for ``tpch_join`` and ``groupby_shuffle``).

``--encodes`` does the same for dictionary encoding on the columnar
engine: per operator class, the rows its kernels produced against the
cells hashed (``dtypes.hash_cells``: every cell of a column, or only the
objects of a column of a few shared ones) while the kernel ran and while
its result was persisted.  A dictionary made at the source rides with the
column, so only operators without inputs should hash; the exit status is
non-zero when any other class hashes half as many cells as it produced rows,
or when the in-memory source (``FromFrameSlice``, which books its handle's
once-per-handle encode) hashes more cells than the string columns of the
handles it read hold rows (the ``engine-smoke`` CI job runs this for
``strkey_columnar``).

``--columns`` shows what column pruning made of each source, again
without a clock: per ``execute()`` and source tileable, the columns the
source declares, the columns that plan requires of it, the columns its
chunks carry (more than required when an earlier query over the same
handle needed others) and the chunks it was cut into.  Then the columns
moved: per row-moving kernel class (``FilterChunk``, ``MergeChunk``,
``ILocChunk``, ``SortChunk``) the columns its calls emitted (a filter's
selection: the columns it passes on) against the columns its tileable
carries; per kernel class the columns selections gathered for it
(``Selection.gather``, where a filter's rows are finally moved: in a
selection-reading kernel, or at ``(materialize)``); and per source class
the bytes it handed out: borrowed (a window of the client's column),
encoded (the columnar engine's dictionary window, a copy by design) or
copied.  The exit status is non-zero when a source is read whole
although no result of that ``execute()`` shows all of its columns (some
operator between the two answered "everything"), when a ``FilterChunk``
passes on a column its tileable does not carry, when a column is
gathered twice through one selection within one subtask, or when a
``FromFrameSlice`` copies bytes (the ``bench-smoke`` CI job runs this
for ``tpch_join`` and ``tpch_scan``).

``--engine row|columnar`` runs the workload's plan on that chunk engine
whatever its own config says, and first prints the median of seven
alternating untraced iterations on each engine and their columnar / row
ratio.

``--messages`` counts the actor plane's deliveries over one iteration's
session (the total is that iteration's ``actors.messages``), by recipient
kind (``runner/*`` for every band's runner, ``session-*/actor`` for every
session actor) and method, and the messages per subtask (the
``bench-smoke`` CI job runs this for ``groupby_shuffle`` and
``tpch_join``).

``--keys`` books every ``factorize`` call on the operator class whose
kernel made it, by the path it took — ``dictionary`` (an encoded
column's codes, compacted), ``counting`` (integers within
``DENSE_RANGE``), ``sort`` (``np.unique``), ``identity`` (an object
column of at most ``IDENTITY_BOUND`` shared objects, numbered by
address) or ``hashed`` (object cells, one by one) — with the calls, rows
and cells hashed each path took, and every merge whose single integer
key pair joined by ``offset`` (offsets from the joint minimum, no
``factorize`` at all; rows of both sides).  The exit status is non-zero
when a kernel returns an object column whose cells are all NumPy scalars
of one type (a typed column that lost its dtype on the way), when an
object column of at least ``IDENTITY_ROWS`` cells and at most
``IDENTITY_BOUND`` distinct objects was hashed cell by cell, or when a
single integer join key pair whose joint range is within
``DENSE_RANGE`` times the rows of both sides went through ``factorize``.
It also books every comparison with a scalar, ``isin`` and ``.str`` map
over an object column by whether ``dtypes.per_object`` answered it once
per distinct object or it walked the cells, and exits non-zero when one
walked a column of at least ``IDENTITY_ROWS`` cells and at most
``IDENTITY_BOUND`` distinct objects.  Every range cut
(``dataframe.shuffle.range_cuts``, booked on the operator that asked for
it) and range partition (``engine.partition.assign_range_partitions``)
is booked by the order it compared keys in: ``single-type`` (a typed
column, or cells of one type: the C-level sort and ``np.searchsorted``)
or ``order_key`` (cells of mixed types, one ``dtypes.order_key`` per
cell); the exit status is non-zero when a workload that
``BENCHMARK.json`` gates took ``order_key`` (the ``bench-smoke`` CI job
runs this for ``tpch_join``, ``plan_sweep``, ``tpch_scan`` and
``strkey_columnar``, the gated workload that range-shuffles).

Run: ``PYTHONPATH=src python tools/profile_workload.py tpch_scan --top 15``
     ``PYTHONPATH=src python tools/profile_workload.py tpch_join --ops``
     ``PYTHONPATH=src python tools/profile_workload.py tpch_join --messages``
     ``PYTHONPATH=src python tools/profile_workload.py strkey_columnar --encodes``
     ``PYTHONPATH=src python tools/profile_workload.py tpch_join --columns``
     ``PYTHONPATH=src python tools/profile_workload.py tpch_scan --engine columnar``
     ``PYTHONPATH=src python tools/profile_workload.py tpch_join --keys``
"""

from __future__ import annotations

import argparse
import cProfile
import itertools
import json
import os
import pstats
import re
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from unittest import mock

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src") + os.sep
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "benchmarks", "e2e"))

import workloads  # noqa: E402
from workloads import WORKLOADS, run_iteration  # noqa: E402

from repro.core import session as core_session  # noqa: E402
from repro.core.operator import DataSourceOp, Operator  # noqa: E402
from repro.dataframe import groupby as dataframe_groupby  # noqa: E402
from repro.dataframe import merge as dataframe_merge  # noqa: E402
from repro.dataframe import shuffle as dataframe_shuffle  # noqa: E402
from repro.dataframe import sort as dataframe_sort  # noqa: E402
from repro.dataframe.datasource import (  # noqa: E402
    FromFrame,
    FromFrameSlice,
    columns_to_read,
)
from repro.dataframe.indexing import FilterChunk, ILocChunk  # noqa: E402
from repro.dataframe.merge import MergeChunk  # noqa: E402
from repro.dataframe.sort import SortChunk  # noqa: E402
from repro.core.session import Session  # noqa: E402
from repro.engine import partition as engine_partition  # noqa: E402
from repro.engine import row as row_engine  # noqa: E402
from repro.frame import DataFrame, Series  # noqa: E402
from repro.frame import dtypes as frame_dtypes  # noqa: E402
from repro.frame.selection import Selection  # noqa: E402
from repro.frame.strings import StringMethods  # noqa: E402
from repro.frame import groupby as frame_groupby  # noqa: E402
from repro.frame import join as frame_join  # noqa: E402
from repro.services import runner  # noqa: E402


def _subclasses(cls: type):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@contextmanager
def count_op_calls(running: list | None = None, on_result=None):
    """Wrap every kernel entry point; yields ``{class name: [(instance,
    seconds), ...]}``, one pair per call, where ``instance`` names an
    operator object within one ``Session.execute`` (two queries over the
    same handles each slice their sources: two executes, no repeat).
    While a kernel runs its class name is the last item of ``running``;
    ``on_result(class name, result)`` sees what each call returned.

    The entry points are each ``Operator`` subclass's own ``execute``
    (the ops of a fused step run one by one, each booked under its own
    class).  In-process only: process mode runs kernels in pool
    children, out of reach of a parent-side wrapper.
    """
    calls: dict[str, list] = defaultdict(list)
    patched: list[tuple[type, str, object]] = []
    executes = itertools.count()
    current = [next(executes)]
    running = [] if running is None else running

    def wrap(owner: type, attr: str, label):
        original = owner.__dict__[attr]

        def counted(self, *args, **kwargs):
            op, name = label(self)  # the op itself: ids get reused
            running.append(name)
            start = time.perf_counter()
            try:
                result = original(self, *args, **kwargs)
            finally:
                running.pop()
                calls[name].append(((current[0], op),
                                    time.perf_counter() - start))
            if on_result is not None:
                on_result(name, result)
            return result

        patched.append((owner, attr, original))
        setattr(owner, attr, counted)

    session_execute = Session.__dict__["execute"]

    def execute(self, *tileables):
        current[0] = next(executes)
        return session_execute(self, *tileables)

    patched.append((Session, "execute", session_execute))
    Session.execute = execute

    for cls in {Operator, *_subclasses(Operator)}:
        if "execute" in cls.__dict__:
            wrap(cls, "execute", lambda op: (op, type(op).__name__))
    try:
        yield calls
    finally:
        for owner, attr, original in patched:
            setattr(owner, attr, original)


def ops_report(calls: dict[str, list]) -> tuple[list[str], int]:
    """The per-class table, and how many calls were a repeat."""
    lines = [f"{'calls':>7} {'distinct':>9} {'seconds':>9}  operator class"]
    repeats = 0
    rows = sorted(calls.items(), key=lambda item: -sum(s for _, s in item[1]))
    for name, made in rows:
        distinct = len({op for op, _ in made})
        repeats += len(made) - distinct
        flag = "  <-- re-executed" if len(made) > distinct else ""
        lines.append(f"{len(made):7d} {distinct:9d} "
                     f"{sum(s for _, s in made):9.3f}  {name}{flag}")
    n_calls = sum(len(made) for made in calls.values())
    lines.append(f"{n_calls:7d} {n_calls - repeats:9d} "
                 f"{sum(s for made in calls.values() for _, s in made):9.3f}"
                 "  total")
    return lines, repeats


@contextmanager
def count_encodes():
    """Book the cells every ``dtypes.hash_cells`` call hashed on the
    operator whose kernel, or whose result's ``persist``, made it; yields
    ``({class name: [is_source, calls, rows out, cells hashed]},
    {(handle, column): rows})``
    — the second maps every string column an in-memory source was tiled to
    read to its rows.  Kernels run one after another (in-process only, like
    :func:`count_op_calls`), so the cells hashed since the previous
    operator's ``persist`` returned are this operator's."""
    table: dict[str, list] = defaultdict(lambda: [False, 0, 0, 0])
    string_rows: dict[tuple, int] = {}
    pending = [0]
    hash_cells = frame_dtypes.hash_cells
    persist_result = runner.persist_result
    tile = FromFrame.tile

    def recorded_tile(op, ctx):
        frame = op._read_frame()
        for name in frame.columns.to_list():
            cells = frame[name].values.tolist()
            if cells and set(map(type, cells)) == {str}:
                string_rows[op, name] = len(cells)
        return tile(op, ctx)

    def counted_hash(cells):
        pending[0] += len(cells)
        return hash_cells(cells)

    def counted_persist(engine, op, result):
        values = result.values() if runner.is_multi_output(op, result) \
            else [result]
        try:
            return persist_result(engine, op, result)
        finally:
            row = table[type(op).__name__]
            row[0] = not op.inputs
            row[1] += 1
            row[2] += sum(len(v) for v in values if hasattr(v, "__len__"))
            row[3] += pending[0]
            pending[0] = 0

    with mock.patch.object(frame_dtypes, "hash_cells", counted_hash), \
            mock.patch.object(runner, "persist_result", counted_persist), \
            mock.patch.object(FromFrame, "tile", recorded_tile):
        yield table, string_rows


def encodes_report(table: dict[str, list],
                   string_rows: dict[tuple, int]) -> tuple[list[str], list[str]]:
    """The per-class table, and the classes that re-encode their rows:
    an operator with inputs that hashes O(rows) cells, or an in-memory
    source that hashes its handles' strings more than once."""
    lines = [f"{'calls':>7} {'rows out':>10} {'cells hashed':>13}  "
             "operator class"]
    offenders = []
    once = sum(string_rows.values())
    for name, (is_source, calls, rows, hashed) in sorted(
            table.items(), key=lambda item: -item[1][3]):
        if name == FromFrameSlice.__name__:
            bad = hashed > once
            note = (f"  (source; its handles' string columns hold {once} "
                    "rows)" + ("  <-- re-hashes them" if bad else ""))
        else:
            bad = not is_source and hashed > 0 and 2 * hashed >= rows
            note = ("  (source)" if is_source
                    else "  <-- re-encodes" if bad else "")
        if bad:
            offenders.append(name)
        lines.append(f"{calls:7d} {rows:10d} {hashed:13d}  {name}{note}")
    return lines, offenders


#: ``factorize``'s paths, every one but ``sort`` calling a helper of its
#: own, and a merge's ``offset`` path, which calls no ``factorize``
KEY_PATHS = ("dictionary", "offset", "counting", "sort", "identity", "hashed")


@contextmanager
def count_key_paths():
    """Book every ``factorize`` call on the operator class whose kernel
    made it (``(outside kernels)`` for the rest), by the path it took;
    yields ``({class name: {path: [calls, rows, cells hashed]}},
    [(class name, column, scalar type)], [(class name, rows, objects)],
    [(class name, rows)], {(class name, map, path): [calls, rows]},
    [(class name, map, rows, objects)], {(class name, kind, path):
    [calls, values]})`` — the second lists each
    kernel-output object column whose cells are all NumPy scalars of one
    type, the third each object column of at least ``IDENTITY_ROWS``
    cells and at most ``IDENTITY_BOUND`` distinct objects that was hashed
    cell by cell, the fourth each single integer join key pair within
    the offset bound that was factorized.  The fifth books every
    comparison with a scalar, ``isin`` and ``.str`` map over an object
    column by whether ``dtypes.per_object`` answered it (``per-object``)
    or it walked the cells (``per-cell``), and the sixth lists each walk
    over a column of at least ``IDENTITY_ROWS`` cells and at most
    ``IDENTITY_BOUND`` distinct objects.  The seventh books every range
    cut (values: the cuts) and range partition (values: the keys) by
    the order it compared keys in, ``single-type`` or ``order_key``.

    A call takes the ``sort`` path unless, while it runs, it compacts a
    dictionary, counts its ids, numbers its shared objects or hashes its
    cells.  In-process only, like :func:`count_op_calls`."""
    paths: dict[str, dict] = defaultdict(
        lambda: {path: [0, 0, 0] for path in KEY_PATHS})
    lost: list[tuple] = []
    per_cell: list[tuple] = []
    factorized_offsets: list[tuple] = []
    running: list[str] = ["(outside kernels)"]
    taken: list[list] = []  # [path, cells hashed] of the call in flight
    offset_keys: list[bool] = []  # per merge encode in flight: offset-able

    def marking(path, helper):
        def marked(*args, **kwargs):
            if taken:
                taken[-1][0] = path
            return helper(*args, **kwargs)
        return marked

    def identified(cells):
        shared = shared_objects(cells)
        if shared is not None and taken:
            taken[-1][0] = "identity"
        return shared

    def hashed(cells):
        if taken:
            taken[-1][1] += len(cells)
        return hash_cells(cells)

    def encoding(left_arrays, right_arrays):
        """Whether the key pair should join by offset, judged apart from
        the kernel: one integer pair within the bound."""
        pair = (left_arrays[0], right_arrays[0])
        present = [side for side in pair if len(side)]
        offset_keys.append(
            len(left_arrays) == 1 and bool(present)
            and all(frame_dtypes.is_integer(side.dtype) for side in pair)
            and max(int(side.max()) for side in present)
            - min(int(side.min()) for side in present) + 1
            <= frame_groupby.DENSE_RANGE * sum(map(len, pair)))
        try:
            return encode_keys(left_arrays, right_arrays)
        finally:
            offset_keys.pop()

    def offsets(la, ra, bound):
        found = join_offsets(la, ra, bound)
        if found is not None:
            row = paths[running[-1]]["offset"]
            row[0] += 1
            row[1] += len(la) + len(ra)
        return found

    def booked(values, rows=None):
        cells = values if rows is None else values[rows]  # what is keyed
        if offset_keys and offset_keys[-1]:
            factorized_offsets.append((running[-1], len(cells)))
        taken.append(["sort", 0])
        try:
            return factorize(values, rows)
        finally:
            path, n_hashed = taken.pop()
            row = paths[running[-1]][path]
            row[0] += 1
            row[1] += len(cells)
            row[2] += n_hashed
            if (path == "hashed"
                    and len(cells) >= frame_dtypes.IDENTITY_ROWS):
                objects = len(np.unique(frame_dtypes.addresses(cells)))
                if objects <= frame_dtypes.IDENTITY_BOUND:
                    per_cell.append((running[-1], len(cells), objects))

    def answering(cells, func, dtype):
        out = per_object(cells, func, dtype)
        if out is not None and answered:
            answered[-1] = True
        return out

    def watched(label, method, column):
        """``method`` booked as the object map ``label`` when
        ``column(self, *args)`` names the object column it maps."""
        def run(self, *args, **kwargs):
            values = column(self, *args)
            if values is None or not frame_dtypes.is_object(values.dtype):
                return method(self, *args, **kwargs)
            answered.append(False)
            try:
                return method(self, *args, **kwargs)
            finally:
                path = "per-object" if answered.pop() else "per-cell"
                row = maps[running[-1], label, path]
                row[0] += 1
                row[1] += len(values)
                if (path == "per-cell"
                        and len(values) >= frame_dtypes.IDENTITY_ROWS):
                    objects = len(np.unique(frame_dtypes.addresses(values)))
                    if objects <= frame_dtypes.IDENTITY_BOUND:
                        walked.append((running[-1], label, len(values),
                                       objects))
        return run

    def typed_cells(name, result):
        for value in (result.values() if isinstance(result, dict)
                      else [result]):
            columns = (value._data.items() if isinstance(value, DataFrame)
                       else [(value.name, value.values)]
                       if isinstance(value, Series) else [])
            for column, values in columns:
                if not frame_dtypes.is_object(values.dtype):
                    continue
                kinds = set(map(type, values.tolist()))
                if len(kinds) == 1 and issubclass(*kinds, np.generic):
                    lost.append((name, column, kinds.pop().__name__))

    ranging: list[list] = []  # [path] of the range cut or partition in flight
    ranges: dict[tuple, list] = defaultdict(lambda: [0, 0])

    def ordered(cells):
        key = sort_key(cells)
        # only the cut's or the partition's own ordering counts, not a
        # kernel's that runs while a cut waits for its chunks
        if (key is not None and ranging
                and sys._getframe(1).f_code in ranging_code):
            ranging[-1][0] = "order_key"
        return key

    def ranged(name, kind, values):
        path = ranging.pop()[0]
        row = ranges[name, kind, path]
        row[0] += 1
        row[1] += values

    def cutting(name, range_cuts):
        def cut(*args, **kwargs):
            ranging.append(["single-type"])
            try:
                cuts = yield from range_cuts(*args, **kwargs)
            except BaseException:
                ranging.pop()
                raise
            ranged(name, "range cut", len(cuts))
            return cuts
        return cut

    def partitioning(keys, *args, **kwargs):
        ranging.append(["single-type"])
        try:
            return assign_range_partitions(keys, *args, **kwargs)
        finally:
            ranged(running[-1], "range partition", len(keys))

    maps: dict[tuple, list] = defaultdict(lambda: [0, 0])
    walked: list[tuple] = []
    answered: list[bool] = []  # per object map in flight: per_object answered
    per_object = frame_dtypes.per_object
    factorize = frame_groupby.factorize
    shared_objects = frame_dtypes.shared_objects
    hash_cells = frame_dtypes.hash_cells
    encode_keys = frame_join._encode_keys
    join_offsets = frame_join._offsets
    sort_key = frame_dtypes.sort_key
    ranging_code = (dataframe_shuffle.range_cuts.__code__,
                    engine_partition._cuts_below.__code__)
    assign_range_partitions = row_engine.assign_range_partitions
    with count_op_calls(running, typed_cells), \
            mock.patch.object(frame_join, "_encode_keys", encoding), \
            mock.patch.object(frame_join, "_offsets", offsets), \
            mock.patch.object(frame_groupby, "factorize", booked), \
            mock.patch.object(frame_groupby, "dense_ids", marking(
                "counting", frame_groupby.dense_ids)), \
            mock.patch.object(frame_groupby, "factorize_cells", marking(
                "hashed", frame_groupby.factorize_cells)), \
            mock.patch.object(frame_dtypes, "compact_dictionary", marking(
                "dictionary", frame_dtypes.compact_dictionary)), \
            mock.patch.object(frame_dtypes, "shared_objects", identified), \
            mock.patch.object(frame_dtypes, "hash_cells", hashed), \
            mock.patch.object(frame_dtypes, "per_object", answering), \
            mock.patch.object(frame_dtypes, "sort_key", ordered), \
            mock.patch.object(row_engine, "assign_range_partitions",
                              partitioning), \
            mock.patch.object(dataframe_merge, "range_cuts", cutting(
                "Merge", dataframe_merge.range_cuts)), \
            mock.patch.object(dataframe_groupby, "range_cuts", cutting(
                "GroupByAgg", dataframe_groupby.range_cuts)), \
            mock.patch.object(dataframe_sort, "range_cuts", cutting(
                "SortValues", dataframe_sort.range_cuts)), \
            mock.patch.object(Series, "_compare", watched(
                "compare", Series._compare,
                lambda series, other, *_: None
                if isinstance(other, (Series, np.ndarray))
                else series.values)), \
            mock.patch.object(Series, "isin", watched(
                "isin", Series.isin, lambda series, *_: series.values)), \
            mock.patch.object(StringMethods, "_map", watched(
                ".str", StringMethods._map,
                lambda methods, *_: methods._series.values)):
        yield paths, lost, per_cell, factorized_offsets, maps, walked, ranges


def key_paths_report(paths: dict[str, dict]) -> list[str]:
    """Per operator class (most rows first), the calls, rows and cells
    hashed of each path it took, then the totals per path."""
    lines = [f"{'calls':>7} {'rows':>10} {'hashed':>10}  {'path':<11} "
             "operator class"]
    totals = {path: [0, 0, 0] for path in KEY_PATHS}
    for name, taken in sorted(paths.items(), key=lambda item: -sum(
            row[1] for row in item[1].values())):
        for path, row in taken.items():
            if row[0]:
                totals[path] = [a + b for a, b in zip(totals[path], row)]
                lines.append(f"{row[0]:7d} {row[1]:10d} {row[2]:10d}  "
                             f"{path:<11} {name}")
    lines.extend(f"{calls:7d} {rows:10d} {n_hashed:10d}  {path:<11} total"
                 for path, (calls, rows, n_hashed) in totals.items())
    return lines


def ranges_report(ranges: dict[tuple, list]) -> list[str]:
    """Per operator class, the range cuts and range partitions by the
    order they compared keys in."""
    lines = [f"{'calls':>7} {'values':>10}  {'kind':<15} {'order':<11} "
             "operator class"]
    lines.extend(f"{calls:7d} {values:10d}  {kind:<15} {path:<11} {name}"
                 for (name, kind, path), (calls, values) in sorted(
                     ranges.items(), key=lambda item: -item[1][1]))
    return lines


def object_maps_report(maps: dict[tuple, list]) -> list[str]:
    """Per operator class, the object-column comparisons, ``isin`` calls
    and ``.str`` maps by whether they were answered per object or walked
    cell by cell."""
    lines = [f"{'calls':>7} {'rows':>10}  {'map':<8} {'path':<11} "
             "operator class"]
    lines.extend(f"{calls:7d} {rows:10d}  {label:<8} {path:<11} {name}"
                 for (name, label, path), (calls, rows) in sorted(
                     maps.items(), key=lambda item: -item[1][1]))
    return lines


@contextmanager
def count_source_columns():
    """Wrap the pruning pass and ``Session.execute``; yields one row per
    execute and dataframe source in its plan: ``[execute, source op,
    first column, declared, required, carried, chunks, whole, shown]`` —
    column counts the source declares, that plan requires of it and its
    chunks carry once the execute is over, the chunks it is cut into,
    whether the plan requires everything without naming it, and whether a
    result of the execute shows every column of the source anyway."""
    rows: list[list] = []
    planned: list[tuple] = []
    prune_columns = core_session.prune_columns
    session_execute = Session.execute

    def recorded(graph, results):
        required = prune_columns(graph, results)
        shown = {c for t in results for c in t.columns or ()}
        planned.extend(
            (node, required[node.key], set(node.columns) <= shown)
            for node in graph.nodes()
            if isinstance(node.op, DataSourceOp) and node.columns is not None)
        return required

    def execute(self, *tileables):
        execute_no = 1 + (rows[-1][0] if rows else -1)
        try:
            return session_execute(self, *tileables)
        finally:
            for node, required, shown in planned:
                declared = set(node.columns)
                needs = declared if required is None else \
                    declared.intersection(required)
                rows.append([
                    execute_no, type(node.op).__name__, node.columns[0],
                    len(declared), len(needs),
                    len(columns_to_read(node.op, node.columns)),
                    len(node.chunks), required is None, shown])
            planned.clear()

    with mock.patch.object(core_session, "prune_columns", recorded), \
            mock.patch.object(Session, "execute", execute):
        yield rows


def columns_report(rows: list[list]) -> tuple[list[str], int]:
    """The per-execute table, and how many sources were read whole for a
    result that does not show them whole."""
    lines = [f"{'execute':>7} {'declared':>9} {'required':>9} {'carried':>8} "
             f"{'chunks':>7}  source"]
    offenders = 0
    totals: dict[int, list[int]] = defaultdict(lambda: [0, 0, 0])
    for (execute, op_name, first, declared, needs, carried, chunks, whole,
         shown) in rows:
        bad = whole and not shown
        offenders += bad
        for i, n in enumerate((needs, declared, carried)):
            totals[execute][i] += n
        lines.append(
            f"{execute:7d} {declared:9d} {needs:9d} {carried:8d} "
            f"{chunks:7d}  {op_name}[{first}, ...]"
            + ("  <-- read whole, not shown whole" if bad else ""))
    if totals:
        needs, declared, carried = max(totals.values(), key=lambda t: t[1])
        lines.append(f"widest plan: {needs} of {declared} source columns "
                     f"read ({carried} carried by the chunks it read them "
                     "from)")
    return lines, offenders


#: kernels that gather rows: every column they emit is moved once more
ROW_MOVERS = (FilterChunk, MergeChunk, ILocChunk, SortChunk)


def _columns_of(value) -> dict:
    """``{name: array}`` of a frame, series or array result, ``{name:
    None}`` of a selection (else empty)."""
    if isinstance(value, DataFrame):
        return dict(value._data)
    if isinstance(value, Selection):
        return dict.fromkeys(value._columns)
    if isinstance(value, Series):
        return {value.name: value.values}
    if isinstance(value, np.ndarray):
        return {None: value}
    return {}


@contextmanager
def count_moved_columns():
    """Wrap the row-moving kernels, every source chunk's ``execute`` and
    the pruning pass; yields ``({class name: [calls, emitted, carried,
    not carried]}, {class name: [calls, bytes, borrowed, encoded,
    copied]})``.

    A row mover's call emits its result's columns; its tileable (the one
    whose chunks its output is, known once the ``execute()`` is over)
    carries ``carried_columns``, or all of its columns when that is
    ``None``.  The final op of a fused step (``opfusion.plan_subtask``:
    two or more ops) is booked as a mover whatever its class: the step's
    result is what it emits.  A source's column is
    borrowed when it may share memory with an array the op says it
    borrows (``Operator.borrowed_arrays``), encoded when it is a
    dictionary-carrying window (the columnar engine's copy of a
    source's strings), else copied.  In-process only, like
    :func:`count_op_calls`."""
    movers: dict[str, list] = defaultdict(lambda: [0, 0, 0, 0])
    sources: dict[str, list] = defaultdict(lambda: [0, 0, 0, 0, 0])
    emitted: list[tuple] = []  # (op, names) of this execute's calls
    fused: dict[int, object] = {}  # the final op of each fused step
    graphs: list = []
    patched: list[tuple[type, str, object]] = []
    prune_columns = core_session.prune_columns
    plan_subtask = runner.plan_subtask
    session_execute = Session.__dict__["execute"]

    def wrap(owner: type, attr: str, on_result):
        original = owner.__dict__[attr]

        def counted(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            on_result(self, result)
            return result

        patched.append((owner, attr, original))
        setattr(owner, attr, counted)

    def moved(op, result):
        emitted.append((op, list(_columns_of(result))))

    def planned(subtask, enable):
        steps = plan_subtask(subtask, enable)
        fused.update((id(step[-1].op), step[-1].op)
                     for step in steps if len(step) > 1)
        return steps

    def ran(op, result):
        if fused.get(id(op)) is op:
            moved(op, result)
        elif not op.inputs:
            read(op, result)

    def read(op, result):
        row = sources[type(op).__name__]
        row[0] += 1
        client = op.borrowed_arrays()
        for column in _columns_of(result).values():
            kind = (2 if any(np.may_share_memory(column, arr)
                             for arr in client)
                    else 3 if frame_dtypes.dictionary_of(column) is not None
                    else 4)
            row[1] += column.nbytes
            row[kind] += column.nbytes

    def recorded(graph, results):
        graphs.append(graph)
        return prune_columns(graph, results)

    def execute(self, *tileables):
        try:
            return session_execute(self, *tileables)
        finally:
            owner = {id(chunk.op): node for graph in graphs
                     for node in graph.nodes() for chunk in node.chunks}
            seen = set()
            for op, names in emitted:
                node = owner.get(id(op))
                if node is None or (id(op), tuple(names)) in seen:
                    continue  # not a tileable's chunk, or seen twice
                seen.add((id(op), tuple(names)))
                carried = set(node.columns or names)
                if node.carried_columns is not None:
                    carried &= node.carried_columns
                row = movers[type(op).__name__]
                row[0] += 1
                row[1] += len(names)
                row[2] += len(carried)
                row[3] += sum(name not in carried for name in names)
            emitted.clear()
            fused.clear()
            graphs.clear()

    for cls in ROW_MOVERS:
        wrap(cls, "execute", moved)
    for cls in {Operator, *_subclasses(Operator)}:
        if "execute" in cls.__dict__ and cls not in ROW_MOVERS \
                and not issubclass(cls, DataSourceOp):
            wrap(cls, "execute", ran)
    patched.append((Session, "execute", session_execute))
    Session.execute = execute
    try:
        with mock.patch.object(core_session, "prune_columns", recorded), \
                mock.patch.object(runner, "plan_subtask", planned):
            yield movers, sources
    finally:
        for owner, attr, original in patched:
            setattr(owner, attr, original)


@contextmanager
def count_gathers():
    """Book every base column a selection gathers (``Selection.gather``,
    the one place a filter's rows move cells) on the kernel that made it
    — ``(materialize)`` inside ``Selection.materialize`` — and note each
    column gathered twice through one selection (one ``rows`` vector)
    within one subtask (one ``runner.run_subtask_kernels`` call); yields
    ``({class name: [gathers, rows]}, [(class name, column)])``.
    In-process only, like :func:`count_op_calls`."""
    table: dict[str, list] = defaultdict(lambda: [0, 0])
    twice: list[tuple] = []
    running: list[str] = ["(outside kernels)"]
    seen: set[tuple] = set()  # (id(rows), column) gathered this subtask
    alive: list = []  # those rows, so no id is reused within the subtask
    gather = Selection.gather
    materialize = Selection.materialize
    run_subtask_kernels = runner.run_subtask_kernels

    def counted_gather(self, name, positions):
        row = table[running[-1]]
        row[0] += 1
        row[1] += len(positions)
        key = (id(self.rows), name)
        if key in seen:
            twice.append((running[-1], name))
        seen.add(key)
        alive.append(self.rows)
        return gather(self, name, positions)

    def counted_materialize(self):
        running.append("(materialize)")
        try:
            return materialize(self)
        finally:
            running.pop()

    def subtask(*args, **kwargs):
        seen.clear()
        alive.clear()
        return run_subtask_kernels(*args, **kwargs)

    with count_op_calls(running), \
            mock.patch.object(Selection, "gather", counted_gather), \
            mock.patch.object(Selection, "materialize", counted_materialize), \
            mock.patch.object(runner, "run_subtask_kernels", subtask):
        yield table, twice


def gathers_report(table: dict[str, list], twice: list[tuple]
                   ) -> tuple[list[str], list[str]]:
    """The per-class gather table, and a failure per column gathered
    twice through one selection in one subtask."""
    lines = [f"{'gathers':>7} {'rows':>10}  columns selections gathered, "
             "by kernel class"]
    for name, (calls, rows) in sorted(table.items(),
                                      key=lambda item: -item[1][1]):
        lines.append(f"{calls:7d} {rows:10d}  {name}")
    failures = [f"{name} gathered column {column!r} twice through one "
                "selection in one subtask"
                for name, column in sorted(set(twice), key=str)]
    return lines, failures


def moved_columns_report(movers: dict[str, list], sources: dict[str, list]
                         ) -> tuple[list[str], list[str]]:
    """The mover and source tables, and what fails the gate: a
    ``FilterChunk`` passing on a column its tileable does not carry, a
    ``FromFrameSlice`` copying bytes.  Every booked class is printed:
    the row movers first, then the final ops of fused steps."""
    lines = [f"{'calls':>7} {'emitted':>9} {'carried':>9} {'not carried':>12}"
             "  row-moving or fused-step kernel class (columns summed over "
             "calls)"]
    failures = []
    row_movers = [cls.__name__ for cls in ROW_MOVERS]
    for name in [*(name for name in row_movers if name in movers),
                 *sorted(set(movers) - set(row_movers))]:
        calls, out, carried, extra = movers[name]
        bad = name == FilterChunk.__name__ and extra > 0
        lines.append(f"{calls:7d} {out:9d} {carried:9d} {extra:12d}  {name}"
                     + ("  <-- gathers columns nothing reads" if bad else ""))
        if bad:
            failures.append(f"{name} emitted {extra} columns its tileables "
                            "do not carry")
    lines.append(f"{'calls':>7} {'bytes':>11} {'borrowed':>11} "
                 f"{'encoded':>11} {'copied':>11}  source class")
    for name, (calls, total, borrowed, encoded, copied) in sorted(
            sources.items()):
        bad = name == FromFrameSlice.__name__ and copied > 0
        lines.append(f"{calls:7d} {total:11d} {borrowed:11d} {encoded:11d} "
                     f"{copied:11d}  {name}"
                     + ("  <-- copies the client's cells" if bad else ""))
        if bad:
            failures.append(f"{name} copied {copied} bytes of client "
                            "columns it could borrow")
    return lines, failures


@contextmanager
def count_messages():
    """Snapshot each iteration's message log where the loop reads
    ``actors.messages`` (``session_counters``, before its own storage
    reads); yields the list of snapshots, one per iteration."""
    snapshots: list[dict] = []
    session_counters = workloads.session_counters

    def counted(session):
        snapshots.append(session.cluster.actor_system.log.snapshot())
        return session_counters(session)

    with mock.patch.object(workloads, "session_counters", counted):
        yield snapshots


def recipient_kind(uid: str) -> str:
    """``runner/worker-0/band-1`` -> ``runner/*``, ``session-7/actor`` ->
    ``session-*/actor``; service uids stay as they are."""
    return re.sub(r"^session-\d+/", "session-*/",
                  re.sub(r"^runner/.*", "runner/*", uid))


def messages_report(snapshot: dict, n_subtasks: int) -> list[str]:
    """Deliveries per recipient kind, each with its methods, busiest
    first, and the total per subtask."""
    by_kind: Counter[str] = Counter()
    by_method: Counter[tuple[str, str]] = Counter()
    for (_, recipient, method), n in snapshot["methods"].items():
        kind = recipient_kind(recipient)
        by_kind[kind] += n
        by_method[(kind, method)] += n
    lines = [f"{'messages':>9}  recipient kind / method"]
    for kind, n in sorted(by_kind.items(), key=lambda item: (-item[1], item[0])):
        lines.append(f"{n:9d}  {kind}")
        methods = sorted(((m, count) for (k, m), count in by_method.items()
                          if k == kind), key=lambda item: (-item[1], item[0]))
        lines.extend(f"{count:9d}    .{method}" for method, count in methods)
    total = snapshot["total_delivered"]
    lines.append(f"{total:9d}  total: {total / max(n_subtasks, 1):.1f} "
                 f"per subtask")
    return lines


def _label(func: tuple) -> str:
    path, line, name = func
    if path.startswith(SRC):
        path = path[len(SRC):]
    return f"{path}:{line}({name})"


def report(stats: pstats.Stats, top: int, n_callers: int = 3) -> list[str]:
    """Top ``top`` functions under ``src/`` by self time, callers indented."""
    rows = [(func, row) for func, row in stats.stats.items()
            if func[0].startswith(SRC)]
    rows.sort(key=lambda item: item[1][2], reverse=True)
    lines = [f"{'self s':>8} {'cum s':>8} {'calls':>8}  function"]
    for func, (_, n_calls, self_s, cum_s, callers) in rows[:top]:
        lines.append(f"{self_s:8.3f} {cum_s:8.3f} {n_calls:8d}  {_label(func)}")
        ranked = sorted(callers.items(), key=lambda item: item[1][2],
                        reverse=True)
        for caller, (_, n_from, self_from, _) in ranked[:n_callers]:
            lines.append(f"{'':26}  <- {self_from:.3f} s / {n_from} calls"
                         f" from {_label(caller)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--top", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every row count (CI uses 0.05)")
    parser.add_argument("--ops", action="store_true",
                        help="count kernel calls per operator class instead "
                             "of profiling; exit 1 if any instance re-ran")
    parser.add_argument("--encodes", action="store_true",
                        help="count cells hashed per operator class; "
                             "exit 1 if a non-source operator re-encodes or "
                             "a source hashes its strings twice")
    parser.add_argument("--columns", action="store_true",
                        help="columns declared / required / carried and "
                             "chunks per source and execute(), columns moved "
                             "per row-moving kernel, columns gathered per "
                             "kernel and bytes copied per source; exit 1 if a "
                             "source is read whole for a narrower result, a "
                             "filter passes on a column its tileable does not "
                             "carry, a column is gathered twice through one "
                             "selection in one subtask or a source slice "
                             "copies the client's cells")
    parser.add_argument("--messages", action="store_true",
                        help="actor-plane deliveries by recipient kind and "
                             "method, and messages per subtask")
    parser.add_argument("--keys", action="store_true",
                        help="factorize calls, rows and cells hashed per "
                             "operator class and path, and merges joined by "
                             "offset; exit 1 if a kernel returns a typed "
                             "column as NumPy scalars in an object column, "
                             "hashes a column of a few shared objects cell "
                             "by cell, factorizes a single integer join "
                             "key pair within the offset bound, or walks a "
                             "column of a few shared objects cell by cell "
                             "in a comparison, isin or .str map, or a gated "
                             "workload's range cut or partition takes "
                             "order_key")
    parser.add_argument("--engine", choices=("row", "columnar"),
                        help="run the plan on this chunk engine; prints the "
                             "7-iteration median wall_s of both first")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.generate(args.seed, args.scale)

    def iterate(engine=args.engine):
        return run_iteration(workload, inputs, mutate_config=(
            (lambda cfg: setattr(cfg, "chunk_engine", engine))
            if engine else None))

    iterate()
    if args.engine:
        iterate("row" if args.engine == "columnar" else "columnar")
        walls = {"row": [], "columnar": []}
        for _ in range(7):
            for engine, seen in walls.items():
                seen.append(iterate(engine).wall_s)
        median = {engine: statistics.median(seen)
                  for engine, seen in walls.items()}
        print(f"{args.workload} seed={args.seed} scale={args.scale}, median "
              f"wall_s of 7: row {median['row']:.4f}  columnar "
              f"{median['columnar']:.4f}  columnar / row "
              f"{median['columnar'] / median['row']:.2f}")
    if args.encodes:
        with count_encodes() as (table, string_rows):
            iteration = iterate()
        lines, offenders = encodes_report(table, string_rows)
        print(f"{args.workload} seed={args.seed} scale={args.scale}: "
              f"{iteration.counters['graph.n_subtasks']} subtasks")
        print("\n".join(lines))
        if offenders:
            print(f"FAIL: {', '.join(offenders)} hashed O(rows) cells: a "
                  "dictionary was dropped on the way or made twice")
        return 1 if offenders else 0
    if args.keys:
        with count_key_paths() as (paths, lost, per_cell, factorized, maps,
                                   walked, ranges):
            iteration = iterate()
        print(f"{args.workload} seed={args.seed} scale={args.scale}: "
              f"{iteration.counters['graph.n_subtasks']} subtasks")
        print("\n".join(key_paths_report(paths)))
        print("\n".join(object_maps_report(maps)))
        print("\n".join(ranges_report(ranges)))
        with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
            gated = {w["name"] for w in json.load(spec)["workloads"]}
        mixed = sorted({(name, kind) for name, kind, path in ranges
                        if path == "order_key"})
        if args.workload in gated:
            for name, kind in mixed:
                print(f"FAIL: {name} took order_key in a {kind} of a gated "
                      "workload: its keys are of mixed types, or the "
                      "single-type path was missed")
        else:
            mixed = []
        for name, column, kind in sorted(set(lost)):
            print(f"FAIL: {name} returned column {column!r} as object "
                  f"cells of {kind}: a typed column lost its dtype")
        for name, rows, objects in sorted(set(per_cell)):
            print(f"FAIL: {name} hashed {rows} key cells one by one that "
                  f"are {objects} objects: the identity path was missed")
        for name, rows in sorted(set(factorized)):
            print(f"FAIL: {name} factorized a single integer join key "
                  f"pair of {rows} rows within the offset bound")
        for name, label, rows, objects in sorted(set(walked)):
            print(f"FAIL: {name} walked {rows} cells one by one in a "
                  f"{label} map that are {objects} objects: the "
                  "per-object path was missed")
        return 1 if lost or per_cell or factorized or walked or mixed else 0
    if args.columns:
        with count_source_columns() as rows, \
                count_moved_columns() as (movers, sources), \
                count_gathers() as (gathered, twice):
            iteration = iterate()
        lines, offenders = columns_report(rows)
        moved_lines, failures = moved_columns_report(movers, sources)
        gather_lines, doubled = gathers_report(gathered, twice)
        moved_lines += gather_lines
        failures += doubled
        print(f"{args.workload} seed={args.seed} scale={args.scale}: "
              f"{iteration.counters['graph.n_subtasks']} subtasks")
        print("\n".join(lines + moved_lines))
        if offenders:
            print(f"FAIL: {offenders} source reads take every column for a "
                  "result that shows fewer: an operator on the way does not "
                  "pass requirements through")
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1 if offenders or failures else 0
    if args.messages:
        with count_messages() as snapshots:
            iteration = iterate()
        n_subtasks = iteration.counters["graph.n_subtasks"]
        print(f"{args.workload} seed={args.seed} scale={args.scale}: "
              f"{n_subtasks} subtasks")
        print("\n".join(messages_report(snapshots[-1], n_subtasks)))
        return 0
    if args.ops:
        with count_op_calls() as calls:
            iteration = iterate()
        lines, repeats = ops_report(calls)
        print(f"{args.workload} seed={args.seed} scale={args.scale}: "
              f"wall_s={iteration.wall_s:.3f} with every kernel wrapped, "
              f"{iteration.counters['graph.n_subtasks']} subtasks")
        print("\n".join(lines))
        if repeats:
            print(f"FAIL: {repeats} kernel calls repeat an operator instance "
                  "that already ran in the same execute()")
        return 1 if repeats else 0
    profiler = cProfile.Profile()
    profiler.enable()
    iteration = iterate()
    profiler.disable()
    stats = pstats.Stats(profiler)
    print(f"{args.workload} seed={args.seed} scale={args.scale}: "
          f"wall_s={iteration.wall_s:.3f} under cProfile "
          f"({stats.total_tt:.3f} s profiled in all)")
    print("\n".join(report(stats, args.top)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
