"""A source's string column is encoded once per handle — and never stale.

``FromFrame`` asks the chunk engine what its ``persist`` makes of each
column it reads, once per handle, and its slices hand out windows of the
answer (``dataframe.datasource.SourceDictionary``).  The client frame is
the user's and may be written between two executes on the same handle:
every slice first checks that its window of the client column still holds
the cells that were encoded, so each mutation below must show up exactly
as a fresh row-engine session reads it.  The dictionary is per handle and
per process: concurrent first reads hash once, a pickled slice leaves it
behind, and the row engine, whose ``persist`` keeps every column, encodes
nothing.
"""

import operator
import pickle
import sys
import threading

import numpy as np
import pytest

from repro import frame as pf
from repro.config import Config
from repro.core import Session
from repro.core.operator import ExecContext, TileContext
from repro.dataframe import from_frame
from repro.dataframe.datasource import FromFrameSlice
from repro.engine import COLUMNAR_ENGINE, columnar

N_ROWS, N_KEYS = 6_000, 60


def client_frame():
    rng = np.random.default_rng(5)
    names = pf.dtypes.object_array(f"cust-{i:04d}" for i in range(N_KEYS))
    return pf.DataFrame({"k": names[rng.integers(0, N_KEYS, N_ROWS)],
                         "v": rng.normal(size=N_ROWS)})


def config(engine, n_workers=1, nbytes=None):
    cfg = Config()
    cfg.chunk_engine = engine
    cfg.cluster.n_workers = n_workers
    # about sixteen slices of the client frame
    cfg.chunk_store_limit = (nbytes or client_frame().nbytes) // 16
    return cfg


def cells(frame):
    """Every cell with its exact type, so an ``np.str_`` is not a ``str``."""
    return {name: [(type(cell), cell) for cell in frame[name].values.tolist()]
            for name in frame.columns.to_list()}


def read(handle):
    """What two executes make of the source: every row, and a groupby.
    Neither fetches the handle itself, which would keep its chunks as a
    result: each execute slices the client frame again."""
    rows = handle[handle["v"] > -1e9].fetch()
    return (cells(rows),
            repr(handle.groupby("k").agg({"v": "sum"}).fetch()))


def fresh_row_read(frame):
    with Session(config("row", nbytes=frame.nbytes)) as session:
        return read(from_frame(frame, session))


def set_cell(row, value):
    def mutate(frame):
        frame["k"].values[row] = value
    return mutate


def equal_str_cell(frame):
    frame["k"].values[7] = np.str_(frame["k"].values[7])


def replace_column(frame):
    frame["k"] = frame["k"].values[::-1].copy()


@pytest.mark.parametrize("mutate", [
    set_cell(0, "cust-first"),
    set_cell(N_ROWS // 2, "cust-middle"),
    set_cell(N_ROWS - 1, "cust-last"),
    set_cell(N_ROWS // 3, None),
    equal_str_cell,
    replace_column,
], ids=["first-slice", "middle-slice", "last-slice", "none-cell",
        "equal-np-str", "whole-column"])
def test_mutation_between_executes_is_read(mutate):
    frame = client_frame()
    with Session(config("columnar")) as session:
        handle = from_frame(frame, session)
        assert read(handle) == fresh_row_read(frame)
        mutate(frame)
        assert read(handle) == fresh_row_read(frame)


def test_slices_carry_the_handles_codes():
    frame = client_frame()
    with Session(config("columnar")) as session:
        handle = from_frame(frame, session)
        read(handle)
        dictionary = handle.data.op._dictionary
    _, entries = dictionary._state
    assert entries["v"] is None  # numeric: the engine keeps it as it is
    pinned = entries["k"]  # the client's own cells, codes riding along
    assert all(map(operator.is_, pinned.tolist(), frame["k"].values.tolist()))
    assert len(pf.dtypes.dictionary_of(pinned)[0]) == N_KEYS


def sliced(frame, n_workers=1):
    """The tiled source of a fresh handle over ``frame``: its op and slices."""
    source = from_frame(frame).data.op
    cfg = config("columnar", n_workers=n_workers, nbytes=frame.nbytes)
    ((chunks, _),) = source.tile(TileContext(cfg, None))
    return source, [chunk.op for chunk in chunks], cfg


def count_hashes(monkeypatch) -> list[int]:
    """Cells handed to the columnar engine's encode, call by call."""
    hashed: list[int] = []
    factorize_cells = columnar.factorize_cells

    def counted(cells):
        hashed.append(len(cells))
        return factorize_cells(cells)

    monkeypatch.setattr(columnar, "factorize_cells", counted)
    return hashed


def test_concurrent_first_reads_hash_once(monkeypatch):
    """Four band threads (more than cores) slice a fresh handle at once,
    switching often: the first read still hashes the column once,
    persisting a slice hashes nothing, and a slice's dictionary, cut to
    the entries it uses, is what a fresh encode of its rows builds."""
    hashed = count_hashes(monkeypatch)
    frame = client_frame()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            hashed.clear()
            _, slices, cfg = sliced(frame, n_workers=4)
            assert len(slices) >= 8
            start = threading.Barrier(4, timeout=30)
            pieces: dict[int, object] = {}

            def band(first):
                start.wait()
                for index in range(first, len(slices), 4):
                    pieces[index] = slices[index].execute(
                        ExecContext({}, cfg))

            bands = [threading.Thread(target=band, args=(b,))
                     for b in range(4)]
            for thread in bands:
                thread.start()
            for thread in bands:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert hashed == [N_ROWS]  # one column of strings, hashed once
            assert len(pieces) == len(slices)
    finally:
        sys.setswitchinterval(switch)
    for piece in pieces.values():
        assert COLUMNAR_ENGINE.persist(piece) is piece
    assert hashed == [N_ROWS]
    for index, op in enumerate(slices):
        plain = frame.iloc[op.start:op.stop]
        assert cells(pieces[index]) == cells(plain)
        used = pf.dtypes.compact_dictionary(
            *pf.dtypes.dictionary_of(pieces[index]["k"].values))
        fresh = pf.dtypes.dictionary_of(
            columnar.encode_column(plain["k"].values))
        for got, want in zip(used, fresh):
            assert np.array_equal(got, want)


def test_the_dictionary_stays_off_the_wire():
    frame = client_frame()
    _, slices, cfg = sliced(frame)
    op = slices[0]
    op.execute(ExecContext({}, cfg))  # the handle now holds the encoding
    assert op._dictionary._state[1]["k"] is not None
    # the slice as it was before it had a dictionary to carry
    parent_shaped = object.__new__(FromFrameSlice)
    parent_shaped.__dict__.update(
        (name, value) for name, value in vars(op).items()
        if name != "_dictionary")
    wire = pickle.dumps(op)
    assert len(wire) <= len(pickle.dumps(parent_shaped))
    twin = pickle.loads(wire)
    assert twin._dictionary is None and "_dictionary" not in vars(twin)
    piece = twin.execute(ExecContext({}, cfg))
    assert pf.dtypes.dictionary_of(piece["k"].values) is None
    assert cells(piece) == cells(frame.iloc[op.start:op.stop])


def test_row_engine_encodes_nothing(monkeypatch):
    hashed = count_hashes(monkeypatch)
    frame = client_frame()
    with Session(config("row")) as session:
        handle = from_frame(frame, session)
        first = read(handle)
        assert read(handle) == first
        dictionary = handle.data.op._dictionary
    _, entries = dictionary._state
    assert set(entries) == {"k", "v"}
    assert all(entry is None for entry in entries.values())
    assert hashed == []
