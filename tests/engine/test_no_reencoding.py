"""A dictionary made at the source rides to the fetch — counted, not timed.

One ``strkey_columnar``-shaped run (string-keyed groupby over a shuffle,
then a merge with a dimension and a groupby of its label) on the columnar
engine at small scale, with ``factorize_cells`` — the one place string
cells are hashed — wrapped to count the cells it is handed, both where
kernels call it and where the columnar engine encodes a column (the call
a source's encode makes).  A source's string cells are hashed once per
handle, by the first slice that reads them, however many slices and
``execute`` calls read them after; every operator after that consumes and
produces codes, so anything beyond O(uniques) per kernel means some
operator's output was re-encoded from its strings.  The count repeats
exactly from run to run.
"""

import numpy as np
import pytest

from repro import frame as pf
from repro.config import Config
from repro.core import Session
from repro.dataframe import from_frame
from repro.engine import columnar
from repro.frame import groupby as frame_groupby

N_ROWS, N_KEYS = 6_000, 60


@pytest.fixture
def hashed_cells(monkeypatch):
    calls: list[int] = []
    factorize_cells = frame_groupby.factorize_cells

    def counted(cells):
        calls.append(len(cells))
        return factorize_cells(cells)

    monkeypatch.setattr(frame_groupby, "factorize_cells", counted)
    monkeypatch.setattr(columnar, "factorize_cells", counted)
    return calls


def strkey_frames():
    rng = np.random.default_rng(3)
    names = pf.dtypes.object_array(f"cust-{i:04d}" for i in range(N_KEYS))
    fact = pf.DataFrame({"k": names[rng.integers(0, N_KEYS, N_ROWS)],
                         "v": rng.normal(size=N_ROWS)})
    dim = pf.DataFrame({"k": names, "label": rng.integers(0, 7, N_KEYS)})
    return fact, dim


@pytest.mark.parametrize("combine", [False, True],
                         ids=["combine-off", "mapper-side-combine"])
def test_only_sources_hash_their_strings(hashed_cells, combine):
    fact, dim = strkey_frames()
    cfg = Config()
    cfg.chunk_engine = "columnar"
    cfg.cluster.n_workers = 4
    cfg.mapper_side_combine = combine
    cfg.tree_reduce_threshold = 1  # the groupby shuffles
    cfg.chunk_store_limit = fact.nbytes // 16
    with Session(cfg) as session:
        dfact, ddim = from_frame(fact, session), from_frame(dim, session)
        by_key = dfact.groupby("k").agg({"v": "sum"}).fetch()
        by_label = dfact.merge(ddim, on="k").groupby("label").agg(
            {"v": "sum"}).fetch()
        n_kernels = session.executor.report.n_subtasks
    assert len(by_key) == N_KEYS and len(by_label) == 7
    # two executes slice ``fact`` and one slices ``dim``; each handle's
    # string column is hashed once
    source_cells = N_ROWS + N_KEYS
    assert sum(hashed_cells) >= source_cells
    assert sum(hashed_cells) <= source_cells + n_kernels * N_KEYS
    # and the only call handed more cells than there are keys read ``fact``
    assert sum(n for n in hashed_cells if n > N_KEYS) == N_ROWS


def test_the_counter_sees_a_dropped_dictionary(hashed_cells, monkeypatch):
    """The guard guards: with gathers that forget the dictionary (what
    every kernel did before codes rode along) the same run re-hashes."""
    monkeypatch.setattr(pf.dtypes, "take",
                        lambda arr, rows: np.asarray(arr)[rows])
    fact, _ = strkey_frames()
    cfg = Config()
    cfg.chunk_engine = "columnar"
    cfg.chunk_store_limit = fact.nbytes // 16
    with Session(cfg) as session:
        dfact = from_frame(fact, session)
        dfact[dfact["v"] > 0.0].groupby("k").agg({"v": "sum"}).fetch()
    assert sum(hashed_cells) > 1.3 * N_ROWS
