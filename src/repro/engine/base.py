"""The chunk-engine seam: how a kernel's result is stored.

Every engine stores the same thing kernels compute on — the
``repro.frame`` containers (``DataFrame`` / ``Series``), NumPy arrays and
scalars — so there is one value space: what a kernel returns is what the
executor environment, the storage service, the shuffle plane and the
process-pool wire hold, and what the next kernel, a tiling sample and
the session's fetch read back.  An engine differs only in what
:meth:`~repro.engine.row.RowEngine.persist` attaches to a result
before it is stored: the default :class:`~repro.engine.row.RowEngine`
attaches nothing; its subclass
:class:`~repro.engine.columnar.ColumnarEngine` gives each all-``str``
column its dictionary (a :class:`repro.frame.dtypes.DictArray`), which
the ``repro.frame`` kernels read instead of hashing cells.  A source
asks :meth:`~repro.engine.row.RowEngine.persisted_column` once per
handle, so its slices arrive already in that form.

Because an attached dictionary changes no cell, ``chunk_engine`` changes
wall-clock only, as ``execution_mode`` does: ``utils.sizeof`` and meta
(:func:`describe_value`) charge every object column by its cells on
either engine, partition draws hash the cells
(:mod:`repro.engine.partition`), and a ``DictArray`` crosses the process
boundary as its plain cells.

Boundary rule (enforced by ``tools/check_service_boundaries.py``):
outside ``repro/frame/`` and ``repro/engine/`` no module may import
``repro.frame`` — the frame API is re-exported by
:mod:`repro.engine.local` and storage behaviour goes through an engine
handle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from ..frame import DataFrame, Series
from ..utils import sizeof

if TYPE_CHECKING:
    from .row import RowEngine


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_ENGINES: dict[str, RowEngine] = {}


def register_engine(engine: RowEngine) -> RowEngine:
    """Register an engine singleton under ``engine.name``."""
    _ENGINES[engine.name] = engine
    return engine


def get_engine(name: str = "row") -> RowEngine:
    """The engine registered as ``name`` (``Config.chunk_engine``)."""
    try:
        return _ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown chunk engine {name!r}; registered: "
            f"{sorted(_ENGINES)}"
        ) from None


def engine_of(config) -> RowEngine:
    """The engine a :class:`~repro.config.Config` selects."""
    return get_engine(config.chunk_engine)


def is_multi_output(op, result: Any) -> bool:
    """Whether ``result`` follows the multi-output convention: a
    non-empty ``{chunk_key: value}`` dict keyed by ``op``'s own output
    keys (anything else is the value of ``op.outputs[0]``)."""
    return (isinstance(result, dict) and bool(result)
            and {out.key for out in op.outputs}.issuperset(result))


def persist_result(engine: RowEngine, op, result: Any) -> Any:
    """Persist an operator kernel's result before it enters the env."""
    if is_multi_output(op, result):
        return {key: engine.persist(value) for key, value in result.items()}
    return engine.persist(result)


def unshared(value: Any, arrays: list) -> Any:
    """``value`` with every column (a frame's, a series' or a bare
    array) that may share memory with one of ``arrays`` copied; the
    rest, and anything else, as it is. A column that owns its buffer
    (``base is None``) is a fresh allocation and overlaps nothing
    alive; ``DictArray.copy`` keeps the dictionary."""
    def own(column):
        if column.base is None or not any(
                np.may_share_memory(column, arr) for arr in arrays):
            return column
        return column.copy()

    if isinstance(value, DataFrame):
        data = {name: own(value._data[name]) for name in value._columns}
        if all(data[name] is value._data[name] for name in data):
            return value
        return DataFrame._new(data, value.index, list(value._columns))
    if isinstance(value, Series):
        column = own(value.values)
        if column is value.values:
            return value
        return Series(column, index=value.index, name=value.name)
    if isinstance(value, np.ndarray):
        return own(value)
    return value


def describe_value(value: Any, extra: dict | None = None) -> dict:
    """Schema facts of an executed chunk value: the field dict of a
    :class:`repro.core.meta.ChunkMeta` (shape/nbytes/kind/dtype/columns/
    extra)."""
    extra = dict(extra or {})
    if isinstance(value, DataFrame):
        return dict(shape=value.shape, nbytes=sizeof(value),
                    kind="dataframe", columns=value.columns.to_list(),
                    extra=extra)
    if isinstance(value, Series):
        return dict(shape=value.shape, nbytes=sizeof(value), kind="series",
                    dtype=value.dtype, extra=extra)
    if isinstance(value, np.ndarray):
        return dict(shape=value.shape, nbytes=sizeof(value), kind="tensor",
                    dtype=value.dtype, extra=extra)
    if isinstance(value, (list, tuple, dict)):
        return dict(shape=(), nbytes=sizeof(value), kind="scalar",
                    extra=extra)
    return dict(shape=(), nbytes=sizeof(value), kind="scalar",
                dtype=getattr(value, "dtype", None), extra=extra)
