"""The chunk-engine seam: pluggable physical chunk representations.

The tiling layer is deliberately backend-agnostic — operators tile into
chunks whose *physical* representation is an implementation detail — yet
for nine PRs every layer of this repository imported ``repro.frame``
directly, hard-wiring one row-oriented layout into kernels, executor,
shuffle plane and workloads alike.  This module is the seam that undoes
that: a :class:`ChunkEngine` ABC (in the spirit of Ludwig's
``DataFrameEngine``) plus a registry keyed by ``Config.chunk_engine``.

Value spaces
------------

Every engine distinguishes two value spaces:

- **logical** values — what operator kernels compute with: the
  ``repro.frame`` containers (``DataFrame``/``Series``), NumPy arrays
  and scalars.  ``ExecContext.get`` always hands kernels logical values.
- **physical** values — what sits in the executor environment, the
  storage service, and on the shuffle/IPC wire.  ``persist`` maps
  logical → physical; ``compute`` maps physical → logical.  For the
  default :class:`~repro.engine.row.RowEngine` both maps are the
  identity, so the row backend is bit-identical to the pre-seam engine.

A logical value may carry its physical encoding along: the columnar
``compute`` hands kernels string columns as
:class:`repro.frame.dtypes.DictArray` — real cells that still know
their ``(categories, codes)`` — so kernels that move rows move codes,
kernels that group, join or sort read codes, and ``persist`` of a column
that still knows its dictionary is an integer compaction, not a hash of
every cell.  Any kernel that ignores the encoding sees an ordinary
object array and its result simply arrives at ``persist`` without one.
Sources meet the engine before their first ``persist``: a client
frame's column is put in its :meth:`ChunkEngine.persisted_column` form
once per handle, so its slices arrive encoded too; only UDF outputs
(and file sources) arrive without a dictionary and are hashed.

Accounting follows the split: ``sizeof`` (storage tiers, shuffle/wire
byte counters) charges the *physical* value — a columnar chunk pays its
dictionary-encoded size, which is what actually travels — while meta
(:func:`describe_value`, feeding size-driven tiling decisions) reports
the *logical* row-space size, so plan topology never depends on the
backend.

Boundary rule (enforced by ``tools/check_service_boundaries.py``):
outside ``repro/frame/`` and ``repro/engine/`` no module may import
``repro.frame`` — the frame API is re-exported by
:mod:`repro.engine.local` and physical behaviour goes through an engine
handle.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable

import numpy as np

from ..frame import DataFrame, Series
from ..utils import sizeof


class ChunkEngine(ABC):
    """One physical chunk representation, behind a uniform surface."""

    #: registry key (``Config.chunk_engine``).
    name: str = "abstract"
    #: compiled expression fusion evaluates templates against raw
    #: environment values, which only makes sense when physical ==
    #: logical; non-row engines decline and the fused step is
    #: interpreted operator-by-operator instead.
    supports_compiled_fusion: bool = False

    # -- representation -------------------------------------------------
    @abstractmethod
    def persist(self, value: Any) -> Any:
        """Logical → physical: the storage/shuffle form of a value.

        Must be idempotent (``persist(persist(v)) == persist(v)``) and
        exact: ``compute(persist(v))`` is value-identical to ``v``.
        """

    @abstractmethod
    def compute(self, value: Any) -> Any:
        """Physical → logical: materialize a value for kernel use."""

    def persisted_column(self, column: np.ndarray) -> np.ndarray:
        """``column`` in the form whose row windows ``persist`` takes
        without hashing a cell: the same cells (possibly the very array)
        with whatever ``persist`` would otherwise work out from them.  A
        source asks once per handle and hands its slices windows of the
        answer.  Default: the column itself, at no cost."""
        return column

    def to_wire(self, value: Any) -> Any:
        """Physical → picklable wire form (procpool IPC)."""
        return value

    def from_wire(self, value: Any) -> Any:
        """Wire → physical (inverse of :meth:`to_wire`)."""
        return value

    # -- shuffle partition kernels -------------------------------------
    @abstractmethod
    def hash_partition(self, value: Any, key: Any,
                       n_parts: int) -> np.ndarray:
        """Per-row partition ids of ``value``'s ``key`` column by the
        deterministic content hash.  Backend-invariant: every engine
        must produce the draws of ``repro.frame.hashing`` over the
        *decoded* key values."""

    @abstractmethod
    def range_partition(self, value: Any, key: Any,
                        boundaries: list) -> np.ndarray:
        """Per-row partition ids by search over sampled boundaries."""

    @abstractmethod
    def split(self, value: Any, assignment: np.ndarray,
              n_parts: int) -> list:
        """Split a physical chunk into ``n_parts`` physical chunks."""


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_ENGINES: dict[str, ChunkEngine] = {}


def register_engine(engine: ChunkEngine) -> ChunkEngine:
    """Register an engine singleton under ``engine.name``."""
    _ENGINES[engine.name] = engine
    return engine


def get_engine(name: str = "row") -> ChunkEngine:
    """The engine registered as ``name`` (``Config.chunk_engine``)."""
    try:
        return _ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown chunk engine {name!r}; registered: "
            f"{sorted(_ENGINES)}"
        ) from None


def engine_of(config) -> ChunkEngine:
    """The engine a :class:`~repro.config.Config` selects."""
    return get_engine(config.chunk_engine)


def compiled_fusion_enabled(config) -> bool:
    """Whether the kernel loop may compile fused steps to evaluators.

    Eligible fused elementwise/filter chains become one generated
    evaluator (one call per step, intermediates in locals — the
    numexpr-style single pass of Section V-A); a non-row engine declines
    and the fused step is interpreted one operator at a time.
    """
    return engine_of(config).supports_compiled_fusion


def is_multi_output(op, result: Any) -> bool:
    """Whether ``result`` follows the multi-output convention: a
    non-empty ``{chunk_key: value}`` dict keyed by ``op``'s own output
    keys (anything else is the value of ``op.outputs[0]``)."""
    return (isinstance(result, dict) and bool(result)
            and {out.key for out in op.outputs}.issuperset(result))


def persist_result(engine: ChunkEngine, op, result: Any) -> Any:
    """Persist an operator kernel's result before it enters the env."""
    if is_multi_output(op, result):
        return {key: engine.persist(value) for key, value in result.items()}
    return engine.persist(result)


# ---------------------------------------------------------------------------
# schema introspection (meta service)
# ---------------------------------------------------------------------------

#: physical-type describers contributed by engine backends:
#: ``type -> fn(value, extra) -> dict`` of ChunkMeta fields.
_DESCRIBERS: dict[type, Callable[[Any, dict], dict]] = {}


def register_describer(cls: type,
                       fn: Callable[[Any, dict], dict]) -> None:
    _DESCRIBERS[cls] = fn


def describe_value(value: Any, extra: dict | None = None) -> dict:
    """Engine-dispatched schema facts of an executed chunk value.

    Returns the field dict of a :class:`repro.core.meta.ChunkMeta`
    (shape/nbytes/kind/dtype/columns/extra).  Backends register
    describers for their physical types so columnar chunks report their
    schema without decoding.
    """
    extra = dict(extra or {})
    describer = _DESCRIBERS.get(type(value))
    if describer is not None:
        return describer(value, extra)
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
