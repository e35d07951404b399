"""The meta service: execution-time metadata that powers dynamic tiling.

After a chunk executes, the executor derives its real shape, byte size,
dtype and columns and records them here (Step 2 of Fig. 5a). The tiling
process later reads these records to decide how to partition the rest of
the pipeline — reduce-algorithm selection, auto merge, and iterative
``iloc`` tiling all consume this state.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Optional

from ..engine.base import describe_value


@dataclass
class ChunkMeta:
    """Observed facts about one executed chunk."""

    shape: tuple
    nbytes: int
    kind: str
    dtype: Any = None
    columns: Optional[list] = None
    #: operator-specific extras, e.g. a groupby map's {"key_census": ..},
    #: which the tiler joins into its shuffle reduce's key dtype.
    extra: dict = field(default_factory=dict)


def meta_from_value(value: Any, extra: dict | None = None) -> ChunkMeta:
    """Derive a :class:`ChunkMeta` from an executed chunk's value.

    A chunk is charged by its cells on every engine (``utils.sizeof``),
    so size-driven tiling decisions do not depend on ``chunk_engine``.
    """
    return ChunkMeta(**describe_value(value, extra))


class MetaService:
    """Keyed store of chunk metadata, readable during tiling.

    Access is locked: metadata is written by the executor's accounting
    walk while tiling code (and, under parallel execution, band-runner
    threads via operator ``tile``/``execute`` hooks) may read it.
    """

    def __init__(self):
        self._metas: dict[str, ChunkMeta] = {}
        self._lock = threading.RLock()

    def set(self, key: str, meta: ChunkMeta) -> None:
        with self._lock:
            self._metas[key] = meta

    def set_from_value(self, key: str, value: Any,
                       extra: dict | None = None) -> ChunkMeta:
        meta = meta_from_value(value, extra=extra)
        with self._lock:
            self._metas[key] = meta
        return meta

    def set_from_values(self, entries) -> None:
        """Batched :meth:`set_from_value`: ``(key, value, extra)`` tuples.

        One message records a subtask's whole output set.
        """
        with self._lock:
            for key, value, extra in entries:
                self._metas[key] = meta_from_value(value, extra=extra)

    def get(self, key: str) -> Optional[ChunkMeta]:
        with self._lock:
            return self._metas.get(key)

    def get_many(self, keys) -> dict[str, ChunkMeta]:
        """Batched :meth:`get`: only keys with recorded meta appear."""
        with self._lock:
            return {
                key: self._metas[key] for key in keys if key in self._metas
            }

    def require(self, key: str) -> ChunkMeta:
        meta = self.get(key)
        if meta is None:
            raise KeyError(f"no meta recorded for chunk {key!r}")
        return meta

    def has(self, key: str) -> bool:
        with self._lock:
            return key in self._metas

    def update_extra(self, key: str, **extra: Any) -> None:
        with self._lock:
            self.require(key).extra.update(extra)

    def delete(self, key: str) -> None:
        with self._lock:
            self._metas.pop(key, None)

    def count(self) -> int:
        """Number of recorded chunk metas (``len()`` for actor refs)."""
        with self._lock:
            return len(self._metas)

    def __len__(self) -> int:
        return len(self._metas)
