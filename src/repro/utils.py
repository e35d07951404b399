"""Small shared utilities: deterministic keys, sizeof, iteration helpers."""

from __future__ import annotations

import contextlib
import itertools
import math
import threading
from typing import Any, Callable, Sequence

import numpy as np

_token_counter = itertools.count()
_key_ns = threading.local()


def new_key(prefix: str = "k") -> str:
    """Return a process-unique key, e.g. for chunks and subtasks.

    When a key namespace is active on the calling thread (see
    :func:`key_namespace`) the key is prefixed with it — sessions sharing
    one cluster namespace their runtime keys (``session-3/c-00000042``)
    so chunk/shuffle keys from different tenants can never collide in
    storage, shuffle, or LRU accounting.
    """
    ns = getattr(_key_ns, "value", "")
    return f"{ns}{prefix}-{next(_token_counter):08d}"


@contextlib.contextmanager
def key_namespace(ns: str):
    """Prefix every ``new_key`` on this thread with ``ns`` (e.g. ``"s1/"``)."""
    prev = getattr(_key_ns, "value", "")
    _key_ns.value = ns
    try:
        yield
    finally:
        _key_ns.value = prev


def tokenize(*parts: Any) -> str:
    """Deterministic short hash of the given parts (for cache keys).

    The canonical implementation lives in ``graph.identity`` (imported
    lazily: ``graph`` imports ``entity`` which imports this module, so a
    top-level import here would be circular during package init).
    """
    from .graph.identity import tokenize as _tokenize
    return _tokenize(*parts)


def sizeof(obj: Any) -> int:
    """Estimated in-memory byte size of a value held in storage.

    Understands NumPy arrays, the ``repro.frame`` containers (via their
    ``nbytes`` attribute), and plain Python containers. Object-dtype NumPy
    arrays are charged a per-element estimate because ``arr.nbytes`` only
    counts the pointers.
    """
    # ndarray first: the overwhelmingly common case on the shuffle/data
    # path, answered from dtype metadata without the getattr protocol.
    if isinstance(obj, np.ndarray):
        if obj.dtype == object:
            return int(obj.size) * 64 + 96
        return int(obj.nbytes)
    if obj is None:
        return 16
    nbytes = getattr(obj, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj) + 48
    if isinstance(obj, str):
        return len(obj) + 56
    if isinstance(obj, (int, float, bool, np.generic)):
        return 32
    if isinstance(obj, dict):
        return 64 + sum(sizeof(k) + sizeof(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 56 + sum(sizeof(item) for item in obj)
    return 64


def ceildiv(a: int, b: int) -> int:
    """Integer ceiling division."""
    return -(-a // b)


def split_length(total: int, chunk: int) -> list[int]:
    """Split ``total`` items into pieces of at most ``chunk`` items.

    >>> split_length(10, 4)
    [4, 4, 2]
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    if total == 0:
        return []
    full, rest = divmod(total, chunk)
    sizes = [chunk] * full
    if rest:
        sizes.append(rest)
    return sizes


def split_even(total: int, parts: int) -> list[int]:
    """Split ``total`` items into ``parts`` near-equal pieces.

    >>> split_even(10, 3)
    [4, 3, 3]
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    base, rest = divmod(total, parts)
    return [base + (1 if i < rest else 0) for i in range(parts)]


def cumulative_offsets(sizes: Sequence[int]) -> list[int]:
    """Exclusive prefix sums: [0, s0, s0+s1, ...] with len(sizes)+1 items."""
    offsets = [0]
    for size in sizes:
        offsets.append(offsets[-1] + size)
    return offsets


def locate_in_splits(index: int, sizes: Sequence[int]) -> tuple[int, int]:
    """Locate a global position inside a partitioned axis.

    Returns ``(chunk_idx, offset_in_chunk)`` such that global ``index``
    falls into chunk ``chunk_idx`` at local position ``offset_in_chunk``.
    """
    if index < 0:
        raise IndexError(f"index {index} out of range")
    running = 0
    for chunk_idx, size in enumerate(sizes):
        if index < running + size:
            return chunk_idx, index - running
        running += size
    raise IndexError(f"index {index} out of range for splits {list(sizes)!r}")


#: fan-in of one combine stage node (tree-reduce arity).
COMBINE_ARITY = 4


def combine_tree(level: Sequence, combine: Callable[[list, int], Any]) -> list:
    """The combine stage of a map-combine-reduce, written once.

    While more than ``COMBINE_ARITY`` nodes remain, each run of up to
    ``COMBINE_ARITY`` of them becomes ``combine(batch, j)``, ``j`` the
    batch's position in its level.  Returns the at most
    ``COMBINE_ARITY`` nodes left: the caller's final node reads them
    all, or, when its final op is its combine op, combines them once
    more if there is more than one.

    >>> combine_tree(list(range(6)), lambda batch, j: sum(batch))
    [6, 9]
    """
    level = list(level)
    while len(level) > COMBINE_ARITY:
        level = [combine(level[start:start + COMBINE_ARITY], j)
                 for j, start in enumerate(
                     range(0, len(level), COMBINE_ARITY))]
    return level


def human_bytes(n: float) -> str:
    """Format a byte count, e.g. ``human_bytes(2048) == '2.0 KiB'``."""
    if n < 0:
        return "-" + human_bytes(-n)
    units = ["B", "KiB", "MiB", "GiB", "TiB"]
    idx = 0
    value = float(n)
    while value >= 1024 and idx < len(units) - 1:
        value /= 1024
        idx += 1
    if idx == 0:
        return f"{int(value)} B"
    return f"{value:.1f} {units[idx]}"


def geomean(values: Sequence[float]) -> float:
    """Geometric mean; raises on empty or non-positive input."""
    if not values:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))

