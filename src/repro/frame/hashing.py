"""Deterministic content hashing for shuffle partitioning.

Two implementations of the same hash function:

- :func:`stable_hash` — the scalar reference (Python's built-in ``str``
  hash is salted per process, so shuffles need a content-based hash that
  every worker computes identically);
- :func:`hash_array` — the vectorized kernel: one pass over a whole key
  column, bit-identical to mapping :func:`stable_hash` over the column's
  ``tolist()`` view.

Keys equal under the key contract (``frame.dtypes``) hash alike: a float
equal to an int takes the integer formula (``1``, ``True`` and ``1.0``
share a partition), and an object column is numbered by
``dtypes.first_seen`` and each distinct cell hashed once.

Bit parity is load-bearing — re-executing a chunk must route every row
to the same partition — so the vectorized integer path leans on two
number-theory facts: NumPy's uint64 multiplication wraps modulo ``2**64``
and ``2**31`` divides ``2**64``, hence the low 31 bits of the wrapped
product equal Python's arbitrary-precision ``v * mult % 2**31``; and the
two's-complement reinterpretation of a negative int64 is exactly its
value modulo ``2**64``, so signed keys need no special case. An integral
float inside the int64 range casts to it exactly
(``dtypes.integral_in``); the other floats rely on float64 products
being representable identically in both runtimes and on C casts
truncating toward zero like Python's ``int()``.
"""

from __future__ import annotations

import math

import numpy as np

from . import dtypes

#: hash values live in [0, HASH_MOD).
HASH_MOD = 2 ** 31
_MASK31 = np.uint64(HASH_MOD - 1)
#: Knuth's multiplicative constant (integer keys).
_INT_MULT = 2654435761
#: CPython's tuple-hash prime (float keys).
_FLOAT_MULT = 1000003
#: FNV-1a parameters (everything else, hashed by str()).
_FNV_OFFSET = 2166136261
_FNV_PRIME = 16777619


def stable_hash(value) -> int:
    """Deterministic, content-based hash of one key (scalar reference)."""
    if value is None:
        return 0
    if isinstance(value, (float, np.floating)):
        whole = dtypes.exact_int(value)
        if whole is not None:  # equal to an int: hash as that int
            return whole * _INT_MULT % HASH_MOD
        value = float(value)
        if math.isnan(value):
            return 0  # NaN keys hash like missing values
        prod = value * _FLOAT_MULT
        if math.isinf(prod):  # inf keys
            return _fnv(str(value))
        return int(prod) % HASH_MOD
    if isinstance(value, (int, np.integer, np.bool_)):
        return int(value) * _INT_MULT % HASH_MOD
    return _fnv(str(value))


def _fnv(text: str) -> int:
    h = _FNV_OFFSET
    for ch in text:
        h = (h ^ ord(ch)) * _FNV_PRIME % (2 ** 32)
    return h % HASH_MOD


def hash_array(values) -> np.ndarray:
    """Vectorized :func:`stable_hash` over a 1-D array.

    Returns int64 hashes in ``[0, HASH_MOD)``, element-for-element equal
    to ``[stable_hash(v) for v in values.tolist()]``.
    """
    values = np.asarray(values)
    kind = values.dtype.kind
    if kind in ("i", "b"):
        return _hash_ints(values.astype(np.int64, copy=False).view(np.uint64))
    if kind == "u":
        return _hash_ints(values.astype(np.uint64, copy=False))
    if kind == "f":
        return _hash_floats(values.astype(np.float64, copy=False))
    if kind == "O":
        codes, distinct = dtypes.first_seen(values)
    else:  # datetimes and the rest hash as their Python cells
        codes, distinct = dtypes.hash_cells(values.tolist())
    if set(map(type, distinct)) == {str}:
        return _hash_strings(distinct)[codes]
    return np.fromiter(map(stable_hash, distinct), dtype=np.int64,
                       count=len(distinct))[codes]


def _hash_ints(wrapped: np.ndarray) -> np.ndarray:
    return ((wrapped * np.uint64(_INT_MULT)) & _MASK31).astype(np.int64)


def _hash_floats(values: np.ndarray) -> np.ndarray:
    out = np.zeros(len(values), dtype=np.int64)
    whole = dtypes.integral_in(values, np.int64)
    out[whole] = _hash_ints(values[whole].astype(np.int64).view(np.uint64))
    prod = values * np.float64(_FLOAT_MULT)
    # products beyond int64 range (or inf) cannot take the C-cast path;
    # NaN stays 0 by the NA convention above.
    with np.errstate(invalid="ignore"):
        in_range = ~whole & np.isfinite(prod) & (np.abs(prod)
                                                 < np.float64(2 ** 63))
    trunc = prod[in_range].astype(np.int64)  # C cast truncates toward zero
    out[in_range] = (trunc.view(np.uint64) & _MASK31).astype(np.int64)
    # integral floats past int64, infinities: the scalar path
    for i in np.flatnonzero(~whole & ~in_range & ~np.isnan(values)):
        out[i] = stable_hash(float(values[i]))
    return out


def _hash_strings(items: list) -> np.ndarray:
    """Columnar FNV-1a over an all-``str`` key list.

    A ``U``-dtype copy lays the strings out as a dense UCS-4 codepoint
    matrix, so the per-character FNV step runs once per *position* as a
    whole-column vector op instead of once per character per row. True
    lengths come from the Python strings, so embedded NULs don't truncate.
    """
    arr = np.array(items, dtype="U")
    n = len(items)
    max_len = arr.dtype.itemsize // 4
    offset = np.int64(_FNV_OFFSET % HASH_MOD)
    if max_len == 0:  # all-empty strings
        return np.full(n, offset, dtype=np.int64)
    codes = arr.view(np.uint32).reshape(n, max_len).astype(np.uint64)
    lengths = np.fromiter((len(s) for s in items), dtype=np.int64, count=n)
    h = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    mask32 = np.uint64(2 ** 32 - 1)
    for col in range(max_len):
        active = lengths > col
        if not active.any():
            break
        # (h ^ code) < 2**32 and the product < 2**57: no uint64 wrap, so
        # the & mask32 is exactly the scalar path's % 2**32.
        h = np.where(active, ((h ^ codes[:, col]) * prime) & mask32, h)
    return (h & _MASK31).astype(np.int64)
