"""Storage vocabulary: tiers, stored items and what a read cost.

The paper's storage service (Section V-C) hides *where* a chunk lives
behind ``put``/``get`` with a unique key. Each worker's tiers form a
memory hierarchy (memory, disk); the service spills across levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Any, NamedTuple


class StorageLevel(IntEnum):
    """Tiers of the memory hierarchy, fastest first."""

    MEMORY = 1
    DISK = 2


class StoredItem(NamedTuple):
    """A stored value and the bytes it is charged as."""

    value: Any
    nbytes: int


#: the disk tier is this many times slower than memory.
DISK_PENALTY = 8.0


@dataclass
class AccessInfo:
    """What a ``get`` cost: bytes moved across the network and the
    slowdown factor of the tier the data was read from."""

    value: Any
    nbytes: int
    transferred_bytes: int = 0
    tier_penalty: float = 1.0
    source_worker: str = ""
