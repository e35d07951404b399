"""Storage abstractions: levels and the backend interface.

The paper's storage service (Section V-C) hides *where* a chunk lives
behind ``put``/``get`` with a unique key. Backends form a memory hierarchy
(memory, disk); the service spills across levels.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from enum import IntEnum
from typing import Any


class StorageLevel(IntEnum):
    """Tiers of the memory hierarchy, fastest first."""

    MEMORY = 1
    DISK = 2


@dataclass
class StoredItem:
    """A value plus its bookkeeping."""

    key: str
    value: Any
    nbytes: int
    level: StorageLevel
    worker: str


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


class StorageBackend(abc.ABC):
    """One tier's key-value store."""

    level: StorageLevel

    def __init__(self):
        self._items: dict[str, StoredItem] = {}

    def put(self, item: StoredItem) -> None:
        self._items[item.key] = item

    def get(self, key: str) -> StoredItem:
        return self._items[key]

    def delete(self, key: str) -> StoredItem:
        return self._items.pop(key)

    def __contains__(self, key: str) -> bool:
        return key in self._items

    def keys(self) -> list[str]:
        return list(self._items)

    def total_bytes(self) -> int:
        return sum(item.nbytes for item in self._items.values())

    def __len__(self) -> int:
        return len(self._items)
