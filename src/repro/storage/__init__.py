"""``repro.storage`` — tiered storage service for intermediate chunks."""

from .base import AccessInfo, StorageBackend, StorageLevel, StoredItem
from .disk import DiskBackend
from .memory import MemoryBackend
from .service import StorageService
from .shuffle import ShuffleManager, shuffle_key

__all__ = [
    "AccessInfo",
    "DiskBackend",
    "MemoryBackend",
    "ShuffleManager",
    "StorageBackend",
    "StorageLevel",
    "StorageService",
    "StoredItem",
    "shuffle_key",
]
