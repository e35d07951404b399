"""``repro.storage`` — tiered storage service for intermediate chunks."""

from .base import AccessInfo, StorageLevel, StoredItem
from .service import StorageService
from .shuffle import ShuffleManager, shuffle_key

__all__ = [
    "AccessInfo",
    "ShuffleManager",
    "StorageLevel",
    "StorageService",
    "StoredItem",
    "shuffle_key",
]
