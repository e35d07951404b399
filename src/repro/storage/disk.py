"""Disk (spill) storage backend — StorageLevel.DISK."""

from __future__ import annotations

from .base import StorageBackend, StorageLevel


class DiskBackend(StorageBackend):
    """Per-worker disk store used as the spill target.

    Reads are charged ``DISK_PENALTY`` by the storage service. Capacity is unbounded here (cluster disks are far larger
    than memory at the paper's scales).
    """

    level = StorageLevel.DISK
