"""The delivery count.

Every cross-actor call is counted once, keyed by ``(sender, recipient,
method)``: the per-recipient, per-edge and per-method views that tests
and ``diagnostics.service_report`` read are all derived from that one
counter (``tools/profile_workload.py --messages`` prints the
per-method census of a workload).  Nothing else about a call is kept,
so the log never holds a reference to a message's arguments.

Band-runner pool threads deliver concurrently with the accounting
thread, so the counter is updated under a lock.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Any


class MessageLog:
    """Deliveries counted by ``(sender, recipient, method)`` (thread-safe)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counts: dict[tuple[str, str, str], int] = {}
        self.total_delivered = 0

    def record(self, sender: str, recipient: str, method: str) -> None:
        key = (sender, recipient, method)
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + 1
            self.total_delivered += 1

    def count_for(self, recipient: str) -> int:
        """Total deliveries to ``recipient``."""
        return self.snapshot()["recipients"].get(recipient, 0)

    def edge_counts(self) -> dict[tuple[str, str], int]:
        return self.snapshot()["edges"]

    def edges(self) -> set[tuple[str, str]]:
        """Every (sender, recipient) pair ever delivered."""
        return set(self.edge_counts())

    def top_edges(self, n: int = 10) -> list[tuple[tuple[str, str], int]]:
        """The chattiest sender -> recipient pairs, busiest first."""
        return sorted(self.edge_counts().items(),
                      key=lambda item: (-item[1], item[0]))[:n]

    def snapshot(self) -> dict[str, Any]:
        """Aggregates in one consistent view (diagnostics)."""
        with self._lock:
            methods = dict(self._counts)
            total = self.total_delivered
        recipients: Counter[str] = Counter()
        edges: Counter[tuple[str, str]] = Counter()
        for (sender, recipient, _), n in methods.items():
            recipients[recipient] += n
            edges[(sender, recipient)] += n
        return {
            "total_delivered": total,
            "recipients": dict(recipients),
            "edges": dict(edges),
            "methods": methods,
        }
