"""Actor messages and the delivery log.

Every cross-actor call is materialized as a :class:`Message` and recorded,
giving tests and the simulation a faithful trace of service interactions —
the same observability a real Xoscar deployment gets from its RPC layer.

The log is shared mutable state touched from the accounting thread *and*
band-runner pool threads (compute-phase storage peeks route through the
actor plane), so every mutation happens under a lock.  Aggregate counters
(per-recipient, per-edge) are maintained alongside the bounded message
list: trimming old messages never loses counts, which is what
``diagnostics.service_report`` summarizes.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Any


@dataclass
class Message:
    """One actor method invocation."""

    sender: str
    recipient: str
    method: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    seq: int = 0

    def describe(self) -> str:
        return f"#{self.seq} {self.sender} -> {self.recipient}.{self.method}"


class MessageLog:
    """Bounded in-memory trace of delivered messages (thread-safe)."""

    def __init__(self, capacity: int = 10_000):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._messages: list[Message] = []
        self._seq = 0
        self.total_delivered = 0
        #: (sender, recipient) -> deliveries, never trimmed.
        self._edge_counts: Counter[tuple[str, str]] = Counter()
        #: recipient uid -> deliveries, never trimmed.
        self._recipient_counts: Counter[str] = Counter()
        #: (sender, recipient, method) -> deliveries, never trimmed.
        self._method_counts: Counter[tuple[str, str, str]] = Counter()

    def record(self, message: Message) -> None:
        with self._lock:
            self._seq += 1
            self.total_delivered += 1
            message.seq = self._seq
            self._messages.append(message)
            self._edge_counts[(message.sender, message.recipient)] += 1
            self._recipient_counts[message.recipient] += 1
            self._method_counts[
                (message.sender, message.recipient, message.method)
            ] += 1
            if len(self._messages) > self.capacity:
                del self._messages[: len(self._messages) - self.capacity]

    def recent(self, n: int = 50) -> list[Message]:
        with self._lock:
            return self._messages[-n:]

    def count_for(self, recipient: str) -> int:
        """Total deliveries to ``recipient`` (not limited to the window)."""
        with self._lock:
            return self._recipient_counts.get(recipient, 0)

    def edge_counts(self) -> dict[tuple[str, str], int]:
        with self._lock:
            return dict(self._edge_counts)

    def edges(self) -> set[tuple[str, str]]:
        """Every (sender, recipient) pair ever delivered."""
        with self._lock:
            return set(self._edge_counts)

    def top_edges(self, n: int = 10) -> list[tuple[tuple[str, str], int]]:
        """The chattiest sender -> recipient pairs, busiest first."""
        with self._lock:
            return sorted(
                self._edge_counts.items(),
                key=lambda item: (-item[1], item[0]),
            )[:n]

    def clear(self) -> None:
        with self._lock:
            self._messages.clear()
            self._edge_counts.clear()
            self._recipient_counts.clear()
            self._method_counts.clear()
            self.total_delivered = 0

    def snapshot(self) -> dict[str, Any]:
        """Aggregates in one consistent view (diagnostics)."""
        with self._lock:
            return {
                "total_delivered": self.total_delivered,
                "recipients": dict(self._recipient_counts),
                "edges": dict(self._edge_counts),
                "methods": dict(self._method_counts),
            }

