"""The DES kernel's event scheduler.

The kernel orders scheduled events by ``(time, priority, sequence)``;
the sequence id is unique and monotone, so that triple is a *total*
order: entries at the same time and priority pop FIFO, and the pop
order is fully determined by what was scheduled.

:class:`HeapScheduler` keeps the pending entries in a binary heap
(``heapq``): O(log n) per operation but C-implemented.  Calendar,
ladder and heap-to-calendar promoting queues were measured against it
on 64- to 4096-node cells and none beat it beyond run-to-run noise
(see ``BENCH_DES.json`` history), so the heap is the only scheduler.

:class:`TieBreakingHeap` is the same tie-breaking discipline packaged
for ordered wait queues outside the kernel (``des.resources``): a heap
of ``(key, seq, item)`` whose items are never compared.
"""

from __future__ import annotations

from heapq import heappop, heappush, nsmallest
from itertools import count
from math import inf
from typing import Any, List, Tuple

__all__ = ["HeapScheduler", "TieBreakingHeap"]

#: A scheduled entry: ``(time, priority, sequence, event)``.
Entry = Tuple[float, int, int, Any]


class HeapScheduler:
    """The kernel's event scheduler: a binary heap of entry tuples.

    Only a single counter increments on push; dequeues are derived
    (``enqueues − len``), so ``pop`` stays a bare ``heappop``.
    """

    __slots__ = ("_entries", "enqueues")

    def __init__(self) -> None:
        self._entries: List[Entry] = []
        self.enqueues = 0

    def push(self, entry: Entry) -> None:
        self.enqueues += 1
        heappush(self._entries, entry)

    def pop(self) -> Entry:
        return heappop(self._entries)  # IndexError when empty

    def peek_time(self) -> float:
        entries = self._entries
        return entries[0][0] if entries else inf

    def __len__(self) -> int:
        return len(self._entries)

    def smallest(self, k: int) -> List[Entry]:
        """The *k* earliest entries, in order (diagnostics only)."""
        return nsmallest(k, self._entries)

    def stats(self) -> dict:
        return {
            "enqueues": self.enqueues,
            "dequeues": self.enqueues - len(self._entries),
        }


class TieBreakingHeap:
    """Heap of ``(key, seq, item)``: FIFO among equal keys, items never
    compared.  The same tie-breaking discipline the kernel scheduler
    uses, packaged for ordered wait queues (``des.resources``)."""

    __slots__ = ("_entries", "_seq")

    def __init__(self) -> None:
        self._entries: List[tuple] = []
        self._seq = count()

    def push(self, key: Any, item: Any) -> None:
        heappush(self._entries, (key, next(self._seq), item))

    def pop(self) -> Any:
        """Remove and return the item with the smallest key (FIFO on
        ties); raises ``IndexError`` when empty."""
        return heappop(self._entries)[2]

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)
