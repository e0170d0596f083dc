"""Worklists driving fixed-point solvers.

All lists deduplicate: pushing an item already queued is a no-op.  The
points-to solvers push nodes many times per fixed point, so membership checks
must be O(1).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, Dict, Generic, Iterable, List, Set, TypeVar

T = TypeVar("T")


class WorkList(Generic[T]):
    """LIFO worklist with O(1) dedup. Good default for constraint solving."""

    __slots__ = ("_items", "_member")

    def __init__(self, items: Iterable[T] = ()):
        self._items: List[T] = []
        self._member: Set[T] = set()
        for item in items:
            self.push(item)

    def push(self, item: T) -> bool:
        """Queue *item* unless already queued; return True if queued."""
        if item in self._member:
            return False
        self._member.add(item)
        self._items.append(item)
        return True

    def extend(self, items: Iterable[T]) -> None:
        for item in items:
            self.push(item)

    def pop(self) -> T:
        item = self._items.pop()
        self._member.discard(item)
        return item

    def __contains__(self, item: T) -> bool:
        return item in self._member

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)


class FIFOWorkList(Generic[T]):
    """FIFO worklist with O(1) dedup; round-robin order helps convergence
    on graphs with long chains (e.g. SVFG value-flow paths)."""

    __slots__ = ("_items", "_member")

    def __init__(self, items: Iterable[T] = ()):
        self._items: Deque[T] = deque()
        self._member: Set[T] = set()
        for item in items:
            self.push(item)

    def push(self, item: T) -> bool:
        if item in self._member:
            return False
        self._member.add(item)
        self._items.append(item)
        return True

    def extend(self, items: Iterable[T]) -> None:
        for item in items:
            self.push(item)

    def pop(self) -> T:
        item = self._items.popleft()
        self._member.discard(item)
        return item

    def __contains__(self, item: T) -> bool:
        return item in self._member

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    # ----------------------------------------------------------- persistence

    def snapshot(self) -> dict:
        """Queue order verbatim (items must be JSON-safe, e.g. ints)."""
        return {"items": list(self._items)}

    def restore(self, state: dict) -> None:
        """Reload :meth:`snapshot` output into this (empty) worklist."""
        self._items = deque(state["items"])
        self._member = set(self._items)


class PriorityWorkList(Generic[T]):
    """Priority worklist popping the item with the smallest int key first.

    Equal keys pop in push order (FIFO), so the order is deterministic.
    Items wait in one FIFO bucket per key, and a heap holds the keys whose
    bucket is non-empty: the heap compares plain ints, and a pop that
    leaves its bucket non-empty does not touch the heap at all.

    SFS keys SVFG node ids by the topological index of their SCC
    (:func:`repro.svfg.order.topological_rank`), draining the graph as a
    staged topological sweep.
    """

    __slots__ = ("_buckets", "_keys", "_member", "_key")

    def __init__(self, key: Callable[[T], int], items: Iterable[T] = ()):
        self._buckets: Dict[int, Deque[T]] = {}
        self._keys: List[int] = []  # heap of the keys with queued items
        self._member: Set[T] = set()
        self._key = key
        for item in items:
            self.push(item)

    def push(self, item: T) -> bool:
        if item in self._member:
            return False
        self._member.add(item)
        key = self._key(item)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = deque()
            heapq.heappush(self._keys, key)
        bucket.append(item)
        return True

    def extend(self, items: Iterable[T]) -> None:
        for item in items:
            self.push(item)

    def pop(self) -> T:
        key = self._keys[0]
        bucket = self._buckets[key]
        item = bucket.popleft()
        if not bucket:
            heapq.heappop(self._keys)
            del self._buckets[key]
        self._member.discard(item)
        return item

    def __contains__(self, item: T) -> bool:
        return item in self._member

    def __len__(self) -> int:
        return len(self._member)

    def __bool__(self) -> bool:
        return bool(self._member)

    # ----------------------------------------------------------- persistence

    def snapshot(self) -> dict:
        """Queued items in pop order (items must be JSON-safe, e.g. ints)."""
        return {"items": [item for key in sorted(self._buckets)
                          for item in self._buckets[key]]}

    def restore(self, state: dict) -> None:
        """Reload :meth:`snapshot` output into this (empty) worklist.

        Re-pushing in pop order keeps the pop order: within a key, the
        restored items queue ahead of anything pushed later.
        """
        for item in state["items"]:
            self.push(item)
