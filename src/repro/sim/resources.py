"""Waitable resources built on the event kernel.

One queueing primitive, for cold-path processes that wait on a queue:

* :class:`Store` — FIFO buffer with optional capacity and waitable
  get/put (mailboxes, descriptor rings).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .events import Event
from .kernel import Simulator

__all__ = ["Store"]


class StorePut(Event):
    """Event returned by :meth:`Store.put`; fires when the item is stored."""

    __slots__ = ("item",)

    def __init__(self, sim: Simulator, item: Any):
        super().__init__(sim)
        self.item = item


class StoreGet(Event):
    """Event returned by :meth:`Store.get`; fires with the popped item."""

    __slots__ = ()


class Store:
    """FIFO item buffer with optional capacity and waitable get/put.

    Both ``put`` and ``get`` return events.  ``put`` on a full store blocks
    until space frees (this back-pressure is exactly how the register
    insertion ring guarantees zero drops: upstream stages *wait*, they never
    discard).
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._putters: Deque[StorePut] = deque()
        self._getters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self.items) >= self.capacity

    def put(self, item: Any) -> StorePut:
        ev = StorePut(self.sim, item)
        self._putters.append(ev)
        self._settle()
        return ev

    def get(self) -> StoreGet:
        ev = StoreGet(self.sim)
        self._getters.append(ev)
        self._settle()
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False instead of waiting when full."""
        if self.is_full and not self._getters:
            return False
        self.put(item)
        return True

    def _settle(self) -> None:
        """Match queued putters with space and getters with items."""
        progressed = True
        while progressed:
            progressed = False
            while self._putters and not self.is_full:
                put = self._putters.popleft()
                self.items.append(put.item)
                put.succeed()
                progressed = True
            while self._getters and len(self):
                get = self._getters.popleft()
                get.succeed(self.items.popleft())
                progressed = True

