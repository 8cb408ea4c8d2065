"""Bulkhead isolation: per-ingress compartments in an egress queue.

Without it, one saturated ingress segment can fill an egress port's
single FIFO end to end: crossings from every other segment queue behind
the flood, and the pump serves the noisy neighbour for as long as its
backlog lasts.  The bulkhead splits the queue into one FIFO compartment
per *ingress* segment, bounds each compartment, and drains them
round-robin — a burst from one segment can only consume its own
compartment, and the pump cadence is shared fairly across the rest.

The structure mirrors the subset of :class:`collections.deque` the
router's egress path actually uses (``append``/``extend``/``popleft``/
``clear``/``len``/truthiness), so the port can swap it in for the plain
deque without touching the pump logic.  Round-robin order is a rotating
deque of compartment keys — fully deterministic, no hashing order
involved.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable

__all__ = ["CompartmentedQueue"]


class CompartmentedQueue:
    """Bounded per-ingress FIFO compartments with round-robin drain.

    Items must expose an ``ingress`` attribute (the segment id the
    crossing was captured on); unknown/foreign items fall into the
    ``-1`` compartment rather than failing.
    """

    def __init__(self, compartment_cap: int):
        if compartment_cap < 1:
            raise ValueError("compartment capacity must be >= 1")
        self.compartment_cap = compartment_cap
        self._compartments: Dict[int, Deque[Any]] = {}
        #: rotating drain order of compartment keys (insertion order of
        #: first appearance — deterministic)
        self._order: Deque[int] = deque()
        self._len = 0

    @staticmethod
    def _key(item: Any) -> int:
        return getattr(item, "ingress", -1)

    # -------------------------------------------------------------- writes
    def accepts(self, ingress: int) -> bool:
        """Room left in this ingress segment's compartment?"""
        return len(self._compartments.get(ingress, ())) < self.compartment_cap

    def append(self, item: Any) -> None:
        key = self._key(item)
        comp = self._compartments.get(key)
        if comp is None:
            comp = self._compartments[key] = deque()
            self._order.append(key)
        comp.append(item)
        self._len += 1

    def extend(self, items: Iterable[Any]) -> None:
        for item in items:
            self.append(item)

    def popleft(self) -> Any:
        """Next item, round-robin across non-empty compartments."""
        for _ in range(len(self._order)):
            key = self._order[0]
            self._order.rotate(-1)
            comp = self._compartments[key]
            if comp:
                self._len -= 1
                return comp.popleft()
        raise IndexError("pop from an empty CompartmentedQueue")

    def clear(self) -> None:
        for comp in self._compartments.values():
            comp.clear()
        self._len = 0

    # ------------------------------------------------------------- queries
    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0
