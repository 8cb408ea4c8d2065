"""Bounded content store with deterministic LRU/LFU eviction."""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from .config import EVICTION_POLICIES

__all__ = ["CacheStore"]


class CacheStore:
    """A bounded ``content id -> body`` map.

    ``lru`` evicts the least recently *touched* entry (gets and puts
    both refresh recency); ``lfu`` evicts the least frequently touched,
    with ties broken by insertion order — both disciplines are fully
    deterministic, which the replay-determinism contract requires.
    """

    def __init__(self, capacity: int, eviction: str = "lru"):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1 entry")
        if eviction not in EVICTION_POLICIES:
            raise ValueError(
                f"unknown eviction policy {eviction!r}; "
                f"expected one of {EVICTION_POLICIES}"
            )
        self.capacity = capacity
        self.eviction = eviction
        self._data: "OrderedDict[int, bytes]" = OrderedDict()
        #: lfu bookkeeping: content id -> (frequency, insertion order)
        self._freq: Dict[int, Tuple[int, int]] = {}
        self._inserts = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, content_id: int) -> bool:
        return content_id in self._data

    def get(self, content_id: int) -> Optional[bytes]:
        body = self._data.get(content_id)
        if body is None:
            return None
        self._touch(content_id)
        return body

    def put(self, content_id: int, body: bytes) -> Optional[int]:
        """Insert/update an entry; returns the evicted content id (if
        the bound forced one out), else None."""
        evicted: Optional[int] = None
        if content_id not in self._data and len(self._data) >= self.capacity:
            evicted = self._victim()
            del self._data[evicted]
            self._freq.pop(evicted, None)
            self.evictions += 1
        if content_id not in self._data:
            self._inserts += 1
            self._freq[content_id] = (0, self._inserts)
        self._data[content_id] = body
        self._touch(content_id)
        return evicted

    def _touch(self, content_id: int) -> None:
        self._data.move_to_end(content_id)
        freq, order = self._freq[content_id]
        self._freq[content_id] = (freq + 1, order)

    def _victim(self) -> int:
        if self.eviction == "lru":
            return next(iter(self._data))
        return min(self._data, key=lambda cid: self._freq[cid])
