"""Network Cache: replicated NIC memory with Lamport-counter seqlocks
(slides 2, 9-11), replication, assimilation refresh, network semaphores."""

from .network_cache import (
    CacheError,
    NetworkCache,
    RecordUpdate,
    RegionSpec,
    decode_update,
    encode_update,
)
from .refresh import RefreshService
from .replication import CacheReplicator
from .semaphore import SEM_REGION, SemaphoreError, SemaphoreService

__all__ = [
    "CacheError",
    "CacheReplicator",
    "NetworkCache",
    "RecordUpdate",
    "RefreshService",
    "RegionSpec",
    "SEM_REGION",
    "SemaphoreError",
    "SemaphoreService",
    "decode_update",
    "encode_update",
]
