"""On-path caching at gateway routers.

A :class:`SegmentRouter` with an enabled
:class:`~repro.caching.CacheConfig` taps every crossing it is about to
ferry on the content channel:

* a RESPONSE passing through is remembered (the router caches what it
  carries) and forwarded unchanged;
* a WRITE passing through refreshes an already-cached entry (never
  inserts — writes are the origin's news, not evidence of popularity)
  and is forwarded unchanged;
* a REQUEST whose content id is cached is answered *locally* — the
  ingress gateway sends the RESPONSE back onto the requester's own ring
  — and not forwarded, which is the origin-offload the C1 bench
  measures.

The tap sits on the forwarding path after the spanning-tree role gate,
so exactly the router that would have ferried a crossing answers it:
blocked redundant routers never produce a second response, and clients
match responses by sequence number, never by responder address.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim import Counter
from .config import CacheConfig
from .store import CacheStore
from .wire import OP_REQUEST, OP_RESPONSE, OP_WRITE, decode, encode_response

if TYPE_CHECKING:  # pragma: no cover
    from ..routing.port import Crossing, RouterPort

__all__ = ["OnPathCache"]


class OnPathCache:
    """The router-side content tap; counters land in the router's own
    :class:`~repro.sim.Counter` under a ``cache_`` prefix (folded into
    results as ``router_cache_*`` by the existing router fold)."""

    def __init__(self, config: CacheConfig, counters: Counter):
        self.channel = config.channel
        self.store = CacheStore(config.capacity, config.eviction)
        self.counters = counters

    def serve(self, ingress_port: "RouterPort", crossing: "Crossing") -> bool:
        """Inspect one about-to-be-ferried crossing.

        Returns True when the crossing was answered locally (the caller
        must not forward it); False to forward as usual.
        """
        if crossing.channel != self.channel:
            return False
        frame = decode(crossing.payload)
        if frame is None:
            return False
        if frame.op == OP_RESPONSE:
            if self.store.put(frame.content_id, frame.body) is not None:
                self.counters.incr("cache_evictions")
            self.counters.incr("cache_stored")
            return False
        if frame.op == OP_WRITE:
            if frame.content_id in self.store:
                self.store.put(frame.content_id, frame.body)
                self.counters.incr("cache_write_refreshes")
            return False
        if frame.op != OP_REQUEST:
            return False
        body = self.store.get(frame.content_id)
        if body is None:
            self.counters.incr("cache_misses")
            return False
        self.counters.incr("cache_hits")
        ingress_port.gateway.messenger.send_global(
            crossing.origin,
            encode_response(frame.seq, frame.content_id, body),
            crossing.channel,
        )
        return True
