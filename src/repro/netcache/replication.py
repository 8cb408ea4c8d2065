"""Cache replication: broadcasting writes, applying peers' updates.

Every local write is broadcast to the ring on the CACHE channel; every
replica applies it through the gradual DMA path of
:meth:`~repro.netcache.network_cache.NetworkCache.apply_update`.  Applies
are serialized *per record* (the NIC has one DMA target cursor per
record) and coalesced: if several updates for the same record queue up
while one is being written, only the newest survives — last-writer-wins
makes the intermediate versions unobservable anyway.

Region definitions are replicated too, so services can create regions at
runtime (AmpFiles does) and late joiners learn them from the snapshot.

A peer's bytes are not trusted: a message that does not parse, defines a
region that clashes with ours, or names a record its region does not
hold is counted in ``bad_messages`` and dropped.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, TYPE_CHECKING

from ..sim import Counter
from ..transport import Channel
from .network_cache import (
    CacheError,
    RecordUpdate,
    RegionSpec,
    decode_update,
    encode_update,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..node import AmpNode

__all__ = ["CacheReplicator"]

#: message type tags on the CACHE channel
_TAG_UPDATE = 0
_TAG_REGION = 1


class CacheReplicator:
    """Wires a NetworkCache replica to the reliable messenger."""

    def __init__(self, node: "AmpNode"):
        self.node = node
        self.messenger = node.messenger
        self.sim = node.sim
        self.counters = Counter()
        #: per-record apply serialization: key -> pending newest update
        self._busy: Dict[Tuple[int, int], Optional[RecordUpdate]] = {}
        #: updates for regions we have not learned yet (reordered arrival)
        self._orphans: Dict[int, list] = {}
        #: delivery handle of the most recent local-write broadcast —
        #: applications use it as their durability gate (failover app)
        self.last_handle = None

        self._hook_replica()
        self.messenger.on_message(Channel.CACHE, self._on_message)
        node.crash_listeners.append(self._on_crash)

    def _hook_replica(self) -> None:
        self.node.cache.on_local_write = self._broadcast_update
        self.node.cache.on_region_defined = self._broadcast_region

    def _on_crash(self) -> None:
        """NIC memory is gone: queued applies die with it, and the
        node's fresh replica needs our hooks."""
        self._busy.clear()
        self._orphans.clear()
        self._hook_replica()

    # ----------------------------------------------------------------- out
    def _broadcast_update(self, update: RecordUpdate) -> None:
        from ..micropacket import BROADCAST

        self.counters.incr("updates_broadcast")
        self.last_handle = self.messenger.send(
            BROADCAST, bytes([_TAG_UPDATE]) + encode_update(update), Channel.CACHE
        )

    def _broadcast_region(self, spec: RegionSpec) -> None:
        from ..micropacket import BROADCAST

        name_b = spec.name.encode("utf-8")
        payload = (
            bytes([_TAG_REGION, spec.region_id, len(name_b)])
            + name_b
            + spec.n_records.to_bytes(4, "little")
            + spec.record_size.to_bytes(2, "little")
        )
        self.counters.incr("regions_broadcast")
        self.messenger.send(BROADCAST, payload, Channel.CACHE)

    # ------------------------------------------------------------------ in
    def _on_message(self, src: int, payload: bytes, channel: int) -> None:
        if src == self.node.node_id:
            return  # our own broadcast touring back
        try:
            tag = payload[0]
            if tag == _TAG_REGION:
                self._apply_region(payload[1:])
            elif tag == _TAG_UPDATE:
                update, _rest = decode_update(payload[1:])
                self._enqueue_apply(update)
            else:
                raise CacheError(f"unknown cache message tag {tag}")
        except (IndexError, UnicodeDecodeError, CacheError):
            self.counters.incr("bad_messages")

    def _apply_region(self, raw: bytes) -> None:
        region_id, name_len = raw[0], raw[1]
        if len(raw) != 8 + name_len:
            raise CacheError(f"region row of {len(raw)} bytes")
        name = raw[2 : 2 + name_len].decode("utf-8")
        rest = raw[2 + name_len :]
        spec = RegionSpec(
            region_id,
            name,
            int.from_bytes(rest[:4], "little"),
            int.from_bytes(rest[4:6], "little"),
        )
        # Define without re-announcing (the announcement is circulating).
        self.node.cache.define_region(spec, announce=False)
        self.counters.incr("regions_learned")
        for orphan in self._orphans.pop(spec.region_id, []):
            self._enqueue_apply(orphan)

    def _enqueue_apply(self, update: RecordUpdate) -> None:
        spec = self.node.cache.region_of(update.region_id)
        if spec is None:
            # The region announcement is still in flight (retransmission
            # reordering); hold the update until it lands.
            self._orphans.setdefault(update.region_id, []).append(update)
            self.counters.incr("orphan_updates")
            return
        if not 0 <= update.index < spec.n_records:
            self.counters.incr("bad_messages")  # before ``_busy`` holds it
            return
        key = (update.region_id, update.index)
        if key in self._busy:
            pending = self._busy[key]
            if pending is None or (update.version, update.writer) > (
                pending.version,
                pending.writer,
            ):
                self._busy[key] = update
                self.counters.incr("applies_coalesced")
            return
        self._busy[key] = None
        self._apply(key, update)

    def _apply(self, key: Tuple[int, int], update: RecordUpdate) -> None:
        self.node.cache.apply_update(update, lambda _ok: self._applied(key))

    def _applied(self, key: Tuple[int, int]) -> None:
        """One apply finished: run the newest update that queued behind
        it, if any.  A crash clears ``_busy`` mid-chain, so the key may
        be gone."""
        self.counters.incr("applies_run")
        update = self._busy.pop(key, None)
        if update is not None:
            self._busy[key] = None
            self._apply(key, update)
