"""The Network Cache: NIC-resident memory replicated at every node.

Slide 2: "Use Network Cache to keep the same information at every node...
the management information is ubiquitous... applications can use the
network to rebuild."  Slide 11 puts 2-16 MB of SRAM (or up to 256 MB of
SDRAM) of it on every NIC.

This module is the *local replica*: typed regions of fixed-size records,
each record guarded by the two "Lamport counters" of slide 9 (what the
modern world calls a seqlock).  Replication — broadcasting writes and
applying peers' updates — lives in :mod:`repro.netcache.replication`.

Torn reads are real here: a peer's update is applied *gradually* (the DMA
engine writes the record a few bytes per cycle), and a naive reader that
ignores the counters can observe half-old-half-new bytes.  The slide-9
read protocol makes that impossible:

    To read:  read first counter, read last counter;
              if they agree, read data, else wait and restart;
              re-read first counter, if changed restart.
    To write: just write.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, Iterable, List, Optional, Tuple

from ..sim import Counter, Simulator

__all__ = [
    "RegionSpec",
    "RecordUpdate",
    "NetworkCache",
    "CacheError",
    "encode_update",
    "decode_update",
]


class CacheError(Exception):
    """Bad region/record addressing or malformed update."""


@dataclass(frozen=True)
class RegionSpec:
    """Shape of one cache region (identical at every node)."""

    region_id: int
    name: str
    n_records: int
    record_size: int

    def __post_init__(self) -> None:
        if not 0 <= self.region_id <= 0xFF:
            raise CacheError("region id out of byte range")
        if self.n_records < 1 or self.record_size < 1:
            raise CacheError("region must hold at least one byte")
        if self.record_size > 0xFFFF:
            raise CacheError("record size out of u16 range")

    @property
    def size_bytes(self) -> int:
        return self.n_records * self.record_size


@dataclass(frozen=True)
class RecordUpdate:
    """One record write as shipped between replicas."""

    region_id: int
    index: int
    version: int
    writer: int
    data: bytes


def encode_update(u: RecordUpdate) -> bytes:
    """Wire form: region(1) index(2) version(4) writer(1) len(2) data."""
    return (
        bytes([u.region_id])
        + u.index.to_bytes(2, "little")
        + (u.version & 0xFFFFFFFF).to_bytes(4, "little")
        + bytes([u.writer])
        + len(u.data).to_bytes(2, "little")
        + u.data
    )


def decode_update(raw: bytes) -> Tuple[RecordUpdate, bytes]:
    """Parse one update from ``raw``; returns (update, remaining bytes)."""
    if len(raw) < 10:
        raise CacheError("truncated record update")
    region_id = raw[0]
    index = int.from_bytes(raw[1:3], "little")
    version = int.from_bytes(raw[3:7], "little")
    writer = raw[7]
    length = int.from_bytes(raw[8:10], "little")
    if len(raw) < 10 + length:
        raise CacheError("record update data truncated")
    data = raw[10 : 10 + length]
    return RecordUpdate(region_id, index, version, writer, data), raw[10 + length :]


class _Record:
    """One record replica: data plus the two guard counters."""

    __slots__ = ("c1", "c2", "data", "writer")

    def __init__(self, size: int):
        self.c1 = 0
        self.c2 = 0
        self.data = bytearray(size)
        self.writer = 0


class NetworkCache:
    """One node's replica of the network cache."""

    #: Bytes the NIC DMA engine writes per apply step.
    APPLY_CHUNK = 16
    #: Nanoseconds per apply step (SRAM write burst).
    APPLY_STEP_NS = 40
    #: Reader retry backoff when a record is mid-update.
    RETRY_NS = 100

    def __init__(self, sim: Simulator, node_id: int):
        self.sim = sim
        self.node_id = node_id
        self.counters = Counter()
        self._regions: Dict[int, RegionSpec] = {}
        self._by_name: Dict[str, RegionSpec] = {}
        #: region id -> index -> record, filled on first touch: most of
        #: a region (all 256 semaphores, as a rule) is never written
        self._records: Dict[int, Dict[int, _Record]] = {}
        #: replication hook: called with each local RecordUpdate
        self.on_local_write: Optional[Callable[[RecordUpdate], None]] = None
        #: hook: called after a region is defined locally
        self.on_region_defined: Optional[Callable[[RegionSpec], None]] = None

    # -------------------------------------------------------------- regions
    def define_region(self, spec: RegionSpec, announce: bool = True) -> None:
        """Create a region locally (replication announces it to peers)."""
        existing = self._regions.get(spec.region_id)
        if existing is not None:
            if existing != spec:
                raise CacheError(
                    f"region id {spec.region_id} redefined with a different shape"
                )
            return
        if spec.name in self._by_name:
            raise CacheError(f"region name {spec.name!r} already in use")
        self._regions[spec.region_id] = spec
        self._by_name[spec.name] = spec
        self._records[spec.region_id] = {}
        if announce and self.on_region_defined is not None:
            self.on_region_defined(spec)

    def region(self, name: str) -> RegionSpec:
        spec = self._by_name.get(name)
        if spec is None:
            raise CacheError(f"unknown region {name!r}")
        return spec

    def has_region(self, name: str) -> bool:
        return name in self._by_name

    def region_of(self, region_id: int) -> Optional[RegionSpec]:
        """The region with id ``region_id``, or None if not defined here."""
        return self._regions.get(region_id)

    def regions(self) -> List[RegionSpec]:
        return sorted(self._regions.values(), key=lambda s: s.region_id)

    @property
    def size_bytes(self) -> int:
        return sum(s.size_bytes for s in self._regions.values())

    def _padded(self, region_id: int, data: bytes) -> bytes:
        """``data`` padded out to the region's record size; the one
        check that a record can hold it (``CacheError`` if not)."""
        size = self._regions[region_id].record_size
        if len(data) > size:
            raise CacheError(f"data ({len(data)}B) exceeds record size {size}")
        return bytes(data).ljust(size, b"\x00")

    def _record(self, region_id: int, index: int) -> _Record:
        records = self._records.get(region_id)
        if records is None:
            raise CacheError(f"unknown region id {region_id}")
        rec = records.get(index)
        if rec is None:
            spec = self._regions[region_id]
            if not 0 <= index < spec.n_records:
                raise CacheError(f"record index {index} out of range")
            rec = records[index] = _Record(spec.record_size)
        return rec

    # ---------------------------------------------------------------- write
    def write(self, region_name: str, index: int, data: bytes) -> RecordUpdate:
        """Local write ("just write", slide 9): seqlock-guarded, then
        handed to replication."""
        spec = self.region(region_name)
        rec = self._record(spec.region_id, index)
        padded = self._padded(spec.region_id, data)
        version = max(rec.c1, rec.c2) + 1
        rec.c1 = version
        rec.data[:] = padded
        rec.writer = self.node_id
        rec.c2 = version
        self.counters.incr("local_writes")
        update = RecordUpdate(spec.region_id, index, version, self.node_id, padded)
        if self.on_local_write is not None:
            self.on_local_write(update)
        return update

    # ----------------------------------------------------------------- read
    def read_naive(self, region_name: str, index: int) -> bytes:
        """Read ignoring the counters — may return torn data (ablation)."""
        spec = self.region(region_name)
        rec = self._record(spec.region_id, index)
        self.counters.incr("naive_reads")
        return bytes(rec.data)

    def try_read(self, region_name: str, index: int) -> Tuple[bool, bytes, int]:
        """One seqlock attempt: (stable?, data, version)."""
        spec = self.region(region_name)
        rec = self._record(spec.region_id, index)
        first = rec.c1
        last = rec.c2
        if first != last:
            return False, b"", 0
        data = bytes(rec.data)
        if rec.c1 != first:
            return False, b"", 0
        return True, data, first

    def read(
        self, region_name: str, index: int
    ) -> Generator:
        """Slide-9 read protocol as a simulation process.

        Yield from this inside a process::

            data = yield from cache.read("config", 3)
        """
        while True:
            ok, data, _version = self.try_read(region_name, index)
            if ok:
                self.counters.incr("reads")
                return data
            self.counters.incr("read_retries")
            yield self.sim.timeout(self.RETRY_NS)

    # ---------------------------------------------------------------- apply
    def should_apply(self, update: RecordUpdate) -> bool:
        """Last-writer-wins ordering on (version, writer id)."""
        rec = self._record(update.region_id, update.index)
        current = (max(rec.c1, rec.c2), rec.writer)
        incoming = (update.version, update.writer)
        return incoming > current

    def apply_update(
        self, update: RecordUpdate, then: Callable[[bool], None]
    ) -> None:
        """Apply a peer's write the way the DMA engine does: first
        counter, data in bursts, last counter.  ``then`` is called with
        whether the update landed, once the last burst is written (at
        once for a stale update, or one longer than its record, which
        leaves the record untouched)."""
        if not self.should_apply(update):
            self.counters.incr("stale_updates")
            then(False)
            return
        try:
            padded = self._padded(update.region_id, update.data)
        except CacheError:
            self.counters.incr("oversized_updates")
            then(False)
            return
        rec = self._record(update.region_id, update.index)
        rec.c1 = update.version
        rec.writer = update.writer
        self._burst(rec, update.version, padded, 0, then)

    def _burst(self, rec: _Record, version: int, padded: bytes, off: int,
               then: Callable[[bool], None]) -> None:
        """Write the burst at ``off``, or finish the apply past the end."""
        if rec.c1 != version:
            # A newer local write overtook this apply mid-flight; its
            # data must not be damaged by our remaining bursts.
            self.counters.incr("overtaken_applies")
            then(False)
            return
        if off >= len(padded):
            rec.c2 = version
            self.counters.incr("applied_updates")
            then(True)
            return
        rec.data[off : off + self.APPLY_CHUNK] = padded[off : off + self.APPLY_CHUNK]
        self.sim.call_in(self.APPLY_STEP_NS, self._burst, rec, version, padded,
                         off + self.APPLY_CHUNK, then)

    def apply_update_atomic(self, update: RecordUpdate) -> bool:
        """Instant apply (used by snapshot refresh, where the receiving
        node is not yet serving readers)."""
        if not self.should_apply(update):
            self.counters.incr("stale_updates")
            return False
        rec = self._record(update.region_id, update.index)
        padded = self._padded(update.region_id, update.data)
        rec.c1 = update.version
        rec.writer = update.writer
        rec.data[:] = padded
        rec.c2 = update.version
        self.counters.incr("applied_updates")
        return True

    # ------------------------------------------------------------- snapshot
    def snapshot(self) -> bytes:
        """Serialize every region spec and record (assimilation refresh)."""
        parts: List[bytes] = []
        specs = self.regions()
        parts.append(len(specs).to_bytes(2, "little"))
        for spec in specs:
            name_b = spec.name.encode("utf-8")
            parts.append(
                bytes([spec.region_id, len(name_b)])
                + name_b
                + spec.n_records.to_bytes(4, "little")
                + spec.record_size.to_bytes(2, "little")
            )
        for spec in specs:
            for idx, rec in sorted(self._records[spec.region_id].items()):
                version = max(rec.c1, rec.c2)
                if version == 0:
                    continue  # read, never written; skip for compactness
                parts.append(
                    encode_update(
                        RecordUpdate(
                            spec.region_id, idx, version, rec.writer, bytes(rec.data)
                        )
                    )
                )
        return b"".join(parts)

    def apply_snapshot(self, raw: bytes) -> int:
        """Install a snapshot; returns the number of records applied."""
        if len(raw) < 2:
            raise CacheError("truncated snapshot")
        n_specs = int.from_bytes(raw[:2], "little")
        cursor = raw[2:]
        for _ in range(n_specs):
            # Row: region(1) name_len(1) name n_records(4) record_size(2).
            if len(cursor) < 2 or len(cursor) < 8 + cursor[1]:
                raise CacheError("truncated snapshot region table")
            region_id, name_len = cursor[0], cursor[1]
            try:
                name = cursor[2 : 2 + name_len].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CacheError("snapshot region name is not UTF-8") from exc
            rest = cursor[2 + name_len :]
            n_records = int.from_bytes(rest[:4], "little")
            record_size = int.from_bytes(rest[4:6], "little")
            self.define_region(
                RegionSpec(region_id, name, n_records, record_size), announce=False
            )
            cursor = rest[6:]
        applied = 0
        while cursor:
            update, cursor = decode_update(cursor)
            if self.apply_update_atomic(update):
                applied += 1
        self.counters.incr("snapshots_applied")
        return applied
