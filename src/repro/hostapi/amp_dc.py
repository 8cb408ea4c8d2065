"""AmpDC registered host memory regions (slides 11-12).

Hosts register memory regions with the NIC; remote nodes then DMA
directly into them ("fine grain multiplexed DMA channels" between "AmpDC
registered memory regions in host computer").  Slide 10's coherence rule
is modelled too: host-visible region bytes are written through on
arrival — there is no host-side cache that could go stale.

RDMA writes ride the reliable messenger on the RDMA channel, so they
inherit at-least-once delivery with idempotent application: the paper's
no-data-loss property extends to host memory.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from ..sim import Counter
from ..transport import Channel

if TYPE_CHECKING:  # pragma: no cover
    from ..node import AmpNode
    from ..transport import MessageHandle

__all__ = ["AmpDC", "HostRegion", "RegionError"]


class RegionError(Exception):
    """Unknown region or out-of-bounds access."""


class HostRegion:
    """One registered region of host memory."""

    def __init__(self, name: str, size: int):
        if size <= 0:
            raise RegionError("region size must be positive")
        self.name = name
        self.data = bytearray(size)
        self.writes = 0
        #: host-side listeners poked after each remote write
        self.on_write: List[Callable[[int, int], None]] = []

    def __len__(self) -> int:
        return len(self.data)

    def read(self, offset: int = 0, length: Optional[int] = None) -> bytes:
        end = len(self.data) if length is None else offset + length
        if not 0 <= offset <= end <= len(self.data):
            raise RegionError(f"read [{offset}:{end}] outside region {self.name}")
        return bytes(self.data[offset:end])

    def _apply(self, offset: int, payload: bytes) -> None:
        if offset + len(payload) > len(self.data):
            raise RegionError(
                f"write at {offset}+{len(payload)} overflows region {self.name}"
            )
        self.data[offset : offset + len(payload)] = payload
        self.writes += 1
        for fn in self.on_write:
            fn(offset, len(payload))


class AmpDC:
    """Per-node registered-region service."""

    def __init__(self, node: "AmpNode"):
        self.node = node
        self.counters = Counter()
        self._regions: Dict[str, HostRegion] = {}
        node.messenger.on_message(Channel.RDMA, self._on_rdma)

    # -------------------------------------------------------------- regions
    def register_region(self, name: str, size: int) -> HostRegion:
        if name in self._regions:
            raise RegionError(f"region {name!r} already registered")
        if len(name.encode("utf-8")) > 255:
            raise RegionError("region name too long")
        region = HostRegion(name, size)
        self._regions[name] = region
        self.counters.incr("regions_registered")
        return region

    def region(self, name: str) -> HostRegion:
        region = self._regions.get(name)
        if region is None:
            raise RegionError(f"region {name!r} not registered")
        return region

    # ----------------------------------------------------------------- rdma
    def rdma_write(
        self, dst: int, region_name: str, offset: int, payload: bytes
    ) -> "MessageHandle":
        """Write ``payload`` into ``region_name`` at ``offset`` on ``dst``.

        The returned handle's ``delivered`` event fires when the write is
        confirmed on the ring.
        """
        if offset < 0:
            raise RegionError("negative offset")
        name_b = region_name.encode("utf-8")
        header = bytes([len(name_b)]) + name_b + offset.to_bytes(4, "little")
        self.counters.incr("rdma_writes")
        return self.node.messenger.send(dst, header + payload, Channel.RDMA)

    def _on_rdma(self, src: int, payload: bytes, channel: int) -> None:
        name_len = payload[0]
        name = payload[1 : 1 + name_len].decode("utf-8")
        offset = int.from_bytes(payload[1 + name_len : 5 + name_len], "little")
        data = payload[5 + name_len :]
        region = self._regions.get(name)
        if region is None:
            self.counters.incr("rdma_unknown_region")
            return
        region._apply(offset, data)
        self.counters.incr("rdma_applied")
