"""AmpFiles: replicated files in the network cache (slide 12).

A file is stored as a dynamically created cache region: record 0 is a
header (length, version), the following records hold the content in
fixed-size chunks.  Region definitions and record writes replicate via
the cache machinery, so every node can read every file locally — and a
node that (re)joins receives all files with its cache refresh: "the
first network database created contains all the information required to
operate the network" (slide 2) extends to user files.
"""

from __future__ import annotations

import struct
from typing import Dict, Generator, List, Optional, TYPE_CHECKING

from ..netcache import CacheError, NetworkCache, RegionSpec
from ..sim import Counter

if TYPE_CHECKING:  # pragma: no cover
    from ..node import AmpNode

__all__ = ["AmpFiles", "FileError"]


class FileError(Exception):
    """Unknown file, oversized write, exhausted region ids."""


#: Region ids 64..247 are reserved for AmpFiles allocations.  Ids are
#: striped by creating node (id % 16 == node id % 16) so two nodes
#: creating files concurrently can never collide on a region id.
_FILE_REGION_BASE = 64
_FILE_REGION_LIMIT = 248
_FILE_REGION_STRIDE = 16

#: Content bytes per record.
CHUNK = 64

_HEADER_FMT = "<IH"  # (length, flags)


class AmpFiles:
    """Per-node replicated file store."""

    #: Maximum file size (region records are fixed at creation).
    MAX_RECORDS = 512

    def __init__(self, node: "AmpNode"):
        self.node = node
        self.counters = Counter()

    # -------------------------------------------------------------- naming
    @staticmethod
    def _region_name(name: str) -> str:
        return f"file:{name}"

    def _region_for(self, name: str) -> RegionSpec:
        cache = self.node.cache
        rname = self._region_name(name)
        if not cache.has_region(rname):
            raise FileError(f"no such file {name!r}")
        return cache.region(rname)

    def _allocate_region(self, name: str, n_records: int) -> RegionSpec:
        cache = self.node.cache
        used = {spec.region_id for spec in cache.regions()}
        lane = self.node.node_id % _FILE_REGION_STRIDE
        for region_id in range(
            _FILE_REGION_BASE + lane, _FILE_REGION_LIMIT, _FILE_REGION_STRIDE
        ):
            if region_id not in used:
                spec = RegionSpec(
                    region_id, self._region_name(name), n_records, CHUNK
                )
                cache.define_region(spec)  # announced to peers
                return spec
        raise FileError("file region ids exhausted")

    # ----------------------------------------------------------------- api
    def write_file(self, name: str, content: bytes) -> None:
        """Create or overwrite a replicated file."""
        if not name or len(name) > 200:
            raise FileError("bad file name")
        needed = 1 + max(1, -(-len(content) // CHUNK))
        if needed > self.MAX_RECORDS:
            raise FileError(
                f"file too large: {len(content)}B needs {needed} records"
            )
        cache = self.node.cache
        rname = self._region_name(name)
        if cache.has_region(rname):
            spec = cache.region(rname)
            if needed > spec.n_records:
                raise FileError(
                    f"file grew past its region ({needed} > {spec.n_records} records)"
                )
        else:
            # Allocate with headroom so files can grow in place.
            records = min(self.MAX_RECORDS, max(needed * 2, 8))
            spec = self._allocate_region(name, records)
        header = struct.pack(_HEADER_FMT, len(content), 0)
        for idx in range(1, needed):
            chunk = content[(idx - 1) * CHUNK : idx * CHUNK]
            cache.write(spec.name, idx, chunk)
        cache.write(spec.name, 0, header)  # header last: commit point
        self.counters.incr("writes")

    def read_file(self, name: str) -> Generator:
        """Process: seqlock-read a file from the local replica."""
        spec = self._region_for(name)
        cache = self.node.cache
        header = yield from cache.read(spec.name, 0)
        length, _flags = struct.unpack_from(_HEADER_FMT, header)
        out = bytearray()
        idx = 1
        while len(out) < length:
            chunk = yield from cache.read(spec.name, idx)
            out.extend(chunk)
            idx += 1
        self.counters.incr("reads")
        return bytes(out[:length])

    def read_file_now(self, name: str) -> bytes:
        """Non-blocking read; raises FileError if any record is unstable."""
        spec = self._region_for(name)
        cache = self.node.cache
        ok, header, _v = cache.try_read(spec.name, 0)
        if not ok:
            raise FileError(f"file {name!r} is mid-update")
        length, _flags = struct.unpack_from(_HEADER_FMT, header)
        out = bytearray()
        idx = 1
        while len(out) < length:
            ok, chunk, _v = cache.try_read(spec.name, idx)
            if not ok:
                raise FileError(f"file {name!r} is mid-update")
            out.extend(chunk)
            idx += 1
        self.counters.incr("reads")
        return bytes(out[:length])

    def list_files(self) -> List[str]:
        return sorted(
            spec.name[len("file:") :]
            for spec in self.node.cache.regions()
            if spec.name.startswith("file:")
        )

