"""Named, seeded random streams.

Every stochastic component of the AmpNet model draws from its *own* named
stream derived from the simulator's master seed.  Adding a new component
(or reordering calls inside one) therefore never shifts the random sequence
seen by any other component — a property the paper-shape benchmarks depend
on when comparing AmpNet against baselines under *identical* workloads.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

__all__ = ["SeededStreams", "derive_seed"]


def derive_seed(master: int, name: str) -> int:
    """Derive a 64-bit child seed from a master seed and a stream name.

    Uses BLAKE2b so the mapping is stable across Python versions and
    platforms (``hash()`` is salted per-process and unusable here).
    """
    digest = hashlib.blake2b(
        name.encode("utf-8"),
        digest_size=8,
        key=master.to_bytes(16, "little", signed=False),
    ).digest()
    return int.from_bytes(digest, "little")


class SeededStreams:
    """Factory and registry of named :class:`random.Random` streams."""

    def __init__(self, master_seed: int = 0):
        if master_seed < 0:
            raise ValueError("master seed must be non-negative")
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self.master_seed, name))
            self._streams[name] = rng
        return rng

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SeededStreams master={self.master_seed} "
            f"streams={sorted(self._streams)}>"
        )
