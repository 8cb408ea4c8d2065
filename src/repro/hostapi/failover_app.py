"""A checkpointing application demonstrating no-loss failover (slide 19).

:class:`CheckpointedSequenceApp` is the canonical AmpNet application
shape: a work loop that checkpoints each completed unit into the network
cache and only *acknowledges* the unit (to its notional client) when the
checkpoint's ring tour confirms.  The recovery rule is the paper's: read
the replicated region, resume after the newest checkpoint.

Bench F9 and the failover example run this app in a control group, kill
the primary mid-stream, and verify the invariant that makes "no loss of
data" precise:

    every acknowledged sequence number is <= the sequence number the new
    primary resumes from, and the sequence never skips or repeats an
    acknowledged value.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, TYPE_CHECKING

from ..netcache import RegionSpec
from ..kernel import GroupApp

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel import ControlGroup
    from ..node import AmpNode

__all__ = ["CheckpointedSequenceApp", "SequenceLedger", "APP_REGION"]

#: Default checkpoint region for the demo app.
APP_REGION = RegionSpec(region_id=40, name="app_sequence", n_records=8,
                        record_size=16)

_HEADER_RECORD = 0
_FMT = "<QQ"  # (sequence, payload checksum)


@dataclass
class SequenceLedger:
    """The "client ledger": sequence numbers whose ack reached the client.

    Shared across the group's app instances in a simulation (the client
    is outside the cluster and survives every failure).
    """

    acked: List[int] = field(default_factory=list)
    produced_by: List[Tuple[int, int]] = field(default_factory=list)

    def ack(self, seq: int, node_id: int) -> None:
        self.acked.append(seq)
        self.produced_by.append((seq, node_id))

    @property
    def last_acked(self) -> int:
        return self.acked[-1] if self.acked else 0

    def verify_no_loss_no_fork(self) -> None:
        """Raise AssertionError unless the acked sequence is sane.

        Acked values must be strictly increasing with no duplicates (no
        fork: two primaries never ack the same or out-of-order work).  A
        gap is legal only across a primary change — it is a unit that was
        in flight when the old primary died and was therefore never
        acknowledged to the client.
        """
        assert len(set(self.acked)) == len(self.acked), "duplicate ack"
        assert self.acked == sorted(self.acked), "acks out of order"
        for (s1, n1), (s2, n2) in zip(self.produced_by, self.produced_by[1:]):
            assert s2 > s1, "sequence regressed"
            if s2 != s1 + 1:
                assert n2 != n1, f"gap {s1}->{s2} within one primary"


class CheckpointedSequenceApp(GroupApp):
    """Produces an ever-increasing sequence, one checkpoint per unit."""

    #: simulated work time per unit
    WORK_NS = 50_000

    def __init__(self, node: "AmpNode", group: "ControlGroup",
                 ledger: Optional[SequenceLedger] = None):
        super().__init__(node, group)
        self.ledger = ledger if ledger is not None else SequenceLedger()
        self.seq = 0
        self.recovered_from = 0

    # ----------------------------------------------------------- recovery
    def recover(self) -> None:
        """Application rules of recovery: resume after the newest
        replicated checkpoint."""
        ok, data, _v = self.node.cache.try_read(APP_REGION.name, _HEADER_RECORD)
        if ok and len(data) >= struct.calcsize(_FMT):
            seq, _check = struct.unpack_from(_FMT, data)
            self.seq = seq
            self.recovered_from = seq

    # ---------------------------------------------------------------- run
    def run(self):
        sim = self.node.sim
        while not self.stopped():
            yield sim.timeout(self.WORK_NS)
            if self.stopped():
                return  # demoted or crashed; a peer will take over
            self.seq += 1
            record = struct.pack(_FMT, self.seq, self.seq * 2654435761 % (1 << 64))
            self.node.cache.write(APP_REGION.name, _HEADER_RECORD, record)
            handle = self.node.replicator.last_handle
            if handle is not None:
                # Durability gate: ack only after the ring confirms.
                yield handle.delivered
            if self.stopped():
                return
            self.ledger.ack(self.seq, self.node.node_id)
