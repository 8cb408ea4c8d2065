"""Baseline failover: primary/backup over TCP with timeout detection.

The conventional-cluster contrast for slide 19.  The baseline stack:

* failure detection by application heartbeats over the LAN — typical
  production settings of the era: 100 ms to seconds of interval, with
  several misses required before declaring death (vs AmpNet's hardware
  carrier sense and 1 ms kernel heartbeats);
* *asynchronous* primary->backup replication: the primary acknowledges
  a client write after its local commit and batches replication, which
  is how such systems achieved acceptable throughput — and exactly why
  they lose data: everything acked but not yet replicated dies with the
  primary.

:class:`TcpFailoverPair` runs a synthetic write workload and reports
detection latency, takeover latency and acked-but-lost writes, the three
numbers bench F9 compares against the AmpNet control group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..sim import Counter, Simulator
from .ethernet import EthernetFabric

__all__ = ["TcpFailoverPair", "FailoverReport"]

# Typical conventional-cluster policy.
#: Application heartbeat period (100 ms was a common default).
HEARTBEAT_INTERVAL_NS = 100_000_000
#: Declared dead after this many missed beats.
MISSED_BEATS = 3
#: Replication batch flush period (async replication).
REPLICATION_INTERVAL_NS = 10_000_000
#: Client write arrival period.
WRITE_INTERVAL_NS = 1_000_000
#: Bytes per write record.
RECORD_BYTES = 64


@dataclass
class FailoverReport:
    crash_time: int = 0
    detected_at: Optional[int] = None
    takeover_at: Optional[int] = None
    acked: int = 0
    replicated: int = 0
    resumed_from: int = 0

    @property
    def detection_ns(self) -> Optional[int]:
        if self.detected_at is None:
            return None
        return self.detected_at - self.crash_time

    @property
    def failover_ns(self) -> Optional[int]:
        if self.takeover_at is None:
            return None
        return self.takeover_at - self.crash_time

    @property
    def lost_writes(self) -> int:
        """Writes acknowledged to the client but absent on the backup."""
        return max(0, self.acked - self.resumed_from)


class TcpFailoverPair:
    """Primary (node 0) and backup (node 1) on a baseline LAN."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.fabric = EthernetFabric(sim, 2)
        self.counters = Counter()
        self.report = FailoverReport()

        self._primary_alive = True
        self._seq = 0              # primary's committed sequence
        self._backup_seq = 0       # backup's replicated sequence
        self._last_beat = sim.now
        self._pending_batch: List[int] = []

        sim.call_in(WRITE_INTERVAL_NS, self._primary_write)
        sim.call_in(REPLICATION_INTERVAL_NS, self._primary_replicate)
        sim.call_in(HEARTBEAT_INTERVAL_NS, self._primary_heartbeat)
        sim.call_in(HEARTBEAT_INTERVAL_NS, self._backup_check)
        self.fabric.nodes[1].on_receive = self._backup_receive

    # -------------------------------------------------------------- primary
    # Each primary timer re-arms itself and stops once the primary is dead.
    def _primary_write(self) -> None:
        if not self._primary_alive:
            return
        self._seq += 1
        # Async commit: ack the client immediately after local write.
        self.report.acked = self._seq
        self._pending_batch.append(self._seq)
        self.counters.incr("writes_acked")
        self.sim.call_in(WRITE_INTERVAL_NS, self._primary_write)

    def _primary_replicate(self) -> None:
        if not self._primary_alive:
            return
        if self._pending_batch:
            batch = self._pending_batch
            self._pending_batch = []
            size = RECORD_BYTES * len(batch)
            self.fabric.nodes[0].send(1, size, tag=("repl", batch[-1]))
            self.counters.incr("batches_sent")
        self.sim.call_in(REPLICATION_INTERVAL_NS, self._primary_replicate)

    def _primary_heartbeat(self) -> None:
        if not self._primary_alive:
            return
        self.fabric.nodes[0].send(1, 64, tag=("hb", None))
        self.sim.call_in(HEARTBEAT_INTERVAL_NS, self._primary_heartbeat)

    def crash_primary(self) -> None:
        """Kill the primary (with its un-replicated batch)."""
        self._primary_alive = False
        self.report.crash_time = self.sim.now
        self.counters.incr("crashes")

    # --------------------------------------------------------------- backup
    def _backup_receive(self, frame) -> None:
        kind, value = frame.tag
        if kind == "hb":
            self._last_beat = self.sim.now
        elif kind == "repl":
            self._backup_seq = max(self._backup_seq, value)
            self.report.replicated = self._backup_seq

    def _backup_check(self) -> None:
        """Once per heartbeat period: declare the primary dead after
        ``MISSED_BEATS`` silent periods and take over."""
        now = self.sim.now
        if now - self._last_beat > HEARTBEAT_INTERVAL_NS * MISSED_BEATS:
            self.report.detected_at = now
            # Takeover: replay the replicated log, open for business.
            self.report.resumed_from = self._backup_seq
            self.report.takeover_at = now
            self.counters.incr("takeovers")
            return
        self.sim.call_in(HEARTBEAT_INTERVAL_NS, self._backup_check)
