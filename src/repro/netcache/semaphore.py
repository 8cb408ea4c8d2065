"""Network semaphores (slide 10).

    "Write conflicts are handled at the user level using AmpNet locking
     primitives implemented in software (network semaphores)."

The lock state lives in a dedicated network-cache region, so it is
replicated everywhere and survives any failure the ring survives.  The
serialization point is the *home node* — the lowest-id roster member.
Requests and grants travel as D64 Atomic MicroPackets (the optional
fixed type of slide 4: ring-ordered 64-bit atomic operations):

* ``acquire`` sends an ACQ cell to the home node.  The home performs the
  atomic test-and-set against its replica: free -> writes the requester
  as owner (a replicated cache write) and answers with a GRANT cell;
  held -> the requester joins the home's FIFO wait queue.
* ``release`` sends a REL cell; the home either hands the lock to the
  queue head (another cache write + GRANT) or writes it free.
* A GRANT that finds no one waiting — the acquire timed out while the
  request sat in the home's queue — is handed straight back through the
  release path, so an abandoned request cannot strand the lock.

Failover: the home's wait queue is the only soft state.  When the roster
changes, waiters re-send their pending requests to the new home, which
reconstructs the queue; the *owner* is never lost because it is in the
replicated cache region.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Generator, Optional, TYPE_CHECKING

from ..micropacket import Flags, MicroPacket, MicroPacketType
from ..rostering import Roster
from ..sim import Counter, Event
from .network_cache import RegionSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..node import AmpNode

__all__ = ["SemaphoreService", "SEM_REGION", "SemaphoreError"]

#: Reserved cache region holding semaphore owners.
SEM_REGION = RegionSpec(region_id=250, name="_semaphores", n_records=256,
                        record_size=8)

_OP_ACQ = 1
_OP_REL = 2
_OP_GRANT = 3

#: D64 channel used for semaphore traffic.
_SEM_CHANNEL = 13

_FREE = 0xFF  # owner byte value meaning "unowned"


class SemaphoreError(Exception):
    """Misuse: releasing a lock we do not hold, bad semaphore id."""


class SemaphoreService:
    """Network semaphore endpoint for one node."""

    def __init__(self, node: "AmpNode"):
        self.node = node
        self.sim = node.sim
        self.counters = Counter()
        node.cache.define_region(SEM_REGION, announce=False)

        #: home-side FIFO wait queues: sem id -> requester ids
        self._wait_queues: Dict[int, Deque[int]] = {}
        #: requester-side pending acquires: sem id -> grant event, which
        #: succeeds True on a grant and False when the acquire times out
        self._pending: Dict[int, Event] = {}
        self.held: set = set()

        node.register_handler(MicroPacketType.D64_ATOMIC, _SEM_CHANNEL, self._on_cell)
        node.ring_up_listeners.append(self._on_ring_up)
        node.crash_listeners.append(self._on_crash)

    def _on_crash(self) -> None:
        """Re-reserve our region in the node's fresh replica (locks we
        held die with us; the new home's sweep frees them)."""
        self.node.cache.define_region(SEM_REGION, announce=False)
        self._wait_queues.clear()
        self._pending.clear()
        self.held.clear()

    # ------------------------------------------------------------- helpers
    def _home(self) -> Optional[int]:
        roster = self.node.roster
        if roster is None:
            return None
        return min(roster.members)

    def _is_home(self) -> bool:
        return self._home() == self.node.node_id

    def _owner_of(self, sem_id: int) -> int:
        # Record layout: byte 0 = owner id, byte 1 = owned flag (so that
        # node 0 as owner is distinguishable from a never-written record).
        ok, data, _v = self.node.cache.try_read(SEM_REGION.name, sem_id)
        if not ok or len(data) < 2 or data[1] == 0:
            return _FREE
        return data[0]

    def _write_owner(self, sem_id: int, owner: int) -> None:
        owned = 0 if owner == _FREE else 1
        record = bytes([owner & 0xFF, owned]) + b"\x00" * 6
        self.node.cache.write(SEM_REGION.name, sem_id, record)

    def _cell(self, dst: int, op: int, sem_id: int, arg: int = 0) -> MicroPacket:
        return MicroPacket(
            ptype=MicroPacketType.D64_ATOMIC,
            src=self.node.node_id,
            dst=dst,
            channel=_SEM_CHANNEL,
            flags=Flags.PRIORITY,
            payload=bytes([op]) + sem_id.to_bytes(2, "little") + bytes([arg]),
        )

    # ---------------------------------------------------------------- user
    def acquire(self, sem_id: int, timeout_ns: Optional[int] = None) -> Generator:
        """Acquire a semaphore; yield from inside a process.

        Returns True on grant, False once ``timeout_ns`` passes first.
        """
        if not 0 <= sem_id < SEM_REGION.n_records:
            raise SemaphoreError(f"semaphore id {sem_id} out of range")
        if sem_id in self.held:
            raise SemaphoreError(f"semaphore {sem_id} already held")
        if sem_id in self._pending:
            raise SemaphoreError(f"acquire of {sem_id} already pending")
        grant = self.sim.event()
        self._pending[sem_id] = grant
        self.counters.incr("acquire_requests")
        self._send_request(sem_id)
        if timeout_ns is not None:
            self.sim.call_in(timeout_ns, self._expire, sem_id, grant)
        granted = yield grant
        if not granted:
            self.counters.incr("acquire_timeouts")
        return granted

    def _expire(self, sem_id: int, grant: Event) -> None:
        if grant.triggered:
            return
        if self._pending.get(sem_id) is grant:
            del self._pending[sem_id]
        grant.succeed(False)

    def release(self, sem_id: int) -> None:
        if sem_id not in self.held:
            raise SemaphoreError(f"semaphore {sem_id} not held")
        self.held.discard(sem_id)
        self.counters.incr("releases")
        self._send_release(sem_id)

    def _send_release(self, sem_id: int) -> None:
        if self._is_home():
            self._home_release(sem_id, self.node.node_id)
        else:
            self.node.mac.send(self._cell(self._home(), _OP_REL, sem_id))

    def _send_request(self, sem_id: int) -> None:
        home = self._home()
        if home is None:
            return  # ring down: re-sent on ring up
        if home == self.node.node_id:
            self._home_acquire(sem_id, self.node.node_id)
        else:
            self.node.mac.send(self._cell(home, _OP_ACQ, sem_id))

    # ---------------------------------------------------------------- home
    def _home_acquire(self, sem_id: int, requester: int) -> None:
        owner = self._owner_of(sem_id)
        if owner == _FREE:
            self._write_owner(sem_id, requester)
            self.counters.incr("grants")
            self._grant(sem_id, requester)
        else:
            queue = self._wait_queues.setdefault(sem_id, deque())
            if requester not in queue and requester != owner:
                queue.append(requester)
                self.counters.incr("queued")

    def _home_release(self, sem_id: int, releaser: int) -> None:
        owner = self._owner_of(sem_id)
        if owner != releaser:
            self.counters.incr("bad_releases")
            return
        queue = self._wait_queues.get(sem_id, deque())
        # Skip waiters that left the roster while queued.
        roster = self.node.roster
        live = set(roster.members) if roster else set()
        while queue:
            nxt = queue.popleft()
            if nxt in live:
                self._write_owner(sem_id, nxt)
                self.counters.incr("grants")
                self._grant(sem_id, nxt)
                return
        self._write_owner(sem_id, _FREE)

    def _grant(self, sem_id: int, requester: int) -> None:
        if requester == self.node.node_id:
            self._on_grant(sem_id)
        else:
            self.node.mac.send(self._cell(requester, _OP_GRANT, sem_id))

    # ------------------------------------------------------------- receive
    def _on_cell(self, pkt: MicroPacket, frame) -> None:
        op = pkt.payload[0]
        sem_id = int.from_bytes(pkt.payload[1:3], "little")
        if op == _OP_ACQ and self._is_home():
            self._home_acquire(sem_id, pkt.src)
        elif op == _OP_REL and self._is_home():
            self._home_release(sem_id, pkt.src)
        elif op == _OP_GRANT:
            self._on_grant(sem_id)

    def _on_grant(self, sem_id: int) -> None:
        grant = self._pending.pop(sem_id, None)
        if grant is not None:
            self.held.add(sem_id)
            grant.succeed(True)
        elif sem_id not in self.held:
            # Nobody waits for it any more: hand the lock straight back.
            self.counters.incr("grants_returned")
            self._send_release(sem_id)
        self.counters.incr("grants_received")

    # ------------------------------------------------------------ failover
    def _on_ring_up(self, roster: Roster) -> None:
        # New home: waiters re-issue their requests; stale queues die with
        # the old home's soft state.
        if not self._is_home():
            self._wait_queues.clear()
        else:
            self._break_dead_owners(roster)
        for sem_id in list(self._pending):
            self._send_request(sem_id)

    def _break_dead_owners(self, roster: Roster) -> None:
        """Home sweep: locks held by departed nodes are forcibly freed.

        The owner is replicated state, so the new home sees it; waiters
        re-request right after ring-up, rebuilding the queue before any
        new grants can starve them.
        """
        live = set(roster.members)
        for sem_id in range(SEM_REGION.n_records):
            owner = self._owner_of(sem_id)
            if owner != _FREE and owner not in live:
                self.counters.incr("locks_broken")
                self._write_owner(sem_id, _FREE)
