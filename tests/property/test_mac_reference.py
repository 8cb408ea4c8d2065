"""The ring MAC's transmit engine against the one it replaced.

``RingMAC`` spends one schedule entry on a transit frame that meets an
idle engine: ``on_frame`` loads the insertion register itself, and the
emit posts no pick for the end of the serialization hold while nothing
is queued behind the frame.  ``ReferenceMAC`` is the engine as it stood
before — queue, kick, pick one event step later, emit, pick again when
the hold ends, three entries whatever the load — with the six methods
that differ copied verbatim over the subclass, so nothing of the fused
path can leak into it (the tests check that its fused-path state is
never touched).  Its pacing naps are the old engine's too: a hub that
shares one schedule entry among the wake-ups armed for a tick, each
guarded by a generation counter that every arm bumps.  ``RingMAC`` posts
its own reusable entry once per distinct gap end and fires only if the
clock still reads the gap end it last armed for — the differential is
the proof that the due-time guard and the generation guard kick at the
same place in the same instants.

Random sequences of arrivals, local sends, source strips, teardowns,
roster installs and carrier flips, under every flow-control setting that
steers a pick, must not be able to tell the two apart: same emissions,
deliveries and tour callbacks at the same instants, same counters, same
controller state, same trace records, same frames left in every queue.
Schedule entries processed are the one thing that must differ.

The operations reach the MAC in one of three ways.  ``outside``: called
between runs, after every entry an earlier instant posted for theirs has
fired.  ``posted``: as entries posted up front, before any entry the
engine posts for that instant — so an operation landing in the instant
of an emit or a hold end is tried on both sides of it.  ``wired``: like
``posted``, but each arrival's entry is posted by a driver a link's
worth of lead ahead of it, as a switch's egress wire would — and for the
fused engine, some of them the 300 ns of a crossing earlier still, as a
switch that reserved the wire on arrival posts them, with the hand-over
instant on the frame (``wire_at``).  An arrival and the pick due at a
hold's end that share an instant were ordered by those posting times;
the fused engine, whose own pick may be posted late and whose arrivals
early, has to reconstruct the order from the instants themselves.

What no mode does is slip an operation in behind a pick the engine
posted *within* the instant — between an arrival and the pick it
kicked.  The fused path has no entry there to be behind: it treats
whatever else reaches the MAC in the instant of a fused load as having
been on the schedule before the pick, which is where link arrivals,
carrier debounces and timers — all posted ahead of their instant — are.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.micropacket import (
    BROADCAST, DmaControl, Flags, MicroPacket, MicroPacketType,
)
from repro.phys import NODE_TRANSIT_NS, SWITCH_LATENCY_NS, Port, frame_for
from repro.phys.frame import Frame
from repro.ring import FlowControlConfig, RingMAC
from repro.rostering import Roster
from repro.sim import Callback, Simulator, Tracer

_PRIORITY = int(Flags.PRIORITY)

#: the MAC under test; frames in transit come from its ring neighbours
NODE = 1
#: run-on after the last operation: several maximal pacing gaps
SETTLE_NS = 200_000


class ReferencePacer:
    """The pacing hub the old engine armed: wake-ups for one tick share
    a schedule entry, posted by the first arm and fanned out in arm
    order; stale ones are told apart by the MAC's generation counter."""

    def __init__(self, sim):
        self.sim = sim
        self.pending = {}
        self._fire_cb = Callback(self._fire, ())

    def arm(self, mac, tick, gen):
        waiters = self.pending.get(tick)
        if waiters is None:
            self.pending[tick] = [(mac, gen)]
            self.sim._post(tick, self._fire_cb)
        else:
            waiters.append((mac, gen))

    def _fire(self):
        for mac, gen in self.pending.pop(self.sim._now):
            mac._pace_fire(gen)


class ReferenceMAC(RingMAC):
    """Queue, kick, pick, emit, pick: the engine before the fused path."""

    def __init__(self, sim, *args, **kwargs):
        super().__init__(sim, *args, **kwargs)
        self._pace_gen = 0
        self._pacer = ReferencePacer(sim)

    def teardown(self, reason: str = "") -> None:
        """Ring down: stop forwarding, surrender in-flight accounting."""
        self._ring_open = False
        self.roster = None
        self._ring_size = 0
        self._tx_link = None
        flushed = len(self._transit) + len(self._transit_priority)
        if flushed:
            self.counters.incr("transit_flushed", flushed)
        self._transit.clear()
        self._transit_priority.clear()
        lost, self._outstanding = list(self._outstanding.values()), {}
        for frame in lost:
            self.controller.tour_lost()
            self.counters.incr("tours_lost")
            if self.on_tour_lost is not None:
                self.on_tour_lost(frame)
        self.tracer.record(
            self.sim.now, "ring_down", self.name, reason=reason, flushed=flushed,
        )

    def _kick(self) -> None:
        if self._tx_busy or self._tx_scheduled or not self._ring_open:
            return
        self._tx_scheduled = True
        # Direct kernel post (see the _post contract in sim/kernel.py).
        sim = self.sim
        sim._post(sim._now, self._tx_step_cb)

    def _tx_step(self) -> None:
        self._tx_scheduled = False
        if not self._ring_open:
            self._tx_busy = False
            return
        frame, inserted = self._pick_frame()
        if frame is None:
            self._tx_busy = False
            sim = self.sim
            gap_end = self.controller.earliest_insert()
            backlog = len(self._insertion) + len(self._priority_insertion)
            if backlog and gap_end > sim._now and not (
                self.controller.window_full()
            ):
                # Pacing gap: wake when it ends unless a kick (transit
                # arrival, ring change) preempts the nap first.  Wakeups
                # are coalesced per tick across every MAC on this sim.
                self._pace_gen += 1
                self._pacer.arm(self, gap_end, self._pace_gen)
            return
        # Insertion-register latency, then occupy the transmitter.
        self._tx_busy = True
        self._tx_frame = frame
        self._tx_inserted = inserted
        sim = self.sim
        sim._post(sim._now + NODE_TRANSIT_NS, self._tx_emit_cb)

    def _tx_emit(self) -> None:
        frame = self._tx_frame
        self._tx_frame = None
        if self._transmit(frame, self._tx_inserted):
            sim = self.sim
            sim._post(sim._now + frame.ser_ns, self._tx_step_cb)
        else:
            # Transmit refused (ring/carrier changed during the register
            # latency): re-pick immediately within this event.
            self._tx_step()

    def _pace_fire(self, gen: int) -> None:
        if gen != self._pace_gen or self._tx_busy or self._tx_scheduled:
            return  # stale timer: the engine moved on since it was armed
        if not self._ring_open:
            return
        # Defer the pick by one event step (same instant), exactly like
        # a kick: arrivals landing on this tick that are already queued
        # behind the hub's entry must still compete for priority before
        # the pick — picking directly from the hub would let a paced
        # MAC jump ahead of same-instant transit traffic.
        self._tx_scheduled = True
        sim = self.sim
        sim._post(sim._now, self._tx_step_cb)

    def on_frame(self, frame: Frame, port: Port) -> None:
        """Entry point for ring traffic arriving from the physical layer."""
        counters = self.counters
        counters.incr("rx_frames")  # the ledger's count (RingMAC.balanced)
        if not self._ring_open or self.roster is None:
            counters.incr("rx_ring_down_drop")
            return
        pkt = frame.packet

        if pkt.src == self.node_id:
            # Source strip: the frame completed its tour of the ring.
            done = self._outstanding.pop(frame.frame_id, None)
            if done is not None:
                self.controller.tour_completed()
                counters.incr("tours_completed")
                if self.on_tour_complete is not None:
                    self.on_tour_complete(frame)
                # The freed window slot may unblock a queued insertion.
                self._kick()
            else:
                counters.incr("stale_strip")
            return

        hops = frame.hops + 1
        frame.hops = hops
        if hops > self._ring_size + 2:
            # Orphan scrub: the inserter left the ring mid-tour.
            counters.incr("orphans_scrubbed")
            return

        if self.capture is not None:
            dma = pkt.dma
            if dma is not None and (
                (
                    dma.dst_segment is not None
                    and dma.dst_segment != self.segment_id
                )
                # Cluster-scoped broadcasts are *both* local traffic on
                # every ring they tour and router-ferried: the gateway
                # captures a copy for spanning-tree fan-out while the
                # frame keeps delivering to local members below.
                or dma.cluster_broadcast
            ):
                counters.incr("rx_captured")
                self.capture(pkt, frame)

        dst = pkt.dst
        if dst == BROADCAST or dst == self.node_id:
            # A routed packet touring this ring on its way to another
            # segment is not local traffic, even when its destination
            # node id collides with ours (each segment has its own 8-bit
            # MAC space).
            dma = pkt.dma
            if (
                dma is None
                or dma.dst_segment is None
                or dma.dst_segment == self.segment_id
            ):
                counters.incr("rx_delivered")
                if self.on_deliver is not None:
                    self.on_deliver(pkt, frame)

        # Source removal: everything keeps circulating back to its source.
        transit = self._transit
        if len(transit) + len(self._transit_priority) >= self.config.transit_capacity:
            counters.incr("transit_overflow_drop")
            self.tracer.record(
                self.sim.now, "transit_drop", self.name, packet=pkt.describe(),
            )
            return
        if pkt.flags & _PRIORITY:
            self._transit_priority.append(frame)
        else:
            transit.append(frame)
            self.controller.observe_transit_depth(len(transit))
        self._kick()


class Wire:
    """Stands in for the tx fibre: logs what the MAC puts on it, and
    takes it from ``port`` the way ``SerialLink.transmit`` does."""

    def __init__(self, sim, log, port):
        self.sim, self.log, self.port = sim, log, port

    def transmit(self, frame):
        if not self.port.carrier_up:
            return False
        self.port.tx_frames += 1
        self.log.append((self.sim.now, "tx", tag_of(frame.packet)))
        return True


def tag_of(packet):
    return int.from_bytes(packet.payload[:4], "little")


def packet(tag, src, dst, priority, size):
    """A fixed cell (``size`` 0) or a DMA packet: 189..791 ns of wire."""
    flags = _PRIORITY if priority else 0
    stamp = tag.to_bytes(4, "little")
    if not size:
        return MicroPacket(ptype=MicroPacketType.DATA, src=src, dst=dst,
                           flags=flags, payload=stamp + bytes(4))
    return MicroPacket(
        ptype=MicroPacketType.DMA, src=src, dst=dst, flags=flags,
        payload=stamp + bytes(size - 4),
        dma=DmaControl(channel=0, offset=0, transfer_id=1))


ROSTERS = {
    "ring4": Roster(1, (0, 1, 2, 3), (0, 0, 0, 0)),
    "ring2": Roster(2, (0, 1), (0, 0)),
    "alone": Roster(3, (NODE,), ()),
    "voted_off": Roster(4, (0, 2), (0, 0)),
}

SIZES = [0, 16, 33, 64]

#: to the instant the last arrival's serialization hold ends, had it met
#: an idle engine: where a pick is due and ties are decided
HOLD_END = "hold end"

#: gaps around the scales that matter: inside one instant, the register
#: latency, one serialization, a pacing nap, and past everything queued
gap = st.one_of(
    st.just(0),
    st.just(HOLD_END),
    st.just(HOLD_END),
    st.integers(0, 40),
    st.sampled_from([NODE_TRANSIT_NS - 1, NODE_TRANSIT_NS, NODE_TRANSIT_NS + 1]),
    st.integers(150, 1_000),
    st.integers(0, 5_000),
    st.integers(0, 70_000),
)

size = st.sampled_from(SIZES)

#: an arrival: priority, size, source, destination — and, for the
#: ``wired`` mode, how long before it the frame was handed to the wire
#: and whether a switch posted its entry a crossing earlier than that
arrival = st.tuples(
    st.just("arrive"), st.booleans(), size, st.sampled_from([0, 2, 3]),
    st.sampled_from([BROADCAST, NODE, 3]),
    st.one_of(st.integers(190, 1_200), st.integers(190, 520)),
    st.sampled_from([0, SWITCH_LATENCY_NS]),
)

mac_ops = st.lists(
    st.tuples(
        gap,
        st.one_of(
            arrival,
            arrival,  # twice: transit traffic is what the engine is for
            st.tuples(st.just("send"), st.booleans(), size),
            st.just(("strip",)),
            st.just(("teardown",)),
            st.tuples(st.just("install"), st.sampled_from(sorted(ROSTERS))),
            st.tuples(st.just("carrier"), st.booleans()),
        ),
    ),
    min_size=1, max_size=40,
)

flow_configs = st.builds(
    FlowControlConfig,
    transit_capacity=st.sampled_from([1, 2, 64]),
    min_gap_ns=st.sampled_from([0, 400]),
    hi_watermark=st.sampled_from([1, 2, 3]),
    enabled=st.booleans(),
    transit_priority=st.booleans(),
    window_override=st.sampled_from([None, 1, 3]),
)


SER_NS = {n: frame_for(packet(0, 0, 3, False, n)).ser_ns for n in SIZES}


def timetable(ops, one_wire):
    """``(instant, tag, op)`` for every operation, the same in both
    worlds.  ``one_wire``: arrivals share a wire, one frame at a time, so
    no two of them land in one instant."""
    at = hold_end = 0
    last_arrival = -1
    for tag, (wait, op) in enumerate(ops):
        at = max(at, hold_end) if wait == HOLD_END else at + wait
        when = at
        if op[0] == "arrive":
            if one_wire:
                last_arrival = when = max(at, last_arrival + 1)
            hold_end = when + NODE_TRANSIT_NS + SER_NS[op[2]]
        yield when, tag, op


def run_mac_world(mac_type, config, ops, mode, loosen=False):
    sim = Simulator()
    tracer = Tracer()
    port = Port("n1.p0")
    port.carrier_up = True
    log = []
    port.tx_link = Wire(sim, log, port)
    mac = mac_type(sim, NODE, [port], config, tracer=tracer)
    if loosen:
        mac._fuses = True
    mac.on_deliver = lambda pkt, fr: log.append((sim.now, "rx", tag_of(pkt)))
    mac.on_tour_complete = lambda fr: log.append(
        (sim.now, "toured", tag_of(fr.packet)))
    mac.on_tour_lost = lambda fr: log.append(
        (sim.now, "lost", tag_of(fr.packet)))
    mac.install_roster(ROSTERS["ring4"])

    def arriving(tag, op):
        _kind, priority, size, src, dst, _lead, _early = op
        return frame_for(packet(tag, src, dst, priority, size))

    def apply(tag, op):
        kind = op[0]
        if kind == "arrive":
            mac.on_frame(arriving(tag, op), port)
        elif kind == "send":
            _kind, priority, size = op
            mac.send(packet(tag, NODE, BROADCAST, priority, size))
        elif kind == "strip":
            # the oldest of our own frames comes back round the ring
            ours = next(iter(mac._outstanding.values()), None)
            if ours is not None:
                mac.on_frame(ours, port)
        elif kind == "teardown":
            mac.teardown("fault")
        elif kind == "install":
            mac.install_roster(ROSTERS[op[1]])
        else:
            port.carrier_up = op[1]

    def hand_to_wire(tag, op, at, wire_at):
        frame = arriving(tag, op)
        frame.wire_at = wire_at
        sim.call_at(at, mac.on_frame, frame, port)

    for at, tag, op in timetable(ops, one_wire=mode == "wired"):
        if mode == "outside":
            if at > sim.now:  # same instant, no run: its pick is pending
                sim.run(until=at)
            apply(tag, op)
        elif mode == "wired" and op[0] == "arrive":
            wire_at = max(at - op[5], 0)
            early = op[6] if mac_type is RingMAC else 0
            sim.call_at(max(wire_at - early, 0),
                        hand_to_wire, tag, op, at, wire_at)
        else:
            sim.call_at(at, apply, tag, op)
    # Not to the drain: a local frame facing a dark port is re-picked
    # every register latency until rostering takes the ring down.
    sim.run(until=sim.now + SETTLE_NS)
    ctl = mac.controller
    state = (
        log,
        dict(mac.counters),
        (ctl.window, ctl.gap_ns, ctl.outstanding, ctl.next_insert_at,
         ctl.backoffs, ctl.relaxes),
        [(r.time, r.category, r.source, r.data) for r in tracer.records],
        [[tag_of(f.packet) for f in queue]
         for queue in (mac._transit_priority, mac._transit,
                       mac._priority_insertion, mac._insertion)],
        sorted(tag_of(f.packet) for f in mac._outstanding.values()),
        (mac.ring_up, mac._tx_busy, mac._tx_scheduled, port.tx_frames),
    )
    return state, sim.events_processed, mac


def both_mac_worlds(config, ops, mode):
    fused, fused_events, mac = run_mac_world(RingMAC, config, ops, mode)
    reference, reference_events, ref = run_mac_world(
        ReferenceMAC, config, ops, mode)
    assert fused == reference
    # every frame either MAC inserted or received is accounted for
    assert mac.balanced() and ref.balanced()
    # the reference never set foot on the fused path, nor armed the
    # due-time wake-up
    assert ref._fused_at == -1 and ref._hold_end == 0
    assert ref._pace_due == -1
    return fused, fused_events, reference_events


@given(config=flow_configs, ops=mac_ops,
       mode=st.sampled_from(["outside", "posted", "wired"]))
@settings(max_examples=1500, deadline=None)
def test_fused_mac_matches_reference_mac(config, ops, mode):
    both_mac_worlds(config, ops, mode)


QUIET = FlowControlConfig()


def test_a_quiet_hop_costs_one_entry_where_the_reference_spends_three():
    ops = [(2_000, ("arrive", True, 0, 0, BROADCAST, 0, 0))] * 10
    _state, fused_events, reference_events = both_mac_worlds(
        QUIET, ops, "outside")
    assert reference_events - fused_events == 2 * len(ops)


def test_teardown_in_the_arrival_instant_flushes_the_frame():
    """The frame was fused into the register, but on the queue-then-pick
    path it is still in the transit buffer when a teardown lands in the
    same instant: flushed with the buffer and named in the ``ring_down``
    record — not lost from the register 120 ns later."""
    for cell in (("arrive", True, 0, 0, BROADCAST, 0, 0),
                 ("arrive", False, 33, 2, 3, 0, 0)):
        ops = [(500, cell), (0, ("teardown",)),
               (50, ("install", "ring4")), (10, ("send", False, 0))]
        for mode in ("outside", "posted"):
            (log, counters, _ctl, trace, *_rest), _f, _r = both_mac_worlds(
                QUIET, ops, mode)
            assert counters["transit_flushed"] == 1
            assert "transit_lost_ring_down" not in counters
            (down,) = [data for _t, cat, _src, data in trace
                       if cat == "ring_down"]
            assert down["flushed"] == 1
            # the voided emit of the flushed frame must not fire the
            # register the re-installed ring loaded 60 ns later
            assert [(t, what) for t, what, tag in log if tag == 3] == [
                (560 + NODE_TRANSIT_NS, "tx")]


def test_priority_cell_in_the_arrival_instant_overtakes_the_fused_frame():
    ops = [(500, ("arrive", False, 64, 0, 3, 0, 0)),
           (0, ("arrive", True, 0, 2, 3, 0, 0))]
    (log, *_rest), _f, _r = both_mac_worlds(QUIET, ops, "outside")
    assert [tag for _t, what, tag in log if what == "tx"] == [1, 0]


def test_second_arrival_in_the_instant_sees_the_first_in_the_buffer():
    """Depth two backs the controller off, and a one-frame buffer
    overflows — whether or not the first frame went straight to the
    register."""
    ops = [(500, ("arrive", False, 0, 0, 3, 0, 0)),
           (0, ("arrive", False, 0, 2, 3, 0, 0))]
    (_log, counters, ctl, *_rest), _f, _r = both_mac_worlds(
        QUIET, ops, "outside")
    assert ctl[4] == 1 and counters["tx_transit"] == 2  # one backoff
    tight = FlowControlConfig(transit_capacity=1)
    (_log, counters, *_rest), _f, _r = both_mac_worlds(tight, ops, "outside")
    assert counters["transit_overflow_drop"] == 1
    assert counters["tx_transit"] == 1


def test_arrival_and_hold_end_pick_in_one_instant_keep_their_order():
    """A frame lands in the very instant the previous frame's hold ends,
    with a local frame waiting for the pick.  The six-entry hop ordered
    the two by posting time: the pick was posted at the emit, the arrival
    when its frame was handed to the wire.  Handed over *after* the emit,
    the arrival comes second and the local frame goes out first; handed
    over *before*, the arrival is queued in time to be picked, transit
    first.  The fused engine gets its arrival entry 300 ns early from a
    switch that reserved the wire, and posts its own pick late (at the
    send, nothing being queued at the emit) — and must still tell the
    two cases apart."""
    ser = SER_NS[33]
    hold_from = 1_000 + NODE_TRANSIT_NS
    for lead, first_out in ((ser - 100, "local"), (ser + 100, "transit")):
        ops = [(1_000, ("arrive", False, 33, 0, 3, 300, 0)),
               (NODE_TRANSIT_NS + 50, ("send", False, 0)),
               (HOLD_END, ("arrive", False, 0, 2, 3, lead, SWITCH_LATENCY_NS))]
        (log, *_rest), _f, _r = both_mac_worlds(QUIET, ops, "wired")
        assert (hold_from + ser - lead > hold_from) == (first_out == "local")
        sent = [tag for _t, what, tag in log if what == "tx"]
        assert sent == ([0, 1, 2] if first_out == "local" else [0, 2, 1])
    # ...and from the case where the pick has already run in that
    # instant (the arrival's entry was posted after the send's kick):
    # the local frame is in the register, and stays there.
    ops[2] = (HOLD_END, ("arrive", False, 0, 2, 3, 200, 0))
    (log, *_rest), _f, _r = both_mac_worlds(QUIET, ops, "wired")
    assert [tag for _t, what, tag in log if what == "tx"] == [0, 1, 2]


def test_the_net_catches_a_greedy_nic_that_fuses():
    """With ``transit_priority`` off the pick prefers the node's own
    frame, so an arrival may not go straight to the register: loosen
    that guard and a send in the arrival instant comes out in the wrong
    order."""
    greedy = FlowControlConfig(transit_priority=False)
    ops = [(500, ("arrive", False, 0, 0, 3, 0, 0)), (0, ("send", False, 0))]
    reference, _events, _mac = run_mac_world(
        ReferenceMAC, greedy, ops, "outside")
    shipped, _events, _mac = run_mac_world(RingMAC, greedy, ops, "outside")
    loosened, _events, _mac = run_mac_world(
        RingMAC, greedy, ops, "outside", loosen=True)
    assert shipped == reference
    assert loosened != reference
