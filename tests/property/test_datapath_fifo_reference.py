"""The FIFO data path against a reference that carries its payload per entry.

``SerialLink`` and ``Switch`` post one reusable schedule entry per frame
and keep the frames in a FIFO of their own; which frame an entry firing
stands for is decided by the FIFO's order, and a cut detaches the FIFO
rather than stamping an epoch on every frame.  The references below do
it the obvious way — a fresh entry per frame carrying ``(frame, epoch)``
— and random fault/traffic sequences must not be able to tell the two
apart: same ``(time, frame_id)`` delivery log, same loss and delivery
counters, and for the link the same number of schedule entries processed.

The switch goes further than a FIFO: ring traffic that meets an empty
crossing and a lit egress fibre reserves the wire on arrival and spends
no entry on the crossing.  ``ReferenceSwitch`` never does — every frame
spends its 300 ns as an entry of its own and meets the port only when
that fires — so a cut, a power loss or a dark port landing inside the
crossing must come out the same either way.

A flood goes further too: the frame joins the crossing FIFO of every
egress lit when it arrives, and *one* entry carries it over to all of
them.  ``ReferenceSwitch._flood`` is the per-egress loop that preceded
it — an entry per egress per flood — so floods from any port (the ring's
own egress included), duplicates, ring frames in the same instant and
inside the crossing, and fibres cut or mended on any port between flood
and emit must leave every wire carrying the same frames at the same
instants, and the endpoints hearing them in the same order inside one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.micropacket import DmaControl, MicroPacket, MicroPacketType
from repro.phys import (
    CARRIER_DETECT_NS, SWITCH_LATENCY_NS, Fiber, Port, SerialLink, Switch,
    frame_for,
)
from repro.phys.constants import propagation_ns
from repro.rostering import encode_explore, flood_key
from repro.sim import Simulator


class ReferenceLink:
    """One direction of light; every arrival entry owns its frame, and
    meets the far port the way ``SerialLink`` does: CRC check, count,
    the device's handler."""

    def __init__(self, sim, src, dst, length_m):
        self.sim, self.src, self.dst = sim, src, dst
        self.prop_ns = propagation_ns(length_m)
        self.up = True
        self.epoch = 0
        self.busy_until = 0
        self.frames_delivered = self.frames_lost = 0

    def transmit(self, frame):
        if not self.src.carrier_up:
            return False
        self.src.tx_frames += 1
        if not self.up:
            self.frames_lost += 1
            return True
        self.busy_until = max(self.sim.now, self.busy_until) + frame.ser_ns
        self.sim.call_at(
            self.busy_until + self.prop_ns, self.arrive, frame, self.epoch)
        return True

    def arrive(self, frame, epoch):
        if not self.up or epoch != self.epoch:
            self.frames_lost += 1
            return
        self.frames_delivered += 1
        if frame.corrupt:
            self.dst.rx_corrupt += 1
            return
        self.dst.rx_frames += 1
        if self.dst.on_frame is not None:
            self.dst.on_frame(frame, self.dst)

    def go_down(self):
        if self.up:
            self.up = False
            self.epoch += 1
            self.busy_until = 0
            self.sim.call_in(CARRIER_DETECT_NS, self.sync_carrier, False)

    def go_up(self):
        if not self.up:
            self.up = True
            self.sim.call_in(CARRIER_DETECT_NS, self.sync_carrier, True)

    def sync_carrier(self, up):
        if up == self.up:
            self.dst.set_carrier(up)


def reference_fiber(sim, a, b, length_m):
    fiber = Fiber(sim, a, b, length_m)
    fiber.ab = a.tx_link = ReferenceLink(sim, a, b, length_m)
    fiber.ba = b.tx_link = ReferenceLink(sim, b, a, length_m)
    return fiber


class ReferenceSwitch(Switch):
    """Every crossing is its own entry, bound to its frame and port.

    ``_on_frame`` is the three-stage path as it stood before ring traffic
    learned to reserve the egress wire, overridden whole: a reference
    that only replaced ``_cross`` would inherit the fused path in
    ``Switch._on_frame`` and compare it with itself (``run_switch_world``
    gives the reference links that refuse ``reserve`` to prove it).
    """

    def _on_frame(self, frame, port):
        if self.failed:
            return
        if frame.packet.ptype == MicroPacketType.ROSTERING:
            self._flood(frame, port)
            return
        ingress = self._port_index[port]
        egress = self.ring_map.get(ingress)
        if egress is None:
            self.counters.incr("no_route_drop")
            return
        self._cross(frame, egress)
        self.counters.incr("forwarded")

    def _flood(self, frame, port):
        """The flood as it stood before one entry carried it to every
        egress: a crossing of its own per lit egress, verbatim."""
        key = flood_key(frame.packet.payload)
        if key in self._flood_seen:
            self.counters.incr("flood_duplicate")
            return
        self._flood_seen[key] = None
        ingress = self._port_index[port]
        fanout = 0
        for idx, out in enumerate(self.ports):
            if idx == ingress or not out.carrier_up:
                continue
            self._cross(frame, idx)
            fanout += 1
        self.counters.incr("flooded", fanout)

    def _cross(self, frame, egress):
        self.sim.call_in(SWITCH_LATENCY_NS, self._send, egress, frame)

    def _send(self, egress, frame):
        link = self.ports[egress].tx_link
        if link is None or not link.transmit(frame):
            self.counters.incr("egress_dark_drop")


def data_frame(k):
    """Fixed cells and DMA packets of three sizes: 189..791 ns of wire."""
    size = (0, 16, 33, 64)[k % 4]
    if not size:
        return frame_for(MicroPacket(
            ptype=MicroPacketType.DATA, src=0, dst=1, payload=bytes(8)))
    return frame_for(MicroPacket(
        ptype=MicroPacketType.DMA, src=0, dst=1, payload=bytes(size),
        dma=DmaControl(channel=0, offset=0, transfer_id=1)))


#: gaps around the scales that matter: inside one serialization, a few
#: frames, the carrier debounce, and past everything in flight
gap = st.one_of(
    st.integers(0, 40),
    st.integers(0, 3_000),
    st.sampled_from([CARRIER_DETECT_NS - 1, CARRIER_DETECT_NS,
                     CARRIER_DETECT_NS + 1]),
    st.integers(0, 60_000),
)

link_ops = st.lists(
    st.tuples(
        gap,
        st.one_of(
            st.tuples(st.sampled_from(["a", "b"]), st.integers(1, 12)),
            st.sampled_from(["cut", "restore", "dark", "lit"]),
        ),
    ),
    min_size=1, max_size=40,
)


def run_link_world(make_fiber, ops, length_m, frames):
    sim = Simulator()
    ends = {"a": Port("a"), "b": Port("b")}
    fiber = make_fiber(sim, ends["a"], ends["b"], length_m)
    log = []
    for name, port in ends.items():
        port.on_frame = (
            lambda f, p, n=name: log.append((sim.now, n, f.frame_id)))
    supply = iter(frames)
    for wait, op in ops:
        sim.run(until=sim.now + wait)
        if op == "cut":
            fiber.cut()
        elif op == "restore":
            fiber.restore()
        elif op == "dark":
            fiber.endpoint_dark()
        elif op == "lit":
            if fiber._dark_sides:
                fiber.endpoint_lit()
        else:
            side, burst = op
            for _ in range(burst):
                # Two frames a step: the port refuses once carrier has
                # dropped, the link is what loses frames inside the
                # debounce window.
                ends[side].tx_link.transmit(next(supply))
                ends[side].tx_link.transmit(next(supply))
    sim.run()
    return (
        log,
        [(l.frames_delivered, l.frames_lost) for l in (fiber.ab, fiber.ba)],
        [(p.tx_frames, p.rx_frames, p.carrier_up) for p in ends.values()],
        sim.events_processed,
        sim.now,
    )


@given(ops=link_ops, length_m=st.sampled_from([0.0, 50.0, 400.0, 3000.0]))
@settings(max_examples=300, deadline=None)
def test_fifo_link_matches_reference_link(ops, length_m):
    frames = [data_frame(k) for k in range(2 * 12 * len(ops))]
    fifo = run_link_world(Fiber, ops, length_m, frames)
    reference = run_link_world(reference_fiber, ops, length_m, frames)
    assert fifo == reference


def test_restore_while_dead_reservations_are_still_pending():
    """The case the detached FIFO exists for: after cut + restore the wire
    is free again, so new frames arrive *before* the instants the dead
    reservations still hold on the schedule."""
    backlog = 60  # ~23 us of reservations: outlives cut + debounce
    ops = [(0, ("a", backlog)), (100, "cut"), (1, "restore"),
           (CARRIER_DETECT_NS, ("a", 3))]
    frames = [data_frame(0) for _ in range(2 * (backlog + 3))]
    fifo = run_link_world(Fiber, ops, 50.0, frames)
    assert fifo == run_link_world(reference_fiber, ops, 50.0, frames)
    log, (ab, _ba), _ports, _events, _now = fifo
    assert ab == (6, 2 * backlog)
    last_dead_reservation = 2 * backlog * frames[0].ser_ns
    assert max(t for t, _end, _fid in log) < last_dead_reservation


#: gaps as above, plus the scale of one crossing: a fault SWITCH_LATENCY_NS
#: or less after a burst lands while its frames are between the ports,
#: and a burst less than a crossing short of a debounce after a fault
#: meets the carrier change between its arrival and its emit
switch_gap = st.one_of(
    gap,
    st.integers(0, SWITCH_LATENCY_NS + 1),
    st.sampled_from([SWITCH_LATENCY_NS - 1, SWITCH_LATENCY_NS,
                     SWITCH_LATENCY_NS + 1]),
    st.integers(CARRIER_DETECT_NS - SWITCH_LATENCY_NS - 1,
                CARRIER_DETECT_NS + 1),
)

switch_ops = st.lists(
    st.tuples(
        switch_gap,
        st.one_of(
            st.tuples(st.sampled_from(["ring", "flood"]),
                      st.sampled_from([0, 1, 3]), st.integers(1, 6)),
            st.tuples(st.just("solo"), st.sampled_from([0, 1, 3]),
                      st.integers(1, 22)),
            # floods alone, from any port — 2 is where the ring map sends
            # everything — and cells whose keys the "flood" pool repeats
            st.tuples(st.sampled_from(["wave", "echo"]),
                      st.sampled_from([0, 1, 2, 3]), st.integers(1, 4)),
            st.tuples(st.sampled_from(["cut", "restore"]),
                      st.sampled_from([0, 1, 2, 3])),
            st.sampled_from(["cut", "restore", "fail", "repair"]),
        ),
    ),
    min_size=1, max_size=40,
)


#: burst kinds that deliver one pool's frames alone -> the pool: ring
#: frames, cells with keys not seen before, cells that repeat those keys
ALONE = {"solo": "ring", "wave": "flood", "echo": "echo"}


class NeverReserves(SerialLink):
    """The reference switch's egress links: it never reserves one."""

    __slots__ = ()

    def reserve(self, frame, at):
        raise AssertionError("the reference switch reserved an egress wire")


def arrive(port, frame):
    """A frame fully in at ``port``: what its rx link does with it."""
    port.rx_frames += 1
    port.on_frame(frame, port)


class RecallNotingSwitch(Switch):
    """``Switch``, noting whether a cut ever handed a reservation back."""

    recalled = False

    def _recall(self, frames, port):
        self.recalled = True
        super()._recall(frames, port)


def run_switch_world(switch_type, ops, frames):
    sim = Simulator()
    sw = switch_type(sim, 0, n_ports=4)
    log = []
    for i, port in enumerate(sw.ports):
        ep = Port(f"ep{i}")
        fiber = Fiber(sim, ep, port, 10.0)
        sw.attach_fiber(fiber)
        ep.on_frame = lambda f, p, i=i: log.append((sim.now, i, f.frame_id))
        if switch_type is ReferenceSwitch:
            fiber.ba = port.tx_link = NeverReserves(sim, port, ep, 10.0)
    ring = {0: 2, 1: 2, 3: 2}  # every ingress shares egress 2
    sw.configure_ring(ring)
    supply = {kind: iter(pool) for kind, pool in frames.items()}
    for wait, op in ops:
        sim.run(until=sim.now + wait)
        if op in ("cut", "restore"):
            op = (op, 2)  # the fibre every ring frame leaves by
        if op == "fail":
            sw.fail()
        elif op == "repair":
            sw.repair()
            sw.configure_ring(ring)  # fail() cleared it
        elif op[0] == "cut":
            sw.attached_fibers[op[1]].cut()
        elif op[0] == "restore":
            sw.attached_fibers[op[1]].restore()
        else:
            kind, ingress, burst = op
            for _ in range(burst):
                if kind in ALONE:  # one kind of frame, one ingress
                    arrive(sw.ports[ingress], next(supply[ALONE[kind]]))
                    continue
                arrive(sw.ports[ingress], next(supply[kind]))
                # ...and a ring frame from another ingress at the same
                # instant, so the two kinds interleave at port 2
                arrive(sw.ports[{0: 1, 1: 3, 3: 0}[ingress]],
                       next(supply["ring"]))
    sim.run()
    # Not compared: ``sim.events_processed`` and the instant the schedule
    # drains.  A crossing costs the reference an entry and the switch
    # none, and a cut leaves different ghosts behind: the arrival entry
    # of a reservation the cut recalled still fires (counting nothing) at
    # an instant where the reference, which never reserved, has nothing.
    return (
        log,
        dict(sw.counters),
        [(p.tx_frames, p.rx_frames) for p in sw.ports],
        [(f.ab.frames_delivered, f.ab.frames_lost,
          f.ba.frames_delivered, f.ba.frames_lost)
         for f in sw.attached_fibers],
    ), getattr(sw, "recalled", False)


def switch_frames(ops):
    """As many frames of each kind as ``ops`` will take from the supply."""
    need = {"ring": 0, "flood": 0, "echo": 0}
    for _wait, op in ops:
        if isinstance(op, tuple) and len(op) == 3:
            kind, _ingress, burst = op
            if kind in ALONE:
                need[ALONE[kind]] += burst
            else:
                need[kind] += burst
                need["ring"] += burst
    cells = {
        # distinct flood keys within a pool, so none is suppressed as a
        # duplicate; the k-th "echo" repeats the k-th "flood" key, and
        # whichever of the two arrives second is the duplicate
        pool: [frame_for(encode_explore(origin=k % 250, round_no=k // 250))
               for k in range(need[pool])]
        for pool in ("flood", "echo")
    }
    return {"ring": [data_frame(k) for k in range(need["ring"])], **cells}


def both_switch_worlds(ops):
    frames = switch_frames(ops)
    fused, recalled = run_switch_world(RecallNotingSwitch, ops, frames)
    reference, _ = run_switch_world(ReferenceSwitch, ops, frames)
    if recalled:
        # The one thing a recall does not put back: its entry goes on the
        # schedule at the cut, where the reference's crossing entry has
        # been since the frame arrived.  Both fire when the crossing
        # ends, but a crossing to another port posted in between fires on
        # the other side of it, so two *endpoints* may hear in the other
        # order inside that instant.  Sorted by instant, then endpoint:
        # one wire never delivers twice in an instant, so every instant
        # and every wire's order are still compared.
        assert sorted(fused[0]) == sorted(reference[0])
        assert fused[1:] == reference[1:]
    else:
        assert fused == reference
    return fused


@given(ops=switch_ops)
@settings(max_examples=2000, deadline=None)
def test_fifo_switch_matches_reference_switch(ops):
    both_switch_worlds(ops)


def test_cut_mid_crossing_loses_the_frame_at_the_hand_over_instant():
    """The wire was reserved on arrival, the cut lands 100 ns into the
    crossing: the frame was not light yet, so the cut itself loses
    nothing — the port still has carrier when the crossing ends, takes
    the frame, and the dark transmitter loses it there."""
    ops = [(0, ("solo", 0, 1)), (100, "cut")]
    log, counters, ports, links = both_switch_worlds(ops)
    assert log == [] and counters == {"forwarded": 1}
    assert ports[2] == (1, 0)  # offered to the port, once
    assert links[2] == (0, 0, 0, 1)  # switch -> endpoint: lost, not delivered


def test_cut_and_restore_mid_crossing_delivers_on_the_mended_wire():
    ops = [(0, ("solo", 0, 1)), (100, "cut"), (100, "restore")]
    log, _counters, ports, links = both_switch_worlds(ops)
    (arrival,) = log
    frame = data_frame(0)
    assert arrival[:2] == (SWITCH_LATENCY_NS + frame.ser_ns + 50, 2)
    assert ports[2] == (1, 0) and links[2] == (0, 0, 1, 0)


def test_fail_and_repair_in_one_instant_mid_crossing():
    """Power blinks while two frames are crossing: both fibres of every
    port went down and came back inside the instant, so the frames cross
    to a lit wire; the ring map is gone until the next commit, so what
    arrives afterwards has no route."""
    ops = [(0, ("solo", 0, 2)), (150, "fail"), (0, "repair"),
           (0, ("solo", 1, 1))]
    log, counters, _ports, links = both_switch_worlds(ops)
    assert [end for _t, end, _fid in log] == [2, 2, 2]
    assert counters == {"forwarded": 3} and links[2] == (0, 0, 3, 0)


def test_same_instant_burst_to_one_egress_then_cut():
    """Twenty-two frames reserve the wire back to back in one instant —
    ten microseconds of serialization — and the cut lands before the
    first has crossed: all of them come back, in order, and are lost one
    by one at the hand-over instant; cut later and they die on the wire."""
    burst = (0, ("solo", 0, 22))
    early = both_switch_worlds([burst, (SWITCH_LATENCY_NS - 1, "cut")])
    late = both_switch_worlds([burst, (SWITCH_LATENCY_NS, "cut")])
    for log, counters, ports, links in (early, late):
        assert log == [] and counters == {"forwarded": 22}
        assert ports[2] == (22, 0) and links[2] == (0, 0, 0, 22)


def test_port_that_lost_carrier_mid_crossing_counts_the_drop():
    """cut, restore, cut again inside one debounce: the first cut's
    carrier loss reaches the egress port while a frame reserved between
    the cuts is still crossing, and the port refuses it.  The switch is
    the only device that saw the frame, so the switch counts it."""
    ops = [(0, "cut"), (1, "restore"), (CARRIER_DETECT_NS - 150, ("solo", 0, 1)),
           (50, "cut")]
    _log, counters, ports, links = both_switch_worlds(ops)
    assert counters == {"forwarded": 1, "egress_dark_drop": 1}
    assert ports[2] == (0, 0) and links[2] == (0, 0, 0, 0)


# ------------------------------------------------ one entry per flood
CELL_SER_NS = frame_for(encode_explore(origin=0, round_no=0)).ser_ns
#: 10 m of fibre between the switch and every endpoint
PROP_NS = propagation_ns(10.0)


def arrivals_at(log, end):
    return [(t, fid) for t, at, fid in log if at == end]


def ends_reached(log, frame_id):
    return [at for _t, at, fid in log if fid == frame_id]


def test_ring_frame_one_instant_before_a_flood_to_its_egress():
    """The ring frame reserved wire 2 a nanosecond before the cell came:
    it leaves first, and the cell, in port 2's FIFO like in every other,
    waits for the wire behind it and nowhere else."""
    ops = [(0, ("solo", 0, 1)), (1, ("wave", 1, 1))]
    log, counters, ports, links = both_switch_worlds(ops)
    assert counters == {"forwarded": 1, "flooded": 3}
    (ring_at, ring), (cell_at, cell) = arrivals_at(log, 2)
    assert ends_reached(log, ring) == [2]
    assert sorted(ends_reached(log, cell)) == [0, 2, 3]
    ring_ser = data_frame(0).ser_ns
    assert ring_at == SWITCH_LATENCY_NS + ring_ser + PROP_NS
    assert cell_at == ring_at + CELL_SER_NS  # behind it on the wire
    assert arrivals_at(log, 0) == [
        (1 + SWITCH_LATENCY_NS + CELL_SER_NS + PROP_NS, cell)]
    assert [p[0] for p in ports] == [1, 0, 2, 1] and links[2][2:] == (2, 0)


def test_ring_frame_one_instant_after_a_flood_to_its_egress():
    """The cell is crossing to port 2 when the ring frame arrives: the
    frame may not reserve past it, queues behind it, and leaves second —
    on a wire the cell keeps busy, so later than its own crossing ends."""
    ops = [(0, ("wave", 1, 1)), (1, ("solo", 0, 1))]
    log, counters, _ports, links = both_switch_worlds(ops)
    assert counters == {"forwarded": 1, "flooded": 3}
    (cell_at, cell), (ring_at, ring) = arrivals_at(log, 2)
    assert sorted(ends_reached(log, cell)) == [0, 2, 3]
    assert ends_reached(log, ring) == [2]
    assert cell_at == SWITCH_LATENCY_NS + CELL_SER_NS + PROP_NS
    assert ring_at == cell_at + data_frame(0).ser_ns
    assert links[2][2:] == (2, 0)


def test_ring_frame_bound_for_the_floods_own_ingress_port():
    """A cell that came in by port 2 is not crossing *to* port 2, and
    port 2's FIFO is empty — but a ring frame bound there in the same
    instant may not reserve the wire: its arrival would go on the
    schedule a crossing early, ahead of the cell's at the other three
    endpoints, and all four land in one instant (a cell and a fixed-size
    ring frame serialize alike).  While a flood is between the ports
    every ring frame queues; the next one after it reserves again."""
    ops = [(0, ("wave", 2, 1)), (0, ("solo", 0, 1)),
           (SWITCH_LATENCY_NS, ("solo", 0, 1))]
    log, counters, ports, _links = both_switch_worlds(ops)
    assert counters == {"forwarded": 2, "flooded": 3}
    heard = SWITCH_LATENCY_NS + CELL_SER_NS + PROP_NS
    assert [(t, at) for t, at, _fid in log] == [
        (heard, 0), (heard, 1), (heard, 3), (heard, 2),
        (2 * SWITCH_LATENCY_NS + data_frame(1).ser_ns + PROP_NS, 2)]
    assert [p[0] for p in ports] == [1, 1, 2, 1]

    sim = Simulator()
    sw = Switch(sim, 0, n_ports=4)
    for i, port in enumerate(sw.ports):
        sw.attach_fiber(Fiber(sim, Port(f"ep{i}"), port, 10.0))
    sw.configure_ring({0: 2})
    arrive(sw.ports[2], frame_for(encode_explore(origin=1, round_no=1)))
    arrive(sw.ports[0], data_frame(0))
    assert sw.ports[2].tx_frames == 0  # queued behind the flood's entry
    sim.run(until=SWITCH_LATENCY_NS)
    arrive(sw.ports[0], data_frame(0))
    assert sw.ports[2].tx_frames == 2  # reserved on arrival
    fired = []
    sim.on_event = fired.append
    sim.run()
    assert len(fired) == 5  # the arrivals; the crossings took two entries
    assert sim.events_processed == 2 + 5


def test_flood_reaches_the_egress_ports_in_port_order():
    """One entry stands for what used to be one per egress, posted in
    port order: the endpoints still hear a cell, and the one behind it,
    lowest port first inside the instant."""
    ops = [(0, ("wave", 1, 2)), (0, ("wave", 3, 1))]
    log, counters, _ports, _links = both_switch_worlds(ops)
    assert counters == {"flooded": 9}
    heard = SWITCH_LATENCY_NS + CELL_SER_NS + PROP_NS
    assert [(t - heard, at) for t, at, _fid in log] == [
        (0, 0), (0, 2), (0, 3),  # first cell from port 1
        (0, 1),                  # the cell from port 3: wire 1 was free
        (CELL_SER_NS, 0), (CELL_SER_NS, 2), (CELL_SER_NS, 3),
        (2 * CELL_SER_NS, 0), (2 * CELL_SER_NS, 2)]


def test_port_whose_carrier_comes_up_mid_crossing_is_not_in_the_fan_out():
    """Fibre 3 was mended a debounce ago less 100 ns: its port is dark
    when the cell arrives and lit when the crossing ends.  The fan-out
    was decided on arrival, so the cell does not go there — and the next
    cell, 400 ns on, does."""
    ops = [(0, ("cut", 3)), (2 * CARRIER_DETECT_NS, ("restore", 3)),
           (CARRIER_DETECT_NS - 100, ("wave", 0, 1)), (400, ("wave", 0, 1))]
    log, counters, ports, _links = both_switch_worlds(ops)
    assert counters == {"flooded": 2 + 3}
    assert [at for _t, at, _fid in log] == [1, 2, 1, 2, 3]
    assert ports[3][0] == 1


def test_port_whose_carrier_drops_mid_crossing_counts_the_drop():
    """...and the other way round: lit when the cell arrives, so in the
    fan-out; dark when the crossing ends, so the port refuses the cell
    and the switch counts it."""
    ops = [(0, ("cut", 3)), (CARRIER_DETECT_NS - 100, ("wave", 0, 1))]
    log, counters, ports, _links = both_switch_worlds(ops)
    assert counters == {"flooded": 3, "egress_dark_drop": 1}
    assert [at for _t, at, _fid in log] == [1, 2]
    assert ports[3][0] == 0


def test_duplicate_cell_inside_the_crossing_of_the_first():
    """The same key from another port while the first copy is still
    between the ports: suppressed on arrival, nothing to emit."""
    ops = [(0, ("wave", 0, 1)), (100, ("echo", 1, 1))]
    log, counters, _ports, _links = both_switch_worlds(ops)
    assert counters == {"flooded": 3, "flood_duplicate": 1}
    assert [at for _t, at, _fid in log] == [1, 2, 3]


def test_recalled_reservation_leaves_ahead_of_the_flood_that_followed_it():
    """Ring frame, then a cell, in one instant; the fibre is cut and
    mended inside the crossing.  The cut hands the reservation back to
    the head of port 2's FIFO — ahead of the cell already waiting there —
    and the flood's entry, first on the schedule for that instant, sends
    whatever is at the head: the ring frame.  The cell follows when the
    recall's own entry fires; on this wire as on any other, the order is
    the order of arrival at the switch.  (A flood kept in a FIFO of its
    own, beside the per-port ones, gets this one backwards.)"""
    ops = [(0, ("solo", 0, 1)), (0, ("wave", 1, 1)), (100, "cut"),
           (100, "restore")]
    log, counters, _ports, links = both_switch_worlds(ops)
    assert counters == {"forwarded": 1, "flooded": 3}
    (_ring_at, ring), (_cell_at, cell) = arrivals_at(log, 2)
    assert ends_reached(log, ring) == [2]
    assert sorted(ends_reached(log, cell)) == [0, 2, 3]
    assert links[2] == (0, 0, 2, 0)
