"""Serial link and fibre tests: timing, ordering, faults, carrier."""

import pytest

from repro.micropacket import MicroPacket, MicroPacketType
from repro.phys import (
    CARRIER_DETECT_NS,
    Fiber,
    Port,
    frame_for,
    propagation_ns,
    serialization_ns,
)
from repro.sim import Simulator


def data_pkt(src=0, dst=1, payload=b"12345678"):
    return MicroPacket(ptype=MicroPacketType.DATA, src=src, dst=dst, payload=payload)


def wired_pair(sim, length_m=100.0):
    a = Port("a")
    b = Port("b")
    fiber = Fiber(sim, a, b, length_m)
    return a, b, fiber


# ------------------------------------------------------------------ timing
def test_serialization_ns_exact_rate():
    # 17 bits at 1.0625 Gbit/s is exactly 16 ns.
    assert serialization_ns(17) == 16
    assert serialization_ns(0) == 0
    # Rounds up, never down.
    assert serialization_ns(1) == 1


def test_serialization_rejects_negative():
    with pytest.raises(ValueError):
        serialization_ns(-1)


def test_propagation_5ns_per_m():
    assert propagation_ns(100) == 500
    with pytest.raises(ValueError):
        propagation_ns(-1)


def test_frame_delivery_time_is_serialize_plus_propagate():
    sim = Simulator()
    a, b, _fiber = wired_pair(sim, length_m=200.0)
    got = []
    b.on_frame = lambda f, p: got.append((f, sim.now))
    frame = frame_for(data_pkt())
    a.tx_link.transmit(frame)
    sim.run()
    expected = serialization_ns(frame.wire_bits) + propagation_ns(200.0)
    assert got[0][1] == expected


def test_frames_preserve_fifo_order():
    sim = Simulator()
    a, b, _fiber = wired_pair(sim)
    got = []
    b.on_frame = lambda f, p: got.append(f.packet.seq)
    for seq in range(6):
        a.tx_link.transmit(frame_for(data_pkt().with_seq(seq)))
    sim.run()
    assert got == [0, 1, 2, 3, 4, 5]


def test_back_to_back_frames_pipeline_at_line_rate():
    sim = Simulator()
    a, b, _fiber = wired_pair(sim, length_m=0.0)
    times = []
    b.on_frame = lambda f, p: times.append(sim.now)
    frame0 = frame_for(data_pkt())
    for _ in range(3):
        a.tx_link.transmit(frame_for(data_pkt()))
    sim.run()
    ser = serialization_ns(frame0.wire_bits)
    assert times == [ser, 2 * ser, 3 * ser]


def test_duplex_directions_independent():
    sim = Simulator()
    a, b, _fiber = wired_pair(sim)
    got_a, got_b = [], []
    a.on_frame = lambda f, p: got_a.append(f)
    b.on_frame = lambda f, p: got_b.append(f)
    a.tx_link.transmit(frame_for(data_pkt(src=0, dst=1)))
    b.tx_link.transmit(frame_for(data_pkt(src=1, dst=0)))
    sim.run()
    assert len(got_a) == 1 and len(got_b) == 1


# ------------------------------------------------------------------ faults
def test_cut_fiber_loses_in_flight_frame():
    sim = Simulator()
    a, b, fiber = wired_pair(sim, length_m=1000.0)
    got = []
    b.on_frame = lambda f, p: got.append(f)
    a.tx_link.transmit(frame_for(data_pkt()))
    # Cut while the frame is still in flight.
    sim.call_in(serialization_ns(frame_for(data_pkt()).wire_bits) + 1, fiber.cut)
    sim.run()
    assert got == []
    assert fiber.ab.frames_lost == 1


def test_send_on_dark_fiber_returns_false():
    sim = Simulator()
    a, _b, fiber = wired_pair(sim)
    fiber.cut()
    sim.run()
    assert a.tx_link.transmit(frame_for(data_pkt())) is False


def test_carrier_loss_after_debounce():
    sim = Simulator()
    a, b, fiber = wired_pair(sim)
    events = []
    b.on_carrier = lambda up, p: events.append((up, sim.now))
    sim.call_in(5_000, fiber.cut)
    sim.run()
    assert events == [(False, 5_000 + CARRIER_DETECT_NS)]


def test_carrier_restore_after_debounce():
    sim = Simulator()
    a, b, fiber = wired_pair(sim)
    events = []
    b.on_carrier = lambda up, p: events.append((up, sim.now))
    sim.call_in(1_000, fiber.cut)
    sim.call_in(100_000, fiber.restore)
    sim.run()
    assert events[-1] == (True, 100_000 + CARRIER_DETECT_NS)
    assert fiber.is_up


def test_rapid_cut_restore_suppresses_stale_carrier_event():
    sim = Simulator()
    a, b, fiber = wired_pair(sim)
    events = []
    b.on_carrier = lambda up, p: events.append((up, sim.now))
    sim.call_in(1_000, fiber.cut)
    sim.call_in(2_000, fiber.restore)  # restored before debounce expires
    sim.run()
    # The down transition from the cut must not be delivered after restore.
    assert (False, 1_000 + CARRIER_DETECT_NS) not in events


def test_corrupt_frame_counted_not_delivered():
    """The CRC check runs at the far port: the link delivered the light,
    the port counts it corrupt, and its handler never hears of it."""
    sim = Simulator()
    a, b, fiber = wired_pair(sim)
    got = []
    b.on_frame = lambda f, p: got.append(f)
    assert a.tx_link.transmit(frame_for(data_pkt()).damaged()) is True
    sim.run()
    assert got == []
    assert b.rx_corrupt == 1
    assert b.rx_frames == 0
    assert (fiber.ab.frames_delivered, fiber.ab.frames_lost) == (1, 0)


# ------------------------------------------------ the link at either port


def test_port_with_no_handler_counts_what_it_receives():
    sim = Simulator()
    a, b, fiber = wired_pair(sim)
    for _ in range(3):
        a.tx_link.transmit(frame_for(data_pkt()))
    sim.run()
    assert (b.rx_frames, b.rx_corrupt, fiber.ab.frames_delivered) == (3, 0, 3)


def test_transmit_on_a_dark_port_returns_false_and_counts_nothing():
    sim = Simulator()
    a, b, fiber = wired_pair(sim)
    fiber.cut()
    sim.run()  # past the debounce: a has no carrier
    assert not a.carrier_up
    assert a.tx_link.transmit(frame_for(data_pkt())) is False
    assert (a.tx_frames, fiber.ab.frames_lost, fiber.ab.frames_delivered) == (
        0, 0, 0)


def test_transmit_inside_the_debounce_is_counted_and_lost_on_the_link():
    """Carrier has not dropped yet, so the port takes the frame and
    counts it; the dark fibre loses it at the transmitter."""
    sim = Simulator()
    a, b, fiber = wired_pair(sim)
    fiber.cut()
    assert a.carrier_up
    assert a.tx_link.transmit(frame_for(data_pkt())) is True
    sim.run()
    assert (a.tx_frames, fiber.ab.frames_lost, b.rx_frames) == (1, 1, 0)


def test_recall_uncounts_tx_frames_and_hands_back_oldest_first():
    """Reservations not yet handed over when the cut lands go back to
    the sender, un-counted; the one already on the wire dies there."""
    sim = Simulator()
    a, b, fiber = wired_pair(sim)
    recalled = []
    a.on_recall = lambda frames, port: recalled.append(
        ([f.packet.seq for f in frames], port))
    a.tx_link.transmit(frame_for(data_pkt()))  # light at once
    for seq in (1, 2):
        a.tx_frames += 1  # a reserving sender counts its own
        a.tx_link.reserve(frame_for(data_pkt().with_seq(seq)), 300)
    assert a.tx_frames == 3
    fiber.cut()
    assert recalled == [([1, 2], a)]
    assert a.tx_frames == 1
    sim.run()
    assert (fiber.ab.frames_lost, fiber.ab.frames_delivered, b.rx_frames) == (
        1, 0, 0)


def test_endpoint_dark_and_lit_refcount():
    sim = Simulator()
    a, b, fiber = wired_pair(sim)
    fiber.endpoint_dark()
    fiber.endpoint_dark()
    fiber.endpoint_lit()
    assert not fiber.is_up  # one dark side remains
    fiber.endpoint_lit()
    assert fiber.is_up
    with pytest.raises(ValueError):
        fiber.endpoint_lit()


def test_transmit_during_cut_is_lost_not_queued():
    sim = Simulator()
    a, b, fiber = wired_pair(sim, length_m=10.0)
    got = []
    b.on_frame = lambda f, p: got.append(f)

    def script():
        yield sim.timeout(100)
        fiber.cut()
        yield sim.timeout(CARRIER_DETECT_NS + 100)
        a.tx_link.transmit(frame_for(data_pkt()))  # False, nothing queued
        fiber.restore()
        yield sim.timeout(CARRIER_DETECT_NS + 100)
        a.tx_link.transmit(frame_for(data_pkt()))

    sim.process(script())
    sim.run()
    assert len(got) == 1


def test_frame_for_wire_bits_accounting():
    frame = frame_for(data_pkt())
    # fixed cell: SOF+12+CRC4+EOF = 18 chars, + 2 idle = 20 chars = 200 bits
    assert frame.wire_bits == 200
    frame0 = frame_for(data_pkt(), idle_gap=0)
    assert frame0.wire_bits == 180


def test_frame_ids_unique():
    f1, f2 = frame_for(data_pkt()), frame_for(data_pkt())
    assert f1.frame_id != f2.frame_id


def test_damaged_copy_preserves_identity():
    f = frame_for(data_pkt())
    d = f.damaged()
    assert d.corrupt and not f.corrupt
    assert d.frame_id == f.frame_id
