"""Properties of the event-driven SerialLink transmitter.

The refactor replaced the per-link generator process + store with a
dequeue/serialize callback chain.  These tests pin the physical-layer
contract that replacement must keep:

* frames never overlap on the wire — consecutive arrivals are separated
  by at least the later frame's serialization time, no matter how the
  transmit instants cluster;
* arrival instants equal the arithmetic model (next-free-time plus
  serialization plus propagation) exactly;
* FIFO order survives arbitrary backlog.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.micropacket import DmaControl, MicroPacket, MicroPacketType
from repro.phys import Fiber, Port, frame_for, propagation_ns, serialization_ns
from repro.sim import Simulator


def packet_of_size(payload_bytes: int, seq: int) -> MicroPacket:
    if payload_bytes <= 8:
        return MicroPacket(
            ptype=MicroPacketType.DATA, src=0, dst=1,
            payload=bytes(payload_bytes),
        ).with_seq(seq % 16)
    return MicroPacket(
        ptype=MicroPacketType.DMA, src=0, dst=1,
        payload=bytes(min(payload_bytes, 64)),
        dma=DmaControl(channel=0, offset=0, transfer_id=1),
    ).with_seq(seq % 16)


@given(
    schedule=st.lists(
        st.tuples(st.integers(0, 2_000), st.integers(0, 64)),
        min_size=1, max_size=40,
    ),
    length_m=st.floats(0.0, 500.0),
)
@settings(max_examples=150, deadline=None)
def test_frames_never_overlap_and_match_arithmetic_model(schedule, length_m):
    sim = Simulator()
    a, b = Port("a"), Port("b")
    Fiber(sim, a, b, length_m)
    arrivals = []
    b.on_frame = lambda f, p: arrivals.append((sim.now, f))

    frames = []
    for k, (delay, size) in enumerate(sorted(schedule)):
        frame = frame_for(packet_of_size(size, k))
        frames.append((delay, frame))
        sim.call_at(delay, a.tx_link.transmit, frame)
    sim.run()

    assert len(arrivals) == len(frames)
    # FIFO: arrival order == transmit order (schedule sorted by time; the
    # kernel breaks time ties by submission order).
    assert [f.frame_id for _t, f in arrivals] == [
        f.frame_id for _d, f in frames
    ]
    # Exact arithmetic: each serialization starts when the transmitter
    # frees up, arrival = start + ser + propagation.
    prop = propagation_ns(length_m)
    free_at = 0
    for (delay, frame), (at, got) in zip(frames, arrivals):
        ser = serialization_ns(frame.wire_bits)
        start = max(delay, free_at)
        assert got is frame
        assert at == start + ser + prop
        free_at = start + ser
    # No overlap on the wire: consecutive arrivals are at least the
    # later frame's serialization time apart.
    for (t1, _f1), (t2, f2) in zip(arrivals, arrivals[1:]):
        assert t2 - t1 >= serialization_ns(f2.wire_bits)


def test_precomputed_ser_ns_matches_wire_bits():
    frame = frame_for(packet_of_size(8, 0))
    assert frame.ser_ns == serialization_ns(frame.wire_bits)


def test_backlog_drains_in_order_after_burst():
    """A burst of back-to-back sends pipelines at exactly line rate."""
    sim = Simulator()
    a, b = Port("a"), Port("b")
    Fiber(sim, a, b, 0.0)
    times = []
    b.on_frame = lambda f, p: times.append(sim.now)
    frames = [frame_for(packet_of_size(8, k)) for k in range(10)]
    for frame in frames:
        a.tx_link.transmit(frame)
    sim.run()
    ser = frames[0].ser_ns
    assert times == [ser * (k + 1) for k in range(10)]
