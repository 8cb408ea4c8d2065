"""A frame on the ring data path costs the collector nothing.

The three devices a frame passes per ring hop — the serial link, the
switch crossconnect, the MAC's insertion register — each post one
*reusable* schedule entry per frame (the crossconnect none at all while
its egress wire is free to be reserved, the register's pick only under
contention) and keep the frame itself in a FIFO they own.  So frames in
flight add no GC-tracked objects at all: the kernel files a lone entry
under its instant as it is, and the instant itself is a plain int.

That is what keeps the cyclic collector out of the large tiers: with a
fresh ``Callback`` + bound method + args tuple per entry, the in-flight
population of a 1k-node mesh swings by more than the young-generation
threshold on every heartbeat burst and the collector runs thousands of
times per window to free nothing.  The churn only shows at that scale,
so these tests pin the scale-independent cause instead: with the
collector off, ``gc.get_count()[0]`` is the net number of tracked
objects allocated, and it must not grow with the number of frames.
"""

import gc
import tracemalloc

import pytest

from repro import AmpNetCluster, ClusterConfig
from repro.analysis import total_mac_counter
from repro.kernel.ampdk import HEARTBEAT_INTERVAL_NS
from repro.micropacket import MicroPacket, MicroPacketType
from repro.phys import Fiber, Port, Switch, frame_for
from repro.ring import FlowControlConfig, RingMAC
from repro.rostering import Roster, encode_explore
from repro.sim import Simulator

FRAMES = 1000
#: tracked objects the measured region may allocate that are not per
#: frame (a deque or list growing, an interned counter key, ...)
SLACK = 8


@pytest.fixture
def tracked_allocations():
    """Net GC-tracked allocations since the fixture was set up."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield lambda: gc.get_count()[0]
    finally:
        if was_enabled:
            gc.enable()


def data_frames(count, src=7, dst=0):
    return [
        frame_for(MicroPacket(ptype=MicroPacketType.DATA, src=src, dst=dst,
                              payload=k.to_bytes(8, "little")))
        for k in range(count)
    ]


def test_frames_pending_on_a_link_are_untracked(tracked_allocations):
    sim = Simulator()
    a, b = Port(sim, "a"), Port(sim, "b")
    link = Fiber(sim, a, b, 50.0).ab
    frames = data_frames(FRAMES)
    before = tracked_allocations()
    for frame in frames:
        link.transmit(frame)
    grew = tracked_allocations() - before
    assert sim.scheduler_stats()["overflow_spills"] > FRAMES // 2  # far out
    assert grew <= SLACK
    got = []
    b.set_handlers(on_frame=lambda frame, port: got.append(frame))
    sim.run()
    assert got == frames and link.frames_delivered == FRAMES


def switch_with_lit_ports(sim, n_ports):
    sw = Switch(sim, 0, n_ports=n_ports)
    for i, port in enumerate(sw.ports):
        sw.attach_fiber(Fiber(sim, Port(sim, f"ep{i}"), port, 10.0))
    return sw


def test_ring_forwards_crossing_a_switch_are_untracked(tracked_allocations):
    """A thousand frames in one instant: each reserves the egress wire on
    arrival, back to back — 189 us of serialization, so what would have
    been a thousand same-instant crossing entries are a thousand arrival
    entries at distinct instants far out, as on any backlogged link."""
    sim = Simulator()
    sw = switch_with_lit_ports(sim, 2)
    sw.configure_ring({0: 1})
    frames = data_frames(FRAMES)
    before = tracked_allocations()
    for frame in frames:
        sw.ports[0].deliver(frame)
    grew = tracked_allocations() - before
    assert sim.scheduler_stats()["overflow_spills"] > FRAMES // 2
    assert grew <= SLACK
    assert sw.ports[1].tx_frames == FRAMES  # reserved, every one
    fired = []
    sim.on_event = fired.append
    sim.run()
    assert sw.counters["forwarded"] == FRAMES
    assert len(fired) == FRAMES  # one arrival each; the crossing cost none


def test_ring_forwards_queueing_at_a_switch_are_untracked(tracked_allocations):
    """Behind a flood the ring frames cannot reserve: they queue in the
    crossing FIFO, one firing of the port's reusable entry each."""
    sim = Simulator()
    sw = switch_with_lit_ports(sim, 2)
    sw.configure_ring({0: 1})
    frames = data_frames(FRAMES)
    sw.ports[0].deliver(frame_for(encode_explore(origin=1, round_no=1)))
    before = tracked_allocations()
    for frame in frames:
        sw.ports[0].deliver(frame)
    grew = tracked_allocations() - before
    assert sim.scheduler_stats()["overflow_spills"] == 0
    assert grew <= SLACK
    assert sw.ports[1].tx_frames == 0  # all of it still crossing
    sim.run()
    assert sw.counters["forwarded"] == FRAMES
    assert sw.ports[1].tx_frames == FRAMES + 1


def test_rostering_floods_crossing_a_switch_are_untracked(tracked_allocations):
    """A flood is one firing of the switch's reusable flood entry however
    many ports it fans out to: the frame sits in each egress FIFO and the
    fan-out is an int, so a thousand floods in flight are a thousand
    schedule slots and nothing the collector tracks."""
    sim = Simulator()
    sw = switch_with_lit_ports(sim, 4)
    frames = [
        frame_for(encode_explore(origin=k % 250, round_no=k // 250))
        for k in range(FRAMES)
    ]
    before = tracked_allocations()
    for frame in frames:
        sw.ports[0].deliver(frame)
    grew = tracked_allocations() - before
    assert sim.scheduler_stats()["overflow_spills"] == 0
    assert grew <= SLACK
    assert sim.scheduler_stats()["pending_entries"] == FRAMES  # not 3 * FRAMES
    sim.run()
    assert sw.counters["flooded"] == 3 * FRAMES
    assert [p.tx_frames for p in sw.ports] == [0, FRAMES, FRAMES, FRAMES]


def mac_on_a_lit_port(sim):
    port = Port(sim, "n1.p0")
    port.force_carrier(True)  # lit, wired to nothing: frames go nowhere
    mac = RingMAC(sim, 1, [port], FlowControlConfig())
    mac.install_roster(Roster(1, (0, 1), (0, 0)))
    sim.run()
    return mac, port


def test_frames_stepping_through_the_mac_register_are_untracked(
    tracked_allocations,
):
    """The register holds one frame at a time, so nothing accumulates on
    the schedule; an observer that keeps every fired entry alive makes a
    per-frame entry show up as growth all the same.  Each frame meets an
    idle engine, its predecessor's serialization over: one entry, the
    emit."""
    sim = Simulator()
    mac, port = mac_on_a_lit_port(sim)
    frames = data_frames(FRAMES)
    fired = []
    sim.on_event = fired.append
    before = tracked_allocations()
    for frame in frames:
        mac.on_frame(frame, port)
        sim.run(until=sim.now + 1_000)
    grew = tracked_allocations() - before
    assert mac.counters["tx_transit"] == FRAMES
    assert len(fired) == FRAMES  # emit; no pick before it, none after
    assert grew <= SLACK


def test_frames_queueing_for_the_mac_register_are_untracked(
    tracked_allocations,
):
    """Two frames in one instant contend: the second takes back the
    first's fused load, and both go the queue-then-pick way — pick, emit,
    pick-after-hold, emit, and the voided emit of the fused load."""
    sim = Simulator()
    mac, port = mac_on_a_lit_port(sim)
    frames = data_frames(FRAMES)
    mac.on_frame(frames[0], port)
    mac.on_frame(frames[1], port)
    sim.run(until=sim.now + 1_000)
    fired = []
    sim.on_event = fired.append
    before = tracked_allocations()
    for first, second in zip(frames[2::2], frames[3::2]):
        mac.on_frame(first, port)
        mac.on_frame(second, port)
        sim.run(until=sim.now + 1_000)
    grew = tracked_allocations() - before
    pairs = FRAMES // 2 - 1
    assert mac.counters["tx_transit"] == FRAMES
    assert len(fired) == 5 * pairs
    # an unfuse costs one fresh entry, which ``fired`` keeps alive; the
    # frames themselves and the other four firings cost nothing
    assert grew <= pairs + SLACK


def test_a_quiet_ring_retains_nothing_per_delivered_frame():
    """Heartbeats are delivered at every hop for as long as the ring is
    up, so anything kept per delivery grows without bound: the traced
    memory of an idle ring must be flat from one window to the next."""
    cluster = AmpNetCluster(
        config=ClusterConfig(n_nodes=8, n_switches=2, trace=False)
    )
    cluster.start()
    cluster.run_until_ring_up()
    window = 200 * HEARTBEAT_INTERVAL_NS
    cluster.run(until=cluster.sim.now + window)  # caches and pools settle
    delivered = total_mac_counter(cluster, "rx_delivered")
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        cluster.run(until=cluster.sim.now + window)
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert total_mac_counter(cluster, "rx_delivered") - delivered > 10_000
    assert after - before < 32_000
