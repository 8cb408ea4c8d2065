"""Unit tests for the ring MAC using a minimal two-node harness."""

import pytest

from repro.micropacket import BROADCAST, Flags, MicroPacket, MicroPacketType
from repro.phys import NODE_TRANSIT_NS, Fiber, Port, Switch, frame_for
from repro.ring import FlowControlConfig, RingMAC
from repro.rostering import Roster
from repro.sim import Simulator


def two_node_ring(sim, **flow_kw):
    """Nodes 0 and 1 joined by switch 0, roster installed on both."""
    sw = Switch(sim, 0, n_ports=2)
    macs = []
    for node_id in range(2):
        port = Port(f"n{node_id}.p0")
        fiber = Fiber(sim, port, sw.ports[node_id], 10.0)
        sw.attach_fiber(fiber)
        mac = RingMAC(sim, node_id, [port], FlowControlConfig(**flow_kw))
        port.on_frame = mac.on_frame
        macs.append(mac)
    roster = Roster(1, (0, 1), (0, 0))
    sw.configure_ring(roster.switch_maps()[0])
    for mac in macs:
        mac.install_roster(roster)
    return macs, sw


def data(src, dst, payload=b"x" * 8):
    return MicroPacket(ptype=MicroPacketType.DATA, src=src, dst=dst,
                       payload=payload)


def test_send_requires_ring_for_transmit_but_queues_when_down():
    sim = Simulator()
    macs, _sw = two_node_ring(sim)
    macs[0].teardown("test")
    macs[0].send(data(0, 1))
    sim.run(until=1_000_000)
    assert len(macs[0]._insertion) == 1  # held, not lost


def test_unicast_delivers_and_strips_at_source():
    sim = Simulator()
    macs, _sw = two_node_ring(sim)
    got = []
    macs[1].on_deliver = lambda pkt, fr: got.append(pkt)
    done = []
    macs[0].on_tour_complete = lambda fr: done.append(fr)
    macs[0].send(data(0, 1))
    sim.run(until=1_000_000)
    assert len(got) == 1
    assert len(done) == 1
    assert macs[1].counters["tx_transit"] == 1  # forwarded back to source


def test_broadcast_delivered_at_peer():
    sim = Simulator()
    macs, _sw = two_node_ring(sim)
    got = []
    macs[1].on_deliver = lambda pkt, fr: got.append(pkt)
    macs[0].send(data(0, BROADCAST))
    sim.run(until=1_000_000)
    assert len(got) == 1 and got[0].is_broadcast


def test_install_roster_rejects_non_member():
    sim = Simulator()
    port = Port("x")
    mac = RingMAC(sim, 9, [port])
    mac.install_roster(Roster(1, (0, 1), (0, 0)))
    assert not mac.ring_up


def test_singleton_roster_tours_immediately():
    sim = Simulator()
    port = Port("solo")
    mac = RingMAC(sim, 0, [port])
    done = []
    mac.on_tour_complete = lambda fr: done.append(fr)
    mac.install_roster(Roster(1, (0,), ()))
    mac.send(data(0, BROADCAST))
    sim.run(until=10_000)
    assert len(done) == 1


def test_teardown_reports_lost_tours():
    sim = Simulator()
    macs, _sw = two_node_ring(sim)
    lost = []
    macs[0].on_tour_lost = lambda fr: lost.append(fr)
    macs[0].send(data(0, 1))

    def cut_mid_flight():
        yield sim.timeout(600)  # after insertion, before strip
        macs[0].teardown("fault")

    sim.process(cut_mid_flight())
    sim.run(until=1_000_000)
    assert len(lost) == 1
    assert macs[0].counters["tours_lost"] == 1


def test_teardown_with_transit_frame_in_register_counts_the_loss():
    """Ring torn down during the 120 ns register latency: the transit
    frame in the register is lost, and the ledger must say so."""
    sim = Simulator()
    macs, _sw = two_node_ring(sim)
    mac = macs[1]
    frame = frame_for(data(7, 0))  # someone else's frame, passing through
    mac.on_frame(frame, mac.ports[0])
    sim.run(until=sim.now + 1)  # the pick: frame moves into the register
    assert mac._tx_busy and not mac._transit and not mac._transit_priority
    mac.teardown("fault")
    sim.run(until=1_000_000)
    assert mac.counters["transit_lost_ring_down"] == 1
    assert mac.counters["tx_transit"] == 0
    assert mac.counters["transit_flushed"] == 0  # it had left the buffer
    assert not mac._tx_busy  # the engine went idle, not wedged


def test_teardown_with_local_frame_in_register_keeps_it():
    sim = Simulator()
    macs, _sw = two_node_ring(sim)
    mac = macs[0]
    mac.send(data(0, 1))
    sim.run(until=sim.now + 1)
    assert mac._tx_busy and not mac._insertion
    mac.teardown("fault")
    sim.run(until=1_000_000)
    assert len(mac._insertion) == 1  # back at the head, not lost
    assert mac.counters["transit_lost_ring_down"] == 0


def test_priority_frames_overtake_data_in_insertion():
    sim = Simulator()
    macs, _sw = two_node_ring(sim)
    order = []
    macs[1].on_deliver = lambda pkt, fr: order.append(pkt.channel)
    # Queue several data frames, then one priority frame.
    for k in range(5):
        macs[0].send(data(0, BROADCAST))
    pri = MicroPacket(
        ptype=MicroPacketType.DIAGNOSTIC, src=0, dst=BROADCAST,
        channel=14, flags=Flags.PRIORITY, payload=b"p",
    )
    macs[0].send(pri)
    sim.run(until=1_000_000)
    # Priority got out before at least some of the earlier data frames.
    assert order.index(14) < len(order) - 1


def test_transit_overflow_counted_when_buffer_tiny():
    sim = Simulator()
    macs, _sw = two_node_ring(
        sim, transit_capacity=1, enabled=False, transit_priority=False
    )
    for k in range(10):
        macs[0].send(data(0, BROADCAST))
        macs[1].send(data(1, BROADCAST))
    sim.run(until=2_000_000)
    drops = (
        macs[0].counters["transit_overflow_drop"]
        + macs[1].counters["transit_overflow_drop"]
    )
    assert drops > 0


def test_rx_while_ring_down_is_dropped_and_counted():
    sim = Simulator()
    macs, _sw = two_node_ring(sim)
    macs[1].teardown("down")
    macs[0].send(data(0, 1))
    sim.run(until=1_000_000)
    assert macs[1].counters["rx_ring_down_drop"] >= 1


def test_orphan_scrubbed_after_excess_hops():
    sim = Simulator()
    macs, _sw = two_node_ring(sim)
    # Forge a transit frame from a source not on the roster (id 7):
    frame = frame_for(data(7, 1))
    frame.hops = 10
    macs[1].on_frame(frame, macs[1].ports[0])
    sim.run(until=100_000)
    assert macs[1].counters["orphans_scrubbed"] == 1


# ------------------------------------------------------------------ pacing
def scheduled_entries(sim):
    return sim.scheduler_stats()["pending_entries"]


def count_empty_picks(mac):
    """How often a pick came up empty and asked when the gap ends."""
    asked = []
    earliest_insert = mac.controller.earliest_insert

    def spy():
        asked.append(earliest_insert())
        return asked[-1]

    mac.controller.earliest_insert = spy
    return asked


def test_one_pacing_wakeup_per_mac_however_often_its_pick_finds_the_gap():
    """Both nodes insert a frame at the same instant and have a second
    waiting out the 5 µs pacing gap.  Each MAC's pick comes up empty at
    the hold's end, again behind the peer's frame it forwarded, again
    when its own frame is stripped and again on a third send: one gap
    end, one wake-up on the schedule — the MAC's own, so two for two
    MACs whose gaps end in the same instant."""
    sim = Simulator()
    macs, _sw = two_node_ring(sim, min_gap_ns=5_000, window_override=4)
    asked = [count_empty_picks(mac) for mac in macs]
    for mac in macs:
        mac.send(data(mac.node_id, BROADCAST))
        mac.send(data(mac.node_id, BROADCAST))
    sim.run(until=3_000)
    for mac in macs:
        mac.send(data(mac.node_id, BROADCAST))
    sim.run(until=4_000)
    gap_end = NODE_TRANSIT_NS + 5_000
    assert asked[0] == asked[1] and set(asked[0]) == {gap_end}
    assert len(asked[0]) >= 3
    assert scheduled_entries(sim) == 2
    sim.run(until=gap_end + NODE_TRANSIT_NS)
    assert [mac.counters["tx_inserted"] for mac in macs] == [2, 2]


def test_pacing_wakeup_superseded_by_a_later_gap_end_does_nothing():
    """A priority cell skips the pacing gap but restarts it: the data
    frame waiting for the first gap end now waits for the second, and
    the wake-up posted for the first fires into nothing."""
    sim = Simulator()
    (mac, _peer), _sw = two_node_ring(sim, min_gap_ns=5_000, window_override=4)
    mac.send(data(0, BROADCAST))
    waiting = mac.send(data(0, BROADCAST))
    first_end = NODE_TRANSIT_NS + 5_000
    sim.run(until=2_000)
    assert scheduled_entries(sim) == 1
    mac.send(MicroPacket(ptype=MicroPacketType.DATA, src=0, dst=BROADCAST,
                         flags=Flags.PRIORITY, payload=b"p" * 8))
    sim.run(until=first_end - 1)
    second_end = 2_000 + NODE_TRANSIT_NS + 5_000
    assert mac.controller.earliest_insert() == second_end
    assert scheduled_entries(sim) == 2  # the stale wake-up and the live one
    before = sim.events_processed
    sim.run(until=second_end - 1)
    assert sim.events_processed == before + 1  # fired, kicked nothing
    assert list(mac._insertion) == [waiting]
    sim.run(until=second_end + NODE_TRANSIT_NS)
    assert waiting.inserted_at == second_end + NODE_TRANSIT_NS


def test_the_frame_ledger_balances_between_every_two_entries():
    """``RingMAC.balanced`` holds at every instant, not only at rest: a
    six-node ring under a broadcast storm, with a fibre cut and restored
    mid-run (lost tours, flushed buffers, a re-roster).  Frames held in
    the insertion register and the transit buffers count as held."""
    from repro import AmpNetCluster
    cluster = AmpNetCluster(n_nodes=6, n_switches=2)
    cluster.start()
    cluster.run_until_ring_up()
    macs = [node.mac for node in cluster.nodes.values()]
    held = []

    def check(_entry):
        assert all(mac.balanced() for mac in macs)
        held.append(any(mac._tx_frame is not None and not mac._tx_inserted
                        for mac in macs))

    tour = cluster.tour_estimate_ns
    for k in range(40):
        for node in cluster.nodes.values():
            cluster.sim.call_in(k * tour // 4, node.messenger.send,
                                BROADCAST, bytes(100), 13)
    cluster.sim.call_in(3 * tour, cluster.cut_link, 2, 0)
    cluster.sim.call_in(9 * tour, cluster.restore_link, 2, 0)
    cluster.sim.on_event = check
    cluster.run(until=cluster.sim.now + 60 * tour)
    assert any(held)
    counters = [mac.counters for mac in macs]
    assert sum(c["tours_lost"] for c in counters) > 0
    assert sum(c["tours_completed"] for c in counters) > 0
