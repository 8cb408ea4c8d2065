"""Switch forwarding/flooding and redundant topology builder tests."""

from dataclasses import replace

import pytest

from repro.micropacket import MicroPacket, MicroPacketType
from repro.phys import (
    Port,
    Switch,
    build_switched,
    frame_for,
    ring_tour_estimate_ns,
)
from repro.phys.link import Fiber
from repro.rostering import encode_explore
from repro.sim import Simulator


def data_pkt(src=0, dst=1):
    return MicroPacket(ptype=MicroPacketType.DATA, src=src, dst=dst, payload=b"x")


def switch_with_endpoints(sim, n=4):
    """A switch with n external ports, each wired to a capture port."""
    sw = Switch(sim, 0, n_ports=n)
    eps = []
    inboxes = []
    for i in range(n):
        ep = Port(f"ep{i}")
        fiber = Fiber(sim, ep, sw.ports[i], 10.0)
        sw.attach_fiber(fiber)
        box = []
        ep.on_frame = lambda f, p, b=box: b.append(f)
        eps.append(ep)
        inboxes.append(box)
    return sw, eps, inboxes


# ----------------------------------------------------------------- switching
def test_ring_map_forwards_between_ports():
    sim = Simulator()
    sw, eps, boxes = switch_with_endpoints(sim)
    sw.configure_ring({0: 1, 1: 2, 2: 3, 3: 0})
    eps[0].tx_link.transmit(frame_for(data_pkt()))
    sim.run()
    assert len(boxes[1]) == 1
    assert all(not b for i, b in enumerate(boxes) if i != 1)


def test_unmapped_ingress_drops_and_counts():
    sim = Simulator()
    sw, eps, boxes = switch_with_endpoints(sim)
    eps[0].tx_link.transmit(frame_for(data_pkt()))
    sim.run()
    assert all(not b for b in boxes)
    assert sw.counters["no_route_drop"] == 1


def test_ring_map_validation():
    sim = Simulator()
    sw, _eps, _boxes = switch_with_endpoints(sim)
    with pytest.raises(ValueError):
        sw.configure_ring({0: 9})


def test_failed_switch_forwards_nothing():
    sim = Simulator()
    sw, eps, boxes = switch_with_endpoints(sim)
    sw.configure_ring({0: 1})
    sw.fail()
    sim.run()  # let carrier transitions settle
    assert eps[0].tx_link.transmit(frame_for(data_pkt())) is False
    sim.run()
    assert all(not b for b in boxes)


def test_switch_repair_restores_carrier():
    sim = Simulator()
    sw, eps, _boxes = switch_with_endpoints(sim)
    sw.fail()
    sim.run()
    assert not eps[0].carrier_up
    sw.repair()
    sim.run()
    assert eps[0].carrier_up


# ------------------------------------------------------------------ flooding
def test_rostering_frame_floods_to_all_other_ports():
    sim = Simulator()
    sw, eps, boxes = switch_with_endpoints(sim)
    eps[0].tx_link.transmit(frame_for(encode_explore(origin=0, round_no=1)))
    sim.run()
    assert not boxes[0]
    assert all(len(boxes[i]) == 1 for i in (1, 2, 3))


def test_flood_duplicate_suppressed():
    sim = Simulator()
    sw, eps, boxes = switch_with_endpoints(sim)
    pkt = encode_explore(origin=0, round_no=1)
    eps[0].tx_link.transmit(frame_for(pkt))
    eps[1].tx_link.transmit(frame_for(pkt))  # same key arriving elsewhere
    sim.run()
    total = sum(len(b) for b in boxes)
    assert total == 3
    assert sw.counters["flood_duplicate"] == 1


def test_flood_different_round_not_suppressed():
    sim = Simulator()
    sw, eps, boxes = switch_with_endpoints(sim)
    eps[0].tx_link.transmit(frame_for(encode_explore(origin=0, round_no=1)))
    eps[0].tx_link.transmit(frame_for(encode_explore(origin=0, round_no=2)))
    sim.run()
    assert sum(len(b) for b in boxes) == 6


def test_explore_hop_count_does_not_defeat_suppression():
    sim = Simulator()
    sw, eps, boxes = switch_with_endpoints(sim)
    explore = encode_explore(origin=0, round_no=1)
    counted = replace(
        explore, payload=explore.payload[:3] + b"\x03" + explore.payload[4:]
    )
    eps[0].tx_link.transmit(frame_for(explore))
    eps[1].tx_link.transmit(frame_for(counted))
    sim.run()
    assert sum(len(b) for b in boxes) == 3


def test_flood_skips_dark_ports():
    sim = Simulator()
    sw, eps, boxes = switch_with_endpoints(sim)
    sw.attached_fibers[2].cut()
    sim.run()
    eps[0].tx_link.transmit(frame_for(encode_explore(origin=0, round_no=1)))
    sim.run()
    assert len(boxes[1]) == 1 and len(boxes[3]) == 1
    assert not boxes[2]


# ---------------------------------------------------------------- topologies
def test_quad_redundant_matches_slide_14():
    sim = Simulator()
    topo = build_switched(sim, 6, 4)
    assert topo.n_nodes == 6
    assert len(topo.switches) == 4
    assert len(topo.fibers) == 24  # full bipartite 6x4
    for i in range(6):
        assert len(topo.ports_of(i)) == 4


def test_dual_redundant_has_two_switches():
    sim = Simulator()
    topo = build_switched(sim, 4, 2)
    assert len(topo.switches) == 2
    assert len(topo.fibers) == 8


def test_builder_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        build_switched(sim, 1, 2)
    with pytest.raises(ValueError):
        build_switched(sim, 4, 5)


def test_live_attachment_ground_truth():
    sim = Simulator()
    topo = build_switched(sim, 6, 4)
    live = topo.live_attachment()
    assert all(live[k] == set(range(6)) for k in range(4))
    topo.cut_link(2, 1)
    topo.fail_switch(3)
    live = topo.live_attachment()
    assert live[1] == {0, 1, 3, 4, 5}
    assert live[3] == set()
    assert live[0] == set(range(6))


def test_node_dark_removes_node_from_all_switches():
    sim = Simulator()
    topo = build_switched(sim, 6, 4)
    topo.node_dark(4)
    live = topo.live_attachment()
    assert all(4 not in live[k] for k in range(4))
    topo.node_lit(4)
    live = topo.live_attachment()
    assert all(4 in live[k] for k in range(4))


def test_cut_and_restore_link_roundtrip():
    sim = Simulator()
    topo = build_switched(sim, 3, 2)
    topo.cut_link(0, 0)
    assert 0 not in topo.live_attachment()[0]
    topo.restore_link(0, 0)
    assert 0 in topo.live_attachment()[0]


# --------------------------------------------------------------- tour model
def test_ring_tour_estimate_scales_with_nodes_and_fiber():
    t_small = ring_tour_estimate_ns(4, 50.0)
    t_nodes = ring_tour_estimate_ns(8, 50.0)
    t_fiber = ring_tour_estimate_ns(4, 5000.0)
    assert t_nodes == 2 * t_small
    assert t_fiber > 10 * t_small


def test_ring_tour_estimate_millisecond_band_for_campus_fiber():
    """Slide 16: 1-2 ms depending on node count and fibre length.

    Two tours over a 16-node segment with 10 km runs must land in the
    millisecond band.
    """
    two_tours = 2 * ring_tour_estimate_ns(16, 10_000.0)
    assert 1_000_000 <= two_tours <= 5_000_000
