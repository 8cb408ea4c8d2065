"""Baseline substrate tests: Ethernet drops, failover timing, token ring."""

import pytest

from repro.baselines import EthernetFabric, TcpFailoverPair, TokenRing
from repro.baselines.tcp_failover import HEARTBEAT_INTERVAL_NS, MISSED_BEATS
from repro.sim import Simulator


# ----------------------------------------------------------------- ethernet
def test_ethernet_delivers_uncongested_frame():
    sim = Simulator()
    fabric = EthernetFabric(sim, 4)
    got = []
    fabric.nodes[1].on_receive = got.append
    fabric.nodes[0].send(1, 1000, tag=("seg", 0))
    sim.run()
    assert len(got) == 1 and got[0].size_bytes == 1000


def test_ethernet_burst_overflows_egress_queue():
    sim = Simulator()
    fabric = EthernetFabric(sim, 8, egress_capacity=4)
    # Seven senders burst 20 frames each at one destination.
    for src in range(1, 8):
        for _ in range(20):
            fabric.nodes[src].send(0, 1500, tag=("seg", 0))
    sim.run()
    assert fabric.counters["drops"] > 0
    assert (
        fabric.counters["delivered"] + fabric.counters["drops"]
        == fabric.counters["offered"]
    )


def test_ethernet_loopback_rejected():
    sim = Simulator()
    fabric = EthernetFabric(sim, 2)
    with pytest.raises(ValueError):
        fabric.nodes[0].send(0, 100)


def test_ethernet_fifo_per_destination():
    sim = Simulator()
    fabric = EthernetFabric(sim, 3)
    got = []
    fabric.nodes[2].on_receive = lambda f: got.append(f.tag[1])
    for i in range(5):
        fabric.nodes[0].send(2, 500, tag=("seg", i))
    sim.run()
    assert got == [0, 1, 2, 3, 4]


# ----------------------------------------------------------- tcp failover
def test_tcp_failover_detection_latency_band():
    sim = Simulator()
    pair = TcpFailoverPair(sim)
    sim.call_in(500_000_000, pair.crash_primary)  # crash at 0.5 s
    sim.run(until=3_000_000_000)
    report = pair.report
    assert report.detected_at is not None
    # Detection needs at least the missed-beat budget, at most budget +
    # one check interval (plus in-flight slack).
    lo = HEARTBEAT_INTERVAL_NS * MISSED_BEATS
    hi = HEARTBEAT_INTERVAL_NS * (MISSED_BEATS + 2)
    assert lo <= report.detection_ns <= hi


def test_tcp_failover_loses_acked_writes():
    sim = Simulator()
    pair = TcpFailoverPair(sim)
    sim.call_in(500_000_000, pair.crash_primary)
    sim.run(until=3_000_000_000)
    report = pair.report
    assert report.acked > 0
    # Async replication: some acknowledged writes never reached the backup.
    assert report.lost_writes > 0
    assert report.resumed_from <= report.acked


def test_tcp_failover_no_crash_no_detection():
    sim = Simulator()
    pair = TcpFailoverPair(sim)
    sim.run(until=1_000_000_000)
    assert pair.report.detected_at is None
    assert pair.report.replicated > 0  # replication is flowing


# ---------------------------------------------------------------- token ring
def test_token_ring_delivers_everything():
    sim = Simulator()
    ring = TokenRing(sim, 4)
    for src in range(4):
        for k in range(10):
            ring.send(src, (src + 1 + k) % 4 if (src + 1 + k) % 4 != src else (src + 1) % 4)
    sim.run(until=50_000_000)
    assert ring.counters["delivered"] == ring.counters["offered"]


def test_token_ring_latency_includes_token_wait():
    sim = Simulator()
    ring = TokenRing(sim, 8, fiber_m=100.0)
    # One frame queued at station 7 right as the token starts at 0:
    ring.send(7, 0)
    sim.run(until=10_000_000)
    assert ring.counters["delivered"] == 1
    # It waited for the token to rotate most of the ring first.
    assert ring.latency.minimum() > 7 * 0  # sanity
    assert ring.latency.mean() > 0


def test_token_ring_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        TokenRing(sim, 1)
    ring = TokenRing(sim, 3)
    with pytest.raises(ValueError):
        ring.send(1, 1)
