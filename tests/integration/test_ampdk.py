"""Integration: AmpDK heartbeats, certification, refresh provider rules."""

import pytest

from repro import AmpNetCluster
from repro.kernel.ampdk import HEARTBEAT_CHANNEL
from repro.micropacket import BROADCAST, MicroPacket, MicroPacketType
from repro.services import AmpFiles


def make_cluster(n_nodes=4, n_switches=2, **kw):
    cluster = AmpNetCluster(n_nodes=n_nodes, n_switches=n_switches, **kw)
    cluster.start()
    cluster.run_until_ring_up()
    return cluster


def settle(cluster, tours=50):
    cluster.run(until=cluster.sim.now + tours * cluster.tour_estimate_ns)


def heartbeat_detection_times(cluster):
    """Times of heartbeat-timeout triggers (roster_trigger records)."""
    return [
        r.time
        for r in cluster.tracer.select(category="roster_trigger")
        if "heartbeat" in r.data.get("reason", "")
    ]


# ----------------------------------------------------------------- heartbeat
def test_heartbeats_flow_between_all_members():
    cluster = make_cluster()
    cluster.run(until=cluster.sim.now + 3_000_000)  # a few intervals
    for nid, kernel in cluster.kernels.items():
        assert kernel.counters["heartbeats_sent"] > 0, nid
        assert kernel.counters["heartbeats_seen"] > 0, nid


def test_node_crash_detected_within_millisecond_band():
    cluster = make_cluster(n_nodes=6, n_switches=4)
    cluster.run(until=cluster.sim.now + 3_000_000)
    crash_time = cluster.sim.now
    cluster.crash_node(5)
    cluster.run_until_reroster()
    detections = [
        t for t in heartbeat_detection_times(cluster) if t > crash_time
    ]
    assert detections
    latency = min(detections) - crash_time
    cfg = cluster.kernels[0].config
    assert latency <= cfg.heartbeat_timeout_ns + 2 * cfg.check_interval_ns


def test_no_false_positives_on_healthy_ring():
    cluster = make_cluster()
    cluster.run(until=cluster.sim.now + 10_000_000)  # 10 ms of calm
    assert not heartbeat_detection_times(cluster)
    assert sum(k.counters["peer_timeouts"] for k in cluster.kernels.values()) == 0


def test_heartbeat_from_outside_the_roster_is_tracked_until_silent():
    """A beat from a sender the roster did not name (here a stray id past
    every member's) is tracked like a peer's, so its silence triggers."""
    cluster = make_cluster()
    kernel = cluster.kernels[0]
    stray = MicroPacket(ptype=MicroPacketType.DIAGNOSTIC, src=9, dst=BROADCAST,
                        channel=HEARTBEAT_CHANNEL, payload=b"HB")
    kernel._on_heartbeat(stray, None)
    heard_at = cluster.sim.now
    cluster.run(until=heard_at + 2 * kernel.config.heartbeat_timeout_ns)
    reasons = [
        (r.time, r.data["reason"])
        for r in cluster.tracer.select(category="roster_trigger")
        if "heartbeat" in r.data.get("reason", "")
    ]
    assert reasons and reasons[0][1] == "heartbeat timeout: peers [9] silent"
    assert reasons[0][0] > heard_at + kernel.config.heartbeat_timeout_ns


def test_heartbeats_not_sent_on_singleton_ring():
    cluster = make_cluster(n_nodes=2, n_switches=1)
    cluster.crash_node(1)
    cluster.run_until_reroster()
    before = cluster.kernels[0].counters["heartbeats_sent"]
    cluster.run(until=cluster.sim.now + 3_000_000)
    assert cluster.kernels[0].counters["heartbeats_sent"] == before


# -------------------------------------------------------------- certification
def test_every_roster_round_gets_certified():
    cluster = make_cluster(n_nodes=6, n_switches=4)
    settle(cluster)
    roster = cluster.current_roster()
    cluster.cut_link(2, roster.hop_switch_from(2))
    cluster.run_until_reroster()
    settle(cluster, tours=50)
    certs = cluster.tracer.select(category="ring_certified")
    rounds_certified = {r.data["round"] for r in certs}
    assert cluster.current_roster().round_no in rounds_certified


def test_certifier_is_lowest_member():
    cluster = make_cluster()
    settle(cluster)
    certs = cluster.tracer.select(category="ring_certified")
    assert certs and all(r.source == "ampdk-0" for r in certs)


# ------------------------------------------------------------ refresh rules
def test_refresh_provider_is_lowest_other_member():
    cluster = make_cluster(n_nodes=6, n_switches=4)
    AmpFiles(cluster.nodes[1]).write_file("f", b"data")
    settle(cluster)
    cluster.crash_node(2)
    cluster.run_until_reroster()
    cluster.recover_node(2)
    cluster.run_until_reroster()
    settle(cluster, tours=300)
    served = {
        nid: n.refresh.counters["snapshots_served"]
        for nid, n in cluster.nodes.items()
    }
    assert served[0] == 1  # lowest-id other member serves
    assert sum(served.values()) == 1  # exactly one provider answered


def test_crashed_lowest_node_is_not_provider():
    cluster = make_cluster(n_nodes=6, n_switches=4)
    AmpFiles(cluster.nodes[1]).write_file("f", b"data")
    settle(cluster)
    cluster.crash_node(0)
    cluster.run_until_reroster()
    cluster.crash_node(2)
    cluster.run_until_reroster()
    cluster.recover_node(2)
    cluster.run_until_reroster()
    settle(cluster, tours=300)
    assert cluster.nodes[2].refresh.warm
    assert cluster.nodes[1].refresh.counters["snapshots_served"] == 1


def test_cold_node_does_not_serve_refresh():
    """Two nodes crash; the first to recover must not feed emptiness to
    the second."""
    cluster = make_cluster(n_nodes=6, n_switches=4)
    AmpFiles(cluster.nodes[1]).write_file("f", b"the good stuff")
    settle(cluster)
    cluster.crash_node(4)
    cluster.run_until_reroster()
    cluster.crash_node(5)
    cluster.run_until_reroster()
    cluster.recover_node(4)
    cluster.recover_node(5)
    cluster.run_until_reroster()
    settle(cluster, tours=500)
    assert cluster.nodes[4].refresh.warm
    assert cluster.nodes[5].refresh.warm
    assert AmpFiles(cluster.nodes[4]).read_file_now("f") == b"the good stuff"
    assert AmpFiles(cluster.nodes[5]).read_file_now("f") == b"the good stuff"
