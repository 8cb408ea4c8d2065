"""Integration tests for gossip membership across the full stack.

The acceptance scenario: a 16-node cluster with one crashed node must
converge (every live node marks it DEAD) within a bounded number of
protocol periods, deterministically under a fixed seed.  Around it:
steady-state accuracy (no false verdicts), crash/recover resurrection
under a fresh incarnation, roster consumption of gossip verdicts, and
churn via the flap and partition fault actions.
"""

import pytest

from repro import AmpNetCluster, ClusterConfig
from repro.faults import FaultSchedule
from repro.membership import PeerStatus
from repro.membership.wire import ENTRY_BYTES
from repro.transport import Channel


def make_cluster(n_nodes=16, seed=42, **kwargs):
    cluster = AmpNetCluster(
        config=ClusterConfig(
            n_nodes=n_nodes, n_switches=2, seed=seed, membership=True, **kwargs
        )
    )
    cluster.start()
    cluster.run_until_ring_up()
    return cluster


def test_sixteen_node_crash_converges_within_bounded_periods():
    cluster = make_cluster()
    cfg = cluster._membership_cfg
    cluster.run(until=cluster.sim.now + 10 * cfg.period_ns)
    assert cluster.membership_converged()

    victim = 11
    t_crash = cluster.sim.now
    cluster.crash_node(victim)
    cluster.run_until_membership_converged(dead={victim})

    observers = [f"member-{n.node_id}" for n in cluster.live_nodes()]
    detect = cluster.convergence.time_to_detect(victim, since=t_crash)
    converge = cluster.convergence.time_to_converge(victim, observers, since=t_crash)
    # Bounded: staleness + suspicion windows plus dissemination slack.
    bound = cfg.stale_after_ns + cfg.suspicion_window_ns + 8 * cfg.period_ns
    assert detect is not None and detect <= bound
    assert converge is not None and converge <= bound
    # Accuracy: nobody live got buried along the way.
    for node in cluster.live_nodes():
        assert node.membership.view.dead_ids() == [victim]


def test_sixteen_node_crash_is_deterministic_under_fixed_seed():
    def timeline(seed):
        cluster = make_cluster(seed=seed)
        cfg = cluster._membership_cfg
        cluster.run(until=cluster.sim.now + 5 * cfg.period_ns)
        cluster.crash_node(11)
        cluster.run_until_membership_converged(dead={11})
        return [
            (r.time, r.source, r.data["peer"], r.data["status"])
            for r in cluster.tracer.select(category="membership")
        ]

    assert timeline(7) == timeline(7)
    assert timeline(7) != timeline(8)


def test_steady_state_has_no_false_verdicts():
    cluster = make_cluster(n_nodes=8)
    cfg = cluster._membership_cfg
    cluster.run(until=cluster.sim.now + 40 * cfg.period_ns)
    bad = [
        r for r in cluster.tracer.select(category="membership")
        if r.data["status"] == "DEAD"
    ]
    assert bad == []
    assert cluster.membership_converged()


def test_recovered_node_resurrects_with_fresh_incarnation():
    cluster = make_cluster(n_nodes=8)
    cluster.crash_node(5)
    cluster.run_until_membership_converged(dead={5})
    cluster.recover_node(5)
    cluster.run_until_ring_up()
    cluster.run_until_membership_converged()
    assert cluster.nodes[5].membership.incarnation >= 1
    for node in cluster.live_nodes():
        state = node.membership.view.get(5)
        assert state is not None
        assert state.status != PeerStatus.DEAD
        assert state.incarnation >= 1


def test_flapping_node_ends_alive_everywhere():
    cluster = make_cluster(n_nodes=8)
    tour = cluster.tour_estimate_ns
    now = cluster.sim.now
    FaultSchedule().flap_node(
        now + 20 * tour, 3, flaps=2,
        down_ns=200 * tour, up_ns=600 * tour,
    ).arm(cluster)
    cluster.run(until=now + 2000 * tour)
    cluster.run_until_ring_up()
    cluster.run_until_membership_converged()
    flapper = cluster.nodes[3].membership
    assert flapper.incarnation >= 2  # one bump per recovery at least
    for node in cluster.live_nodes():
        assert node.membership.view.considers_live(3)


def test_partition_splits_views_and_heal_reconciles():
    cluster = make_cluster(n_nodes=8, seed=7)
    tour = cluster.tour_estimate_ns
    # Split down the middle (half the nodes keep half the switches),
    # then heal.
    sched = (
        FaultSchedule()
        .partition(300 * tour, (0, 1, 2, 3), (0,))
        .heal_partition(8300 * tour, (0, 1, 2, 3), (0,))
    )
    sched.arm(cluster)
    cluster.run(until=7000 * tour)
    # Mid-partition: each side runs its own ring and buries the other.
    side_a, side_b = {0, 1, 2, 3}, {4, 5, 6, 7}
    assert set(cluster.nodes[0].roster.members) == side_a
    assert set(cluster.nodes[7].roster.members) == side_b
    assert set(cluster.nodes[0].membership.view.dead_ids()) == side_b
    assert set(cluster.nodes[7].membership.view.dead_ids()) == side_a
    # After the heal: one ring again, and refutations clear every tombstone.
    cluster.run(until=9000 * tour)
    cluster.run_until_ring_up()
    assert set(cluster.current_roster().members) == side_a | side_b
    cluster.run_until_membership_converged()
    for node in cluster.live_nodes():
        assert node.membership.view.dead_ids() == []


def test_heal_restores_fibres_of_nodes_that_crashed_mid_partition():
    """A node that crashes during the partition and recovers after the
    heal must come back with full switch redundancy (regression: heal
    used to skip crashed nodes, leaving their cross-side fibres cut
    forever)."""
    cluster = make_cluster(n_nodes=6, seed=2)
    cluster.partition((0, 1, 2), (0,))
    cluster.run_until_reroster()
    cluster.crash_node(4)
    cluster.heal_partition((0, 1, 2), (0,))
    cluster.recover_node(4)
    cluster.run_until_ring_up()
    assert cluster.topology.fibers[(4, 0)].is_up
    assert cluster.topology.fibers[(4, 1)].is_up
    assert 4 in cluster.current_roster().members


def test_roster_consumes_membership_verdicts():
    cluster = make_cluster(n_nodes=6, membership_liveness=True)
    cfg = cluster._membership_cfg
    cluster.run(until=cluster.sim.now + 5 * cfg.period_ns)
    cluster.crash_node(4)
    cluster.run_until_membership_converged(dead={4})
    cluster.run_until_ring_up()
    # The healed roster excludes the dead node, and the master's agent
    # actually exercised the gossip liveness filter on the way there.
    roster = cluster.current_roster()
    assert 4 not in roster.members
    assert set(roster.members) == {0, 1, 2, 3, 5}


def test_membership_liveness_requires_membership():
    with pytest.raises(ValueError, match="membership_liveness"):
        AmpNetCluster(
            config=ClusterConfig(n_nodes=4, n_switches=2, membership_liveness=True)
        )


def test_malformed_membership_traffic_is_counted_and_dropped():
    """A probe cell of the wrong length and a digest naming an unknown
    status are dropped by the receiver, which counts them; the run goes
    on and the views still agree."""
    cluster = make_cluster(n_nodes=8)
    sender = cluster.nodes[0].messenger
    sender.signal(1, b"\x01\x02", Channel.MEMBERSHIP)
    sender.send(1, bytes([2, 7]) + bytes(ENTRY_BYTES - 2), Channel.MEMBERSHIP)
    cluster.run(until=cluster.sim.now + 200 * cluster.tour_estimate_ns)
    assert cluster.nodes[1].membership.counters["malformed_rx"] == 2
    assert cluster.membership_converged()
