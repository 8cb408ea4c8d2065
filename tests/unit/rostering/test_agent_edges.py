"""Edge-case tests for the rostering agent: round arithmetic, coalescing,
commit timeouts, version gating — driven on a real mini-topology."""

import pytest

from repro.node import AmpNode
from repro.phys import build_switched
from repro.ring import FlowControlConfig
from repro.rostering import AgentState
from repro.rostering.agent import COMMIT_TIMEOUT_FACTOR
from repro.sim import Simulator


def mini_cluster(n_nodes=3, window=20_000):
    """Nodes + agents on one switch, with manual switch configuration."""
    sim = Simulator()
    topo = build_switched(sim, n_nodes, 1)
    nodes = {}
    for node_id in topo.node_ids:
        node = AmpNode(sim, node_id, topo.ports_of(node_id),
                       report_window_ns=window)

        def configure(maps, roster, topo=topo):
            for sw in topo.switches:
                if not sw.failed:
                    sw.configure_ring(maps.get(sw.switch_id, {}))
                    sw.reset_flood_cache()

        node.agent.switch_configurator = configure
        nodes[node_id] = node
    return sim, topo, nodes


def test_round_number_wraps_mod_256():
    sim, _topo, nodes = mini_cluster()
    agent = nodes[0].agent
    agent.round_no = 255
    assert agent._is_newer_round(1)      # 255 -> 1 wraps forward
    assert not agent._is_newer_round(255)
    assert not agent._is_newer_round(200)  # far behind = stale
    agent.round_no = 5
    assert agent._is_newer_round(6)
    assert not agent._is_newer_round(4)


def test_newer_round_is_less_than_half_a_circle_ahead():
    """Across the wrap in both directions, and at the half-circle edge:
    255 -> 1 is a step forward, 1 -> 255 a step back; 127 ahead is newer,
    128 ahead is as far behind as ahead and is not."""
    _sim, _topo, nodes = mini_cluster()
    agent = nodes[0].agent
    agent.round_no = 255
    assert agent._is_newer_round(1)
    agent.round_no = 1
    assert not agent._is_newer_round(255)
    assert not agent._is_newer_round(1)
    assert agent._is_newer_round(128)
    assert not agent._is_newer_round(129)
    for here in range(256):
        agent.round_no = here
        newer = [r for r in range(256) if agent._is_newer_round(r)]
        assert newer == sorted((here + d) % 256 for d in range(1, 128))


def test_start_round_skips_zero_on_wrap():
    sim, _topo, nodes = mini_cluster()
    agent = nodes[0].agent
    agent.round_no = 255
    agent._start_round(256)
    assert agent.round_no == 1  # 0 means "no round" and is never used


def test_triggers_coalesce_while_exploring():
    sim, _topo, nodes = mini_cluster()
    agent = nodes[0].agent
    agent.trigger("first failure")
    round_before = agent.round_no
    agent.trigger("second failure during exploration")
    assert agent.round_no == round_before
    assert agent.counters["trigger_coalesced"] == 1


def test_full_bringup_and_master_identity():
    sim, _topo, nodes = mini_cluster()
    for node in nodes.values():
        node.boot()
    sim.run(until=1_000_000)
    assert all(n.agent.state == AgentState.OPERATIONAL for n in nodes.values())
    rosters = {n.agent.roster for n in nodes.values()}
    assert len(rosters) == 1
    # Master of the round is the lowest reporter.
    assert nodes[0].agent.is_master


def test_commit_timeout_escalates_round():
    """A member that heard a lower-id reporter defers to that master; if
    the master dies before committing, the commit timeout escalates."""
    sim, _topo, nodes = mini_cluster()
    from repro.phys.frame import frame_for
    from repro.rostering import encode_explore, encode_report

    agent = nodes[2].agent
    for port in nodes[2].ports:
        port.carrier_up = False  # silent drop: no handler side effects
    # Forge round-5 cells from node 0 (the phantom master-to-be).
    agent.on_cell(frame_for(encode_explore(origin=0, round_no=5)),
                  nodes[2].ports[0])
    agent.on_cell(
        frame_for(encode_report(origin=0, round_no=5, port_bitmap=1)),
        nodes[2].ports[0],
    )
    assert agent.round_no == 5
    assert not agent.is_master  # node 0 outranks it
    sim.run(until=int(agent.report_window_ns
                      * COMMIT_TIMEOUT_FACTOR * 4))
    assert agent.counters["commit_timeouts"] >= 1
    assert agent.round_no != 5


def test_lone_node_forms_singleton_roster():
    sim, _topo, nodes = mini_cluster()
    for port in nodes[1].ports:
        port.carrier_up = False
    nodes[1].boot()
    sim.run(until=2_000_000)
    agent = nodes[1].agent
    assert agent.state == AgentState.OPERATIONAL
    assert agent.roster.members == (1,)


def test_version_incompatible_node_excluded_and_stays_down():
    sim, _topo, nodes = mini_cluster()
    old = nodes[2].agent
    old.version = (0, 5)
    for node in nodes.values():
        node.boot()
    sim.run(until=3_000_000)
    assert nodes[0].agent.roster is not None
    assert set(nodes[0].agent.roster.members) == {0, 1}
    assert nodes[2].agent.state == AgentState.DOWN
    assert nodes[0].agent.counters["version_rejected"] >= 1


def test_report_bitmap_reflects_carrier():
    sim, topo, nodes = mini_cluster()
    agent = nodes[0].agent
    assert agent.live_port_bitmap() == 0b1
    topo.cut_link(0, 0)
    sim.run(until=50_000)  # debounce
    assert agent.live_port_bitmap() == 0


def test_join_fallback_triggers_own_round():
    sim, _topo, nodes = mini_cluster()
    # Node 0 joins an empty network; nobody answers its JOIN.
    nodes[0].agent.request_join()
    window = nodes[0].agent.report_window_ns
    sim.run(until=int(window * 10))
    assert nodes[0].agent.state == AgentState.OPERATIONAL


def test_stale_explore_ignored():
    sim, _topo, nodes = mini_cluster()
    for node in nodes.values():
        node.boot()
    sim.run(until=1_000_000)
    agent = nodes[0].agent
    round_now = agent.round_no
    from repro.rostering import encode_explore
    from repro.phys.frame import frame_for

    stale = encode_explore(origin=1, round_no=(round_now - 1) % 256 or 255)
    agent.on_cell(frame_for(stale), nodes[0].ports[0])
    assert agent.round_no == round_now
    assert agent.state == AgentState.OPERATIONAL
