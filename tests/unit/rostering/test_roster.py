"""Roster computation tests: largest-ring construction over cliques."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rostering import Roster, RosterError, compute_roster
from repro.rostering.roster import hop_switches


# ----------------------------------------------------------------- dataclass
def test_roster_basic_accessors():
    r = Roster(1, (0, 2, 5), (0, 0, 0))
    assert r.size == 3
    assert 2 in r and 1 not in r
    assert r.index_of(2) == 1 and r.index_of(5) == 2
    assert r.hop_switch_from(5) == 0


def test_roster_validation():
    with pytest.raises(RosterError):
        Roster(1, (0, 0), (1, 1))  # duplicate member
    with pytest.raises(RosterError):
        Roster(1, (0, 1), (1,))  # hop count mismatch
    with pytest.raises(RosterError):
        Roster(1, (), ())
    with pytest.raises(RosterError):
        Roster(1, (3,), (0,))  # singleton with hops


def test_roster_switch_maps():
    r = Roster(1, (0, 1, 2), (0, 0, 1))
    maps = r.switch_maps()
    assert maps[0] == {0: 1, 1: 2}
    assert maps[1] == {2: 0}


def test_roster_index_of_missing_raises():
    r = Roster(1, (0, 1), (0, 0))
    with pytest.raises(RosterError):
        r.index_of(9)


def test_validate_against_attachment():
    r = Roster(1, (0, 1), (0, 0))
    r.validate_against({0: {0, 1}})
    with pytest.raises(RosterError):
        r.validate_against({0: {0}})


def installed(attachment):
    """The roster an agent installs for ``attachment``: the computed
    ring order, with each hop on the switch :func:`hop_switches` picks
    from the live ports both ends report (None when no node is
    attached)."""
    members = compute_roster(attachment)
    if members is None:
        return None
    live_ports = {}
    for sw, nodes in attachment.items():
        for node in nodes:
            live_ports[node] = live_ports.get(node, 0) | 1 << sw
    hops = hop_switches(members, live_ports)
    assert hops is not None, f"no common live switch on a hop of {members}"
    return Roster(1, members, hops)


# ----------------------------------------------------------- single switch
def test_all_nodes_one_switch():
    roster = installed({0: {0, 1, 2, 3}})
    assert roster is not None
    assert roster.members == (0, 1, 2, 3)
    assert roster.hop_switches == (0, 0, 0, 0)
    roster.validate_against({0: {0, 1, 2, 3}})


def test_best_single_switch_wins():
    attachment = {0: {0, 1}, 1: {0, 1, 2, 3}, 2: {4, 5}}
    members = compute_roster(attachment)
    assert members is not None and set(members) == {0, 1, 2, 3}
    installed(attachment).validate_against(attachment)


def test_empty_attachment_gives_none():
    assert compute_roster({}) is None
    assert compute_roster({0: set()}) is None


def test_single_node_singleton_roster():
    roster = installed({2: {7}})
    assert roster is not None
    assert roster.members == (7,) and roster.hop_switches == ()


def test_two_nodes_same_switch():
    roster = installed({1: {3, 4}})
    assert roster.members == (3, 4)
    assert roster.hop_switches == (1, 1)
    maps = roster.switch_maps()
    assert maps[1] == {3: 4, 4: 3}


def test_isolated_nodes_fall_back_to_singleton():
    # Two nodes on different switches with no shared switch: no 2-ring.
    assert compute_roster({0: {1}, 1: {2}}) == (1,)  # deterministic: lowest id


# ------------------------------------------------------------ multi switch
def test_bridged_ring_covers_both_switches():
    # Switch 0: {0,1,2}; switch 1: {1, 2, 3, 4}: bridges exist (1 and 2).
    attachment = {0: {0, 1, 2}, 1: {1, 2, 3, 4}}
    roster = installed(attachment)
    assert roster is not None
    assert set(roster.members) == {0, 1, 2, 3, 4}
    roster.validate_against(attachment)


def test_bridge_requires_two_distinct_nodes():
    # Only one shared node: a cycle would visit it twice => not allowed.
    attachment = {0: {0, 1, 2}, 1: {2, 3, 4}}
    roster = installed(attachment)
    assert roster is not None
    assert roster.size == 3  # best single switch
    roster.validate_against(attachment)


def test_three_switch_chain():
    attachment = {
        0: {0, 1, 2, 3},
        1: {3, 4, 5, 6},
        2: {6, 7, 0},
    }
    roster = installed(attachment)
    assert roster is not None
    assert set(roster.members) == set(range(8))
    roster.validate_against(attachment)


def test_hub_switch_reused_twice_in_chain():
    # s1 and s2 only connect through s0 (two disjoint bridge pairs).
    attachment = {
        0: {0, 1, 2, 3},
        1: {0, 1, 4, 5},
        2: {2, 3, 6, 7},
    }
    roster = installed(attachment)
    assert roster is not None
    assert set(roster.members) == set(range(8))
    roster.validate_against(attachment)


def test_deterministic_output():
    attachment = {0: {0, 1, 2}, 1: {1, 2, 3}, 2: {2, 3, 4}}
    a = compute_roster(attachment)
    b = compute_roster({k: set(v) for k, v in attachment.items()})
    assert a == b


@st.composite
def attachments(draw):
    n_sw = draw(st.integers(1, 4))
    n_nodes = draw(st.integers(1, 10))
    att = {}
    for sw in range(n_sw):
        members = draw(
            st.sets(st.integers(0, n_nodes - 1), min_size=0, max_size=n_nodes)
        )
        att[sw] = members
    return att


@given(attachments())
@settings(max_examples=150, deadline=None)
def test_computed_roster_is_always_physically_valid(attachment):
    """The hops production installs over the computed order always
    exist (``installed`` asserts it) and are live on both ends."""
    roster = installed(attachment)
    if roster is None:
        assert all(not v for v in attachment.values())
        return
    # Valid: every hop realizable, members unique, all members attached.
    roster.validate_against(attachment)
    everyone = set().union(*attachment.values()) if attachment else set()
    assert set(roster.members) <= everyone


@given(attachments())
@settings(max_examples=150, deadline=None)
def test_roster_at_least_best_single_switch(attachment):
    members = compute_roster(attachment)
    best_single = max((len(v) for v in attachment.values()), default=0)
    if members is None:
        assert best_single == 0
    else:
        assert len(members) >= min(best_single, max(best_single, 1))


def test_quad_redundant_survives_three_switch_failures():
    # Slide 14 topology with only one switch left: full ring via it.
    full = {3: set(range(6))}
    roster = installed(full)
    assert roster.size == 6
    assert set(roster.hop_switches) == {3}
