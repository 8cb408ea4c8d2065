"""Unit tests for AmpDK pieces: election, assimilation policy, ledger."""

import pytest

from repro.hostapi import SequenceLedger
from repro.kernel import ControlGroup, ControlGroupConfig
from repro.rostering import Roster


# ------------------------------------------------------------ election
class _StubNode:
    """Just enough of AmpNode for ControlGroup's constructor."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.ring_up_listeners = []
        self.ring_down_listeners = []
        self.sim = None
        self.cache = None
        self.tracer = None


def elect(members, qualification, roster_members):
    group = ControlGroup.__new__(ControlGroup)  # election is pure
    group.config = ControlGroupConfig(
        name="t", members=members, qualification=qualification
    )
    roster = Roster(1, tuple(roster_members),
                    tuple([0] * len(roster_members)) if len(roster_members) > 1 else ())
    return ControlGroup.elect(group, roster)


def test_elect_highest_qualification():
    assert elect([0, 1, 2], {0: 1, 1: 9, 2: 5}, [0, 1, 2]) == 1


def test_elect_ties_break_to_lowest_id():
    assert elect([0, 1, 2], {}, [0, 1, 2]) == 0
    assert elect([2, 3], {2: 5, 3: 5}, [2, 3]) == 2


def test_elect_ignores_dead_members():
    assert elect([0, 1, 2], {0: 9, 1: 5}, [1, 2]) == 1


def test_elect_none_when_no_member_alive():
    assert elect([0, 1], {}, [4, 5]) is None


def test_elect_nonmember_rosters_dont_count():
    # Node 7 is rostered but not a group member.
    assert elect([0, 1], {1: 3}, [1, 7]) == 1


# ------------------------------------------------------------------- ledger
def test_ledger_accepts_clean_sequence():
    ledger = SequenceLedger()
    for s in range(1, 6):
        ledger.ack(s, node_id=0)
    ledger.verify_no_loss_no_fork()
    assert ledger.last_acked == 5


def test_ledger_allows_gap_across_failover():
    ledger = SequenceLedger()
    ledger.ack(1, node_id=0)
    ledger.ack(2, node_id=0)
    ledger.ack(4, node_id=1)  # unit 3 died with node 0: legal
    ledger.verify_no_loss_no_fork()


def test_ledger_rejects_gap_within_one_primary():
    ledger = SequenceLedger()
    ledger.ack(1, node_id=0)
    ledger.ack(3, node_id=0)
    with pytest.raises(AssertionError):
        ledger.verify_no_loss_no_fork()


def test_ledger_rejects_duplicates_and_regressions():
    ledger = SequenceLedger()
    ledger.ack(1, node_id=0)
    ledger.ack(1, node_id=1)
    with pytest.raises(AssertionError):
        ledger.verify_no_loss_no_fork()
    ledger2 = SequenceLedger()
    ledger2.ack(5, node_id=0)
    ledger2.ack(4, node_id=1)
    with pytest.raises(AssertionError):
        ledger2.verify_no_loss_no_fork()


def test_ledger_empty_is_valid():
    SequenceLedger().verify_no_loss_no_fork()
    assert SequenceLedger().last_acked == 0
