"""Build-time validation of fault schedules: bad targets fail loudly at
arm time with a clear message, never as a KeyError mid-simulation."""

import pytest

from repro import AmpNetCluster
from repro.faults import FaultAction, FaultKind, FaultSchedule, FaultScheduleError


@pytest.fixture()
def cluster():
    return AmpNetCluster(n_nodes=4, n_switches=2)


def test_crash_unknown_node_rejected(cluster):
    sched = FaultSchedule().crash_node(1_000, 9)
    with pytest.raises(FaultScheduleError, match=r"node 9.*nodes \[0, 1, 2, 3\]"):
        sched.arm(cluster)


def test_link_fault_unknown_switch_rejected(cluster):
    sched = FaultSchedule().cut_link(1_000, 0, 7)
    with pytest.raises(FaultScheduleError, match=r"switch 7.*switches 0\.\.1"):
        sched.arm(cluster)


def test_switch_fault_unknown_switch_rejected(cluster):
    sched = FaultSchedule().fail_switch(1_000, 3)
    with pytest.raises(FaultScheduleError, match="switch 3"):
        sched.arm(cluster)


def test_link_fault_without_switch_rejected_at_build_time():
    with pytest.raises(ValueError, match="needs a switch id"):
        FaultAction(1_000, FaultKind.CUT_LINK, 0)


def test_node_fault_without_target_rejected_at_build_time():
    with pytest.raises(ValueError, match="needs a target"):
        FaultAction(1_000, FaultKind.CRASH_NODE)


def test_partition_requires_groups():
    with pytest.raises(ValueError, match="node group"):
        FaultAction(1_000, FaultKind.PARTITION)


def test_partition_unknown_member_rejected(cluster):
    sched = FaultSchedule().partition(1_000, (0, 8), (0,))
    with pytest.raises(FaultScheduleError, match="node 8"):
        sched.arm(cluster)


def test_partition_claiming_every_switch_rejected(cluster):
    sched = FaultSchedule().partition(1_000, (0, 1), (0, 1))
    with pytest.raises(FaultScheduleError, match="no fabric"):
        sched.arm(cluster)


def test_valid_schedule_validates_silently(cluster):
    sched = (
        FaultSchedule()
        .cut_link(1_000, 0, 1)
        .crash_node(2_000, 3)
        .partition(3_000, (0, 1), (0,))
        .heal_partition(4_000, (0, 1), (0,))
    )
    sched.validate(cluster)  # no raise


def test_flap_node_expands_to_alternating_actions():
    sched = FaultSchedule().flap_node(10_000, 2, flaps=3, down_ns=500, up_ns=700)
    kinds = [a.kind for a in sched.actions]
    assert kinds == [
        FaultKind.CRASH_NODE, FaultKind.RECOVER_NODE,
    ] * 3
    times = [a.at_ns for a in sched.actions]
    assert times == [10_000, 10_500, 11_200, 11_700, 12_400, 12_900]
    assert all(a.target == 2 for a in sched.actions)


def test_partition_scenario_rejects_single_switch_segment():
    single = AmpNetCluster(n_nodes=4, n_switches=1)
    tour = single.tour_estimate_ns
    sched = (
        FaultSchedule()
        .partition(40 * tour, (0, 1), (0,))
        .heal_partition(440 * tour, (0, 1), (0,))
    )
    # Both sides need at least one switch of their own.
    with pytest.raises(ValueError, match="no fabric"):
        sched.arm(single)


def test_flap_node_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FaultSchedule().flap_node(0, 1, flaps=0)
    with pytest.raises(ValueError):
        FaultSchedule().flap_node(0, 1, down_ns=0)


# ---------------------------------------------------------- router faults
def test_router_fault_needs_a_routed_cluster(cluster):
    sched = FaultSchedule().crash_router(1_000, 0)
    with pytest.raises(FaultScheduleError, match="routed cluster"):
        sched.arm(cluster)


def test_router_fault_unknown_router_rejected():
    from repro.routing import RoutedCluster, TopologySpec

    routed = RoutedCluster(TopologySpec.star_mesh(2, 3))
    sched = FaultSchedule().crash_router(1_000, 5)
    with pytest.raises(FaultScheduleError, match=r"router 5.*routers 0\.\.0"):
        sched.arm(routed)
    # A valid index validates silently.
    FaultSchedule().crash_router(1_000, 0).validate(routed)
    FaultSchedule().recover_router(2_000, 0).validate(routed)
