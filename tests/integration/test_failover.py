"""Integration: control groups, application failover, no data loss
(slide 19), AmpDC RDMA and MPI-like collectives (slides 11-12)."""

import pytest

from repro import AmpNetCluster
from repro.hostapi import (
    APP_REGION,
    AmpDC,
    CheckpointedSequenceApp,
    MPIEndpoint,
    ReduceOp,
    SequenceLedger,
)
from repro.kernel import ControlGroupConfig


def make_cluster(n_nodes=6, n_switches=4, **kw):
    cluster = AmpNetCluster(n_nodes=n_nodes, n_switches=n_switches, **kw)
    cluster.start()
    return cluster


def settle(cluster, tours=20):
    cluster.run(until=cluster.sim.now + tours * cluster.tour_estimate_ns)


def sequence_group(cluster, members=(0, 1, 2), qual=None):
    ledger = SequenceLedger()
    config = ControlGroupConfig(
        name="seq",
        members=list(members),
        qualification=qual or {},
        region=APP_REGION,
    )
    groups = cluster.create_control_group(
        config, lambda node, group: CheckpointedSequenceApp(node, group, ledger)
    )
    return ledger, groups


# ------------------------------------------------------------ control group
def test_best_qualified_member_becomes_primary():
    cluster = make_cluster()
    ledger, groups = sequence_group(cluster, qual={0: 1, 1: 9, 2: 5})
    cluster.run_until_ring_up()
    settle(cluster, tours=50)
    assert groups[1].primary == 1
    assert all(g.primary == 1 for g in groups.values())
    assert ledger.acked  # the app is making progress
    assert all(n == 1 for _s, n in ledger.produced_by)


def test_qualification_tie_breaks_to_lowest_id():
    cluster = make_cluster()
    _ledger, groups = sequence_group(cluster, members=(2, 3, 4))
    cluster.run_until_ring_up()
    settle(cluster, tours=30)
    assert groups[2].primary == 2


def test_failover_on_primary_crash_no_data_loss():
    """The headline claim: primary dies, control passes, nothing lost."""
    cluster = make_cluster()
    ledger, groups = sequence_group(cluster, qual={0: 9, 1: 5, 2: 1})
    cluster.run_until_ring_up()
    settle(cluster, tours=100)  # let node 0 ack some work
    acked_before = ledger.last_acked
    assert acked_before > 0
    cluster.crash_node(0)
    cluster.run_until_reroster()
    settle(cluster, tours=300)
    # Node 1 (next best qualified) took over and continued the sequence.
    assert groups[1].primary == 1
    assert ledger.last_acked > acked_before
    ledger.verify_no_loss_no_fork()
    # Recovery resumed at or after everything previously acknowledged.
    app = groups[1].app
    assert app is not None and app.recovered_from >= acked_before


def test_double_failover_chain():
    cluster = make_cluster()
    ledger, groups = sequence_group(cluster, qual={0: 9, 1: 5, 2: 1})
    cluster.run_until_ring_up()
    settle(cluster, tours=100)
    cluster.crash_node(0)
    cluster.run_until_reroster()
    settle(cluster, tours=200)
    first_failover_acked = ledger.last_acked
    cluster.crash_node(1)
    cluster.run_until_reroster()
    settle(cluster, tours=300)
    assert groups[2].primary == 2
    assert ledger.last_acked > first_failover_acked
    ledger.verify_no_loss_no_fork()


def test_failover_period_delays_takeover():
    cluster = make_cluster()
    ledger = SequenceLedger()
    period = 5_000_000  # 5 ms, application defined
    config = ControlGroupConfig(
        name="slow", members=[0, 1], qualification={0: 2, 1: 1},
        failover_period_ns=period, region=APP_REGION,
    )
    groups = cluster.create_control_group(
        config, lambda n, g: CheckpointedSequenceApp(n, g, ledger)
    )
    cluster.run_until_ring_up()
    settle(cluster, tours=60)
    became = groups[1].became_primary
    crash_time = cluster.sim.now
    cluster.crash_node(0)
    cluster.run(until=became)
    # Detection + rostering + the full application-defined period.
    assert cluster.sim.now - crash_time >= period


def test_recovered_node_rejoins_group_as_standby():
    cluster = make_cluster()
    ledger, groups = sequence_group(cluster, qual={0: 9, 1: 5, 2: 1})
    cluster.run_until_ring_up()
    settle(cluster, tours=80)
    cluster.crash_node(0)
    cluster.run_until_reroster()
    settle(cluster, tours=150)
    cluster.recover_node(0)
    cluster.run_until_reroster()
    settle(cluster, tours=300)
    # Node 0 is best qualified again: it takes control back, with state.
    assert groups[0].primary == 0
    ledger.verify_no_loss_no_fork()


# -------------------------------------------------------------------- AmpDC
def test_rdma_write_into_registered_region():
    cluster = make_cluster(n_nodes=4, n_switches=2)
    cluster.run_until_ring_up()
    dc = {i: AmpDC(node) for i, node in cluster.nodes.items()}
    region = dc[2].register_region("frames", 4096)
    handle = dc[0].rdma_write(2, "frames", 128, b"pixels" * 10)
    settle(cluster, tours=40)
    assert handle.delivered.triggered
    assert region.read(128, 60) == b"pixels" * 10
    assert region.writes == 1


def test_rdma_unknown_region_counted():
    cluster = make_cluster(n_nodes=4, n_switches=2)
    cluster.run_until_ring_up()
    dc = {i: AmpDC(node) for i, node in cluster.nodes.items()}
    dc[0].rdma_write(1, "nope", 0, b"x")
    settle(cluster, tours=40)
    assert dc[1].counters["rdma_unknown_region"] == 1


def test_host_region_write_listener():
    cluster = make_cluster(n_nodes=4, n_switches=2)
    cluster.run_until_ring_up()
    dc = {i: AmpDC(node) for i, node in cluster.nodes.items()}
    region = dc[3].register_region("mb", 256)
    hits = []
    region.on_write.append(lambda off, ln: hits.append((off, ln)))
    dc[1].rdma_write(3, "mb", 16, b"abcd")
    settle(cluster, tours=40)
    assert hits == [(16, 4)]


# ---------------------------------------------------------------------- MPI
def test_mpi_send_recv():
    cluster = make_cluster(n_nodes=4, n_switches=2)
    cluster.run_until_ring_up()
    ranks = [0, 1, 2, 3]
    eps = {i: MPIEndpoint(cluster.nodes[i], ranks) for i in ranks}
    got = {}

    def receiver():
        data = yield from eps[1].recv(src=0, tag=7)
        got["data"] = data

    cluster.sim.process(receiver())
    eps[0].send(1, b"ring message", tag=7)
    settle(cluster, tours=40)
    assert got["data"] == b"ring message"


def test_mpi_barrier_synchronizes():
    cluster = make_cluster(n_nodes=4, n_switches=2)
    cluster.run_until_ring_up()
    ranks = [0, 1, 2, 3]
    eps = {i: MPIEndpoint(cluster.nodes[i], ranks) for i in ranks}
    exits = {}

    def member(i, delay):
        yield cluster.sim.timeout(delay)
        yield from eps[i].barrier()
        exits[i] = cluster.sim.now

    for i, delay in zip(ranks, (0, 100_000, 200_000, 400_000)):
        cluster.sim.process(member(i, delay))
    settle(cluster, tours=100)
    assert len(exits) == 4
    assert min(exits.values()) >= 400_000  # nobody exits before the laggard


def test_mpi_bcast_and_allreduce():
    cluster = make_cluster(n_nodes=4, n_switches=2)
    cluster.run_until_ring_up()
    ranks = [0, 1, 2, 3]
    eps = {i: MPIEndpoint(cluster.nodes[i], ranks) for i in ranks}
    results = {}

    def member(i):
        data = yield from eps[i].bcast(root=2, payload=b"model" if i == 2 else None)
        total = yield from eps[i].allreduce(i + 1, ReduceOp.SUM)
        biggest = yield from eps[i].allreduce(i + 1, ReduceOp.MAX)
        results[i] = (data, total, biggest)

    for i in ranks:
        cluster.sim.process(member(i))
    settle(cluster, tours=150)
    assert all(results[i] == (b"model", 10, 4) for i in ranks)


def test_mpi_gather_at_root():
    cluster = make_cluster(n_nodes=4, n_switches=2)
    cluster.run_until_ring_up()
    ranks = [0, 1, 2, 3]
    eps = {i: MPIEndpoint(cluster.nodes[i], ranks) for i in ranks}
    results = {}

    def member(i):
        out = yield from eps[i].gather(root=0, payload=bytes([i]) * 3)
        results[i] = out

    for i in ranks:
        cluster.sim.process(member(i))
    settle(cluster, tours=100)
    assert results[0] == {i: bytes([i]) * 3 for i in ranks}
    assert results[1] is None
