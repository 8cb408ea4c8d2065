"""Integration: reliable messaging, cache replication, seqlock, refresh,
network semaphores — the slide 9/10/18 machinery end to end."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AmpNetCluster
from repro.netcache import RecordUpdate, RegionSpec, encode_update
from repro.micropacket import BROADCAST
from repro.transport import Channel

TEST_CHANNEL = 10  # unclaimed by any built-in service


REGIONS = [RegionSpec(region_id=1, name="state", n_records=32, record_size=64)]


def make_cluster(n_nodes=4, n_switches=2, **kw):
    cluster = AmpNetCluster(
        n_nodes=n_nodes, n_switches=n_switches, regions=REGIONS, **kw
    )
    cluster.start()
    cluster.run_until_ring_up()
    return cluster


def settle(cluster, tours=20):
    cluster.run(until=cluster.sim.now + tours * cluster.tour_estimate_ns)


# ------------------------------------------------------------- messaging
def test_unicast_message_delivery():
    cluster = make_cluster()
    got = []
    cluster.nodes[2].messenger.on_message(
        TEST_CHANNEL, lambda src, data, ch: got.append((src, data))
    )
    payload = bytes(range(200))
    handle = cluster.nodes[0].messenger.send(2, payload, TEST_CHANNEL)
    settle(cluster)
    assert got == [(0, payload)]
    assert handle.delivered.triggered


def test_broadcast_message_reaches_all_other_nodes():
    cluster = make_cluster()
    got = {i: [] for i in cluster.nodes}
    for i, node in cluster.nodes.items():
        node.messenger.on_message(
            TEST_CHANNEL, lambda src, data, ch, i=i: got[i].append(data)
        )
    cluster.nodes[1].messenger.send(BROADCAST, b"hello world", TEST_CHANNEL)
    settle(cluster)
    for i in cluster.nodes:
        assert len(got[i]) == (0 if i == 1 else 1)


def test_large_message_fragments_and_reassembles():
    cluster = make_cluster()
    got = []
    cluster.nodes[3].messenger.on_message(
        TEST_CHANNEL, lambda src, data, ch: got.append(data)
    )
    payload = bytes(i % 251 for i in range(5000))  # 79 fragments
    cluster.nodes[0].messenger.send(3, payload, TEST_CHANNEL)
    settle(cluster, tours=60)
    assert got and got[0] == payload


def test_signal_delivery():
    cluster = make_cluster()
    got = []
    cluster.nodes[1].messenger.on_signal(
        TEST_CHANNEL, lambda src, payload: got.append((src, payload))
    )
    cluster.nodes[3].messenger.signal(1, b"DOORBELL", TEST_CHANNEL)
    settle(cluster)
    assert got == [(3, b"DOORBELL")]


def test_message_survives_ring_failure_midflight():
    """The no-data-loss mechanism: unconfirmed fragments replay after
    the roster heals."""
    cluster = make_cluster(n_nodes=6, n_switches=4)
    got = []
    cluster.nodes[5].messenger.on_message(
        TEST_CHANNEL, lambda src, data, ch: got.append(data)
    )
    payload = bytes(i % 256 for i in range(8000))
    handle = cluster.nodes[0].messenger.send(5, payload, TEST_CHANNEL)
    # Cut node 0's active hop while fragments are streaming.
    roster = cluster.current_roster()
    cluster.run(until=cluster.sim.now + cluster.tour_estimate_ns // 2)
    cluster.cut_link(0, roster.hop_switch_from(0))
    cluster.run_until_reroster()
    settle(cluster, tours=120)
    assert got and got[0] == payload
    assert handle.delivered.triggered
    sender = cluster.nodes[0].messenger
    assert sender.counters["fragments_retransmitted"] >= 0  # replay path exists


# ------------------------------------------------------------ cache basics
def test_cache_write_replicates_everywhere():
    cluster = make_cluster()
    cluster.nodes[0].cache.write("state", 3, b"the truth")
    settle(cluster)
    for node in cluster.nodes.values():
        ok, data, _v = node.cache.try_read("state", 3)
        assert ok and data[:9] == b"the truth"


def test_cache_last_writer_wins_convergence():
    cluster = make_cluster()
    cluster.nodes[0].cache.write("state", 0, b"from-zero")
    settle(cluster, tours=30)
    cluster.nodes[2].cache.write("state", 0, b"from-two!")
    settle(cluster, tours=30)
    values = set()
    for node in cluster.nodes.values():
        ok, data, _ = node.cache.try_read("state", 0)
        assert ok
        values.add(bytes(data[:9]))
    assert values == {b"from-two!"}


def test_concurrent_writes_converge_to_single_value():
    cluster = make_cluster()
    for i in range(4):
        cluster.nodes[i].cache.write("state", 7, f"writer-{i}".encode())
    settle(cluster, tours=60)
    finals = {
        bytes(node.cache.try_read("state", 7)[1]) for node in cluster.nodes.values()
    }
    assert len(finals) == 1  # everyone agrees, whoever won


def test_seqlock_read_process_returns_stable_data():
    cluster = make_cluster()
    result = {}

    def reader():
        data = yield from cluster.nodes[1].cache.read("state", 5)
        result["data"] = data

    cluster.nodes[0].cache.write("state", 5, b"stable")
    settle(cluster)
    cluster.sim.process(reader())
    settle(cluster, tours=2)
    assert result["data"][:6] == b"stable"


def test_dynamic_region_creation_replicates():
    cluster = make_cluster()
    spec = RegionSpec(region_id=9, name="dyn", n_records=4, record_size=16)
    cluster.nodes[2].cache.define_region(spec)
    cluster.nodes[2].cache.write("dyn", 1, b"dynamic!")
    settle(cluster, tours=40)
    for node in cluster.nodes.values():
        assert node.cache.has_region("dyn")
        ok, data, _ = node.cache.try_read("dyn", 1)
        assert ok and data[:8] == b"dynamic!"


# --------------------------------------------------------------- refresh
def test_rejoining_node_refreshes_cache():
    cluster = make_cluster(n_nodes=6, n_switches=4)
    cluster.nodes[0].cache.write("state", 10, b"precious data")
    settle(cluster)
    cluster.crash_node(3)
    cluster.run_until_reroster()
    # Write more while node 3 is dead.
    cluster.nodes[1].cache.write("state", 11, b"written while dead")
    settle(cluster)
    ok, data, version = cluster.nodes[3].cache.try_read("state", 10)
    assert ok and version == 0 and not any(data)  # wiped
    cluster.recover_node(3)
    cluster.run_until_reroster()
    settle(cluster, tours=100)
    assert cluster.nodes[3].refresh.warm
    ok, data, _ = cluster.nodes[3].cache.try_read("state", 10)
    assert ok and data[:13] == b"precious data"
    ok, data, _ = cluster.nodes[3].cache.try_read("state", 11)
    assert ok and data[:18] == b"written while dead"


def test_apply_in_flight_at_a_crash_finishes_on_the_dead_replica():
    """The DMA engine is mid-way through a peer's update when the node
    power-fails: the remaining bursts land in the replica that died,
    never in the fresh one the node carries afterwards."""
    cluster = make_cluster()
    victim = cluster.nodes[3]
    dead = victim.cache
    cluster.nodes[0].cache.write("state", 5, b"x" * 64)
    cluster.sim.run_until(
        lambda: not dead.try_read("state", 5)[0],  # first counter set, not last
        timeout_ns=50 * cluster.tour_estimate_ns, step_ns=20,
        what="apply never began",
    )
    cluster.crash_node(3)
    assert victim.cache is not dead
    settle(cluster)
    assert dead.counters["applied_updates"] == 1     # finished where it began
    assert victim.cache.try_read("state", 5)[2] == 0
    assert not victim.cache.counters and not victim.replicator._busy


# ---------------------------------------------------- untrusted peer bytes
#: A four-record region every replica of :func:`small_region_cluster` holds.
SMALL = RegionSpec(region_id=7, name="small", n_records=4, record_size=8)
#: A region row naming region 8 "ab" (the replicator's wire form), whole.
ROW = bytes([1, 8, 2]) + b"ab" + (4).to_bytes(4, "little") + (8).to_bytes(2, "little")


def small_region_cluster():
    cluster = AmpNetCluster(n_nodes=4, n_switches=2, regions=[SMALL])
    cluster.start()
    cluster.run_until_ring_up()
    return cluster


@pytest.mark.parametrize("payload", [
    b"",                                                     # IndexError
    bytes([0]) + encode_update(RecordUpdate(7, 1, 1, 2, b"abcd"))[:6],
    ROW[:-3],                                                # short row
    ROW[:3] + b"\xff\xfe" + ROW[5:],                          # bad UTF-8
    bytes([0]) + encode_update(RecordUpdate(7, 9, 1, 2, b"abcd")),
], ids=["empty", "truncated-update", "short-region-row", "bad-utf8-name",
        "record-9-of-4"])
def test_a_malformed_cache_message_is_counted_and_dropped(payload):
    """What a peer sends on the CACHE channel is parsed, never trusted:
    each of these escaped the messenger handler, and the record-9 update
    also left a ``_busy`` entry nothing would clear."""
    cluster = small_region_cluster()
    replicator = cluster.nodes[3].replicator
    replicator._on_message(2, payload, Channel.CACHE)
    assert replicator.counters["bad_messages"] == 1
    assert not replicator._busy
    assert not cluster.nodes[3].cache.has_region("ab")
    settle(cluster)


def test_a_whole_region_row_still_defines_the_region():
    cluster = small_region_cluster()
    replicator = cluster.nodes[3].replicator
    replicator._on_message(2, ROW, Channel.CACHE)
    assert cluster.nodes[3].cache.region("ab").n_records == 4
    assert replicator.counters["bad_messages"] == 0


@given(payloads=st.lists(st.one_of(
    st.binary(max_size=64),
    # steered: an update (to the known region, or any), or a region row
    st.tuples(st.sampled_from([b"\x00", b"\x00\x07", b"\x01"]),
              st.binary(max_size=62)).map(b"".join),
), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_arbitrary_cache_messages_never_raise(payloads):
    cluster = small_region_cluster()
    replicator = cluster.nodes[3].replicator
    for payload in payloads:
        replicator._on_message(2, payload, Channel.CACHE)
    settle(cluster)  # every apply that began has finished
    assert not replicator._busy


# -------------------------------------------------------------- semaphores
def test_semaphore_mutual_exclusion():
    cluster = make_cluster()
    sim = cluster.sim
    holder_log = []

    def worker(node_id):
        svc = cluster.nodes[node_id].sems
        ok = yield from svc.acquire(5)
        assert ok
        holder_log.append(("acq", node_id, sim.now))
        yield sim.timeout(50_000)
        holder_log.append(("rel", node_id, sim.now))
        svc.release(5)

    for nid in range(4):
        sim.process(worker(nid))
    settle(cluster, tours=200)
    # All four eventually held it, and critical sections never overlap.
    acquires = [e for e in holder_log if e[0] == "acq"]
    assert len(acquires) == 4
    events = sorted(holder_log, key=lambda e: (e[2], e[0] == "acq"))
    depth = 0
    for kind, _nid, _t in events:
        depth += 1 if kind == "acq" else -1
        assert 0 <= depth <= 1


def test_semaphore_release_grants_next_waiter_fifo():
    cluster = make_cluster()
    sim = cluster.sim
    order = []

    def worker(node_id, start_delay):
        yield sim.timeout(start_delay)
        svc = cluster.nodes[node_id].sems
        ok = yield from svc.acquire(9)
        assert ok
        order.append(node_id)
        yield sim.timeout(20_000)
        svc.release(9)

    sim.process(worker(1, 0))
    sim.process(worker(2, 2_000))
    sim.process(worker(3, 4_000))
    settle(cluster, tours=200)
    assert order == [1, 2, 3]


def test_semaphore_acquire_timeout():
    """The contender gives up while its request sits in the home's wait
    queue.  The release still grants it the lock, and the grant finds no
    waiter: it goes straight back, so a later acquire succeeds."""
    cluster = make_cluster()
    sim = cluster.sim
    sems = [cluster.nodes[i].sems for i in range(4)]
    outcome = {}

    def holder():
        assert (yield from sems[0].acquire(2))
        yield sim.timeout(1_030_000 - sim.now)
        sems[0].release(2)

    def contender():
        yield sim.timeout(10_000)
        outcome["got"] = yield from sems[1].acquire(2, timeout_ns=200_000)

    def latecomer():
        yield sim.timeout(2_000_000 - sim.now)
        outcome["late"] = yield from sems[2].acquire(2, timeout_ns=5_000_000)

    for proc in (holder, contender, latecomer):
        sim.process(proc())
    cluster.run(until=8_000_000)
    assert outcome == {"got": False, "late": True}
    assert sems[1].counters["grants_returned"] == 1 and not sems[1].held
    assert sems[2].held == {2} and sems[0]._owner_of(2) == 2


def test_lock_held_by_crashed_node_is_broken():
    cluster = make_cluster(n_nodes=6, n_switches=4)
    sim = cluster.sim
    got = {}

    def holder():
        ok = yield from cluster.nodes[3].sems.acquire(1)
        got["holder"] = ok

    sim.process(holder())
    settle(cluster, tours=50)
    assert got.get("holder")
    cluster.crash_node(3)
    cluster.run_until_reroster()
    settle(cluster, tours=50)

    def contender():
        ok = yield from cluster.nodes[1].sems.acquire(1, timeout_ns=50_000_000)
        got["contender"] = ok

    sim.process(contender())
    settle(cluster, tours=200)
    assert got.get("contender") is True

