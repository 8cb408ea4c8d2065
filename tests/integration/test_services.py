"""Integration: AmpSubscribe, AmpFiles, AmpThreads, AmpIP (slide 12)."""

import pytest

from repro import AmpNetCluster
from repro.services import (
    AmpFiles,
    AmpIP,
    AmpSubscribe,
    AmpThreads,
    FileError,
    RemoteCallError,
)


def make_cluster(n_nodes=4, n_switches=2, **kw):
    cluster = AmpNetCluster(n_nodes=n_nodes, n_switches=n_switches, **kw)
    cluster.start()
    cluster.run_until_ring_up()
    return cluster


def settle(cluster, tours=30):
    cluster.run(until=cluster.sim.now + tours * cluster.tour_estimate_ns)


def attach(service, cluster):
    """One ``service`` endpoint per node, as an application would."""
    return {i: service(node) for i, node in cluster.nodes.items()}


# ---------------------------------------------------------------- subscribe
def test_publish_reaches_all_subscribers():
    cluster = make_cluster()
    subs = attach(AmpSubscribe, cluster)
    got = {i: [] for i in cluster.nodes}
    for i, endpoint in subs.items():
        endpoint.subscribe(
            "sensors/temp", lambda t, p, pub, i=i: got[i].append((p, pub))
        )
    subs[2].publish("sensors/temp", b"21.5C")
    settle(cluster)
    for i in cluster.nodes:
        assert got[i] == [(b"21.5C", 2)], i  # including the publisher


def test_subscribe_topic_filtering():
    cluster = make_cluster()
    subs = attach(AmpSubscribe, cluster)
    temp, motion = [], []
    subs[0].subscribe("t", lambda t, p, s: temp.append(p))
    subs[0].subscribe("m", lambda t, p, s: motion.append(p))
    subs[1].publish("t", b"a")
    subs[1].publish("m", b"b")
    subs[1].publish("other", b"c")
    settle(cluster)
    assert temp == [b"a"] and motion == [b"b"]


def test_unsubscribe_stops_delivery():
    cluster = make_cluster()
    subs = attach(AmpSubscribe, cluster)
    got = []
    cancel = subs[0].subscribe("x", lambda t, p, s: got.append(p))
    subs[1].publish("x", b"1")
    settle(cluster)
    cancel()
    subs[1].publish("x", b"2")
    settle(cluster)
    assert got == [b"1"]


# -------------------------------------------------------------------- files
def test_file_write_readable_from_every_node():
    cluster = make_cluster()
    files = attach(AmpFiles, cluster)
    content = bytes(i % 251 for i in range(1000))
    files[0].write_file("dataset.bin", content)
    settle(cluster, tours=120)
    for replica in files.values():
        assert replica.read_file_now("dataset.bin") == content


def test_file_overwrite_in_place():
    cluster = make_cluster()
    files = attach(AmpFiles, cluster)
    files[0].write_file("cfg", b"version-1")
    settle(cluster, tours=60)
    files[1].write_file("cfg", b"version-2 is longer")
    settle(cluster, tours=60)
    for replica in files.values():
        assert replica.read_file_now("cfg") == b"version-2 is longer"


def test_file_listing():
    cluster = make_cluster()
    files = attach(AmpFiles, cluster)
    files[0].write_file("a", b"1")
    files[1].write_file("b", b"2")
    settle(cluster, tours=60)
    assert files[3].list_files() == ["a", "b"]


def test_file_errors():
    cluster = make_cluster()
    files = attach(AmpFiles, cluster)
    with pytest.raises(FileError):
        files[0].read_file_now("ghost")
    with pytest.raises(FileError):
        files[0].write_file("big", b"x" * (64 * 600))


def test_files_survive_node_crash_and_rejoin():
    cluster = make_cluster(n_nodes=6, n_switches=4)
    files = attach(AmpFiles, cluster)
    files[0].write_file("ark", b"two of each")
    settle(cluster, tours=60)
    cluster.crash_node(2)
    cluster.run_until_reroster()
    cluster.recover_node(2)
    cluster.run_until_reroster()
    settle(cluster, tours=200)
    assert files[2].read_file_now("ark") == b"two of each"


# ------------------------------------------------------------------ threads
def test_remote_spawn_returns_result():
    cluster = make_cluster()
    threads = attach(AmpThreads, cluster)

    def double(node, args):
        yield node.sim.timeout(1_000)
        return bytes(2 * b for b in args)

    threads[3].register("double", double)
    result = {}

    def caller():
        out = yield from threads[0].spawn(3, "double", bytes([1, 2, 3]))
        result["out"] = out

    cluster.sim.process(caller())
    settle(cluster, tours=60)
    assert result["out"] == bytes([2, 4, 6])


def test_remote_spawn_unknown_entry_raises():
    cluster = make_cluster()
    threads = attach(AmpThreads, cluster)
    result = {}

    def caller():
        try:
            yield from threads[0].spawn(1, "nope")
        except RemoteCallError as exc:
            result["err"] = str(exc)

    cluster.sim.process(caller())
    settle(cluster, tours=60)
    assert "nope" in result["err"]


def test_remote_spawn_exception_propagates():
    cluster = make_cluster()
    threads = attach(AmpThreads, cluster)

    def bad(node, args):
        yield node.sim.timeout(10)
        raise RuntimeError("kaboom")

    threads[2].register("bad", bad)
    result = {}

    def caller():
        try:
            yield from threads[1].spawn(2, "bad")
        except RemoteCallError as exc:
            result["err"] = str(exc)

    cluster.sim.process(caller())
    settle(cluster, tours=60)
    assert "kaboom" in result["err"]


# -------------------------------------------------------------------- AmpIP
def test_datagram_roundtrip():
    cluster = make_cluster()
    ip = attach(AmpIP, cluster)
    server = ip[2].socket(7)
    got = {}

    def serve():
        addr, payload = yield from server.recvfrom()
        got["req"] = (addr, payload)

    cluster.sim.process(serve())
    client = ip[0].socket(1234)
    assert client.sendto(2, 7, b"ping") is True
    settle(cluster)
    assert got["req"] == ((0, 1234), b"ping")


def test_datagram_to_unbound_port_dropped():
    cluster = make_cluster()
    ip = attach(AmpIP, cluster)
    ip[0].send_datagram(1, 9999, b"void")
    settle(cluster)
    assert ip[1].counters["no_socket_drop"] == 1


def test_port_rebind_rejected_and_close_frees():
    cluster = make_cluster()
    ip = attach(AmpIP, cluster)
    sock = ip[0].socket(80)
    with pytest.raises(ValueError):
        ip[0].socket(80)
    sock.close()
    ip[0].socket(80)  # rebind after close is fine
