"""Unit-level edge cases for the network-centric services."""

import pytest

from repro.node import AmpNode
from repro.phys import build_switched
from repro.services import AmpFiles, AmpSubscribe, FileError
from repro.services.amp_files import CHUNK, _FILE_REGION_STRIDE
from repro.sim import Simulator
from repro.transport import Messenger


def bare_node(node_id=0, n_nodes=2):
    sim = Simulator()
    topo = build_switched(sim, n_nodes, 1)
    node = AmpNode(sim, node_id, topo.ports_of(node_id))
    node.messenger = Messenger(node)
    from repro.netcache import NetworkCache

    node.cache = NetworkCache(sim, node_id)
    return node, sim


# ---------------------------------------------------------------- subscribe
def test_subscribe_validation():
    node, _sim = bare_node()
    svc = AmpSubscribe(node)
    with pytest.raises(ValueError):
        svc.subscribe("", lambda t, p, s: None)
    with pytest.raises(ValueError):
        svc.publish("", b"x")
    with pytest.raises(ValueError):
        svc.publish("x" * 300, b"x")


def test_publisher_hears_itself_locally():
    node, _sim = bare_node()
    svc = AmpSubscribe(node)
    got = []
    svc.subscribe("t", lambda t, p, s: got.append((p, s)))
    svc.publish("t", b"local echo")  # ring may be down; local fan-out works
    assert got == [(b"local echo", 0)]


def test_unsubscribe_idempotent():
    node, _sim = bare_node()
    svc = AmpSubscribe(node)
    cancel = svc.subscribe("t", lambda t, p, s: None)
    cancel()
    cancel()  # second call is a no-op


# -------------------------------------------------------------------- files
def test_file_name_validation():
    node, _sim = bare_node()
    files = AmpFiles(node)
    with pytest.raises(FileError):
        files.write_file("", b"x")
    with pytest.raises(FileError):
        files.write_file("n" * 201, b"x")


def test_file_region_lane_striping():
    node, _sim = bare_node(node_id=1)
    files = AmpFiles(node)
    files.write_file("a", b"1")
    spec = node.cache.region("file:a")
    assert spec.region_id % _FILE_REGION_STRIDE == 1  # node 1's lane


def test_file_lane_exhaustion():
    node, _sim = bare_node()
    files = AmpFiles(node)
    lanes = range(64, 248, _FILE_REGION_STRIDE)
    for i, _ in enumerate(lanes):
        files.write_file(f"f{i}", b"x")
    with pytest.raises(FileError, match="exhausted"):
        files.write_file("one-too-many", b"x")


def test_file_grow_within_headroom_then_reject():
    node, _sim = bare_node()
    files = AmpFiles(node)
    files.write_file("g", b"small")
    spec = node.cache.region("file:g")
    max_content = (spec.n_records - 1) * CHUNK
    files.write_file("g", b"y" * max_content)  # fits exactly
    with pytest.raises(FileError, match="grew past"):
        files.write_file("g", b"y" * (max_content + 1))


def test_read_local_file_without_network():
    node, _sim = bare_node()
    files = AmpFiles(node)
    content = bytes(range(200))
    files.write_file("local", content)
    assert files.read_file_now("local") == content
    assert files.list_files() == ["local"]


def test_read_file_process_variant():
    node, sim = bare_node()
    files = AmpFiles(node)
    files.write_file("p", b"process read")
    result = {}

    def reader():
        data = yield from files.read_file("p")
        result["data"] = data

    sim.process(reader())
    sim.run()
    assert result["data"] == b"process read"
