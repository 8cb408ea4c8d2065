"""FIFO/priority-order properties of the deque-backed MAC queues.

The hot-path refactor swapped the four MAC queues from lists (O(n)
``pop(0)``) to deques; these properties pin the service discipline the
rest of the stack depends on:

* priority transit overtakes data transit, but each class is served
  strictly FIFO internally;
* transit always precedes local insertion (with ``transit_priority``
  on), and priority insertions precede data insertions;
* requeue after a failed transmit puts the frame back at the *head* of
  its class, preserving order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.micropacket import MicroPacket, MicroPacketType
from repro.phys import Port, frame_for
from repro.ring import FlowControlConfig, RingMAC
from repro.rostering import Roster
from repro.sim import Simulator


def data(seq8: int):
    return MicroPacket(ptype=MicroPacketType.DATA, src=0, dst=1,
                       payload=seq8.to_bytes(8, "little"))


def make_mac(**flow_kw):
    sim = Simulator()
    mac = RingMAC(sim, 0, [Port("p0")], FlowControlConfig(**flow_kw))
    mac.install_roster(Roster(1, (0, 1), (0, 0)))
    return mac


QUEUES = ("transit_priority", "transit", "priority_insertion", "insertion")


def stuff(mac: RingMAC, labels):
    """Fill the four queues in interleaved order; returns per-queue FIFO."""
    expected = {q: [] for q in QUEUES}
    for tag, label in enumerate(labels):
        frame = frame_for(data(tag % 256))
        getattr(mac, f"_{label}").append(frame)
        expected[label].append(frame.frame_id)
    return expected


def drain(mac: RingMAC):
    """Pick frames until the engine would go idle."""
    order = []
    while True:
        frame, _inserted = mac._pick_frame()
        if frame is None:
            return order
        order.append(frame.frame_id)


@given(labels=st.lists(st.sampled_from(QUEUES), max_size=60))
@settings(max_examples=200, deadline=None)
def test_pick_order_is_priority_classes_then_fifo_within_class(labels):
    mac = make_mac(enabled=False)  # window/pacing off: drain everything
    expected = stuff(mac, labels)
    # Service order: transit classes before insertions, priority before
    # data within each, FIFO inside every class.
    want = (expected["transit_priority"] + expected["transit"]
            + expected["priority_insertion"] + expected["insertion"])
    assert drain(mac) == want


@given(labels=st.lists(st.sampled_from(QUEUES), max_size=60))
@settings(max_examples=100, deadline=None)
def test_windowed_pick_never_reorders_within_a_class(labels):
    """With flow control on, insertions may be deferred by the window —
    but whatever is served must still be FIFO within its class."""
    mac = make_mac(transit_capacity=64)
    expected = stuff(mac, labels)
    served = drain(mac)
    for queue in QUEUES:
        in_class = [fid for fid in served if fid in set(expected[queue])]
        assert in_class == expected[queue][: len(in_class)]


def test_requeue_preserves_head_position():
    mac = make_mac(enabled=False)
    first = frame_for(data(1))
    second = frame_for(data(2))
    mac._insertion.append(first)
    mac._insertion.append(second)
    picked, inserted = mac._pick_frame()
    assert picked is first and inserted
    mac._requeue(picked)
    assert [f.frame_id for f in mac._insertion] == [
        first.frame_id, second.frame_id
    ]


def test_greedy_ablation_prefers_local_insertions():
    """transit_priority=False (A2): local frames are stuffed first."""
    mac = make_mac(enabled=False, transit_priority=False)
    transit = frame_for(data(1))
    local = frame_for(data(2))
    mac._transit.append(transit)
    mac._insertion.append(local)
    picked, inserted = mac._pick_frame()
    assert picked is local and inserted
