"""Unit tests for the messenger's reassembly and channel bookkeeping."""

import pytest

from repro.transport.messaging import _COMPLETED_CACHE, _Reassembly
from repro.micropacket import (
    VARIABLE_PAYLOAD_MAX, DmaControl, MicroPacket, MicroPacketType,
)
from repro.node import AmpNode
from repro.phys import build_switched
from repro.rostering import Roster
from repro.sim import Simulator
from repro.transport import Messenger, TransferTable


def make_messenger():
    sim = Simulator()
    topo = build_switched(sim, 2, 1)
    node = AmpNode(sim, 0, topo.ports_of(0))
    return Messenger(node), sim


# ---------------------------------------------------------------- reassembly
def test_reassembly_in_order():
    r = _Reassembly()
    assert r.add(0, b"aaaa", last=False, channel=1) is None
    assert r.add(4, b"bb", last=True, channel=1) == b"aaaabb"


def test_reassembly_out_of_order():
    r = _Reassembly()
    assert r.add(4, b"bb", last=True, channel=1) is None
    assert r.add(0, b"aaaa", last=False, channel=1) == b"aaaabb"


def test_reassembly_gap_not_delivered():
    r = _Reassembly()
    r.add(0, b"aa", last=False, channel=0)
    # Missing [2:4); last fragment supplies total length 6.
    assert r.add(4, b"cc", last=True, channel=0) is None


def test_reassembly_duplicate_fragment_idempotent():
    r = _Reassembly()
    r.add(0, b"aaaa", last=False, channel=0)
    r.add(0, b"aaaa", last=False, channel=0)  # retransmission
    assert r.add(4, b"b", last=True, channel=0) == b"aaaab"


def test_reassembly_single_fragment():
    r = _Reassembly()
    assert r.add(0, b"whole", last=True, channel=2) == b"whole"


# ------------------------------------------------------------ transfer table
def fragment(tid, offset, data, last, channel=5):
    return MicroPacket(
        ptype=MicroPacketType.DMA, src=3, dst=0, channel=channel, payload=data,
        dma=DmaControl(channel=0, offset=offset, transfer_id=tid, last=last),
    )


def test_transfer_table_completes_then_recognises_a_duplicate():
    """The messenger's and the router's shared receive path: the last
    fragment hands back the message and its channel, and every later
    copy of any fragment is a known duplicate."""
    table = TransferTable()
    key = (1, 3, 9)  # a ferried transfer's origin identity
    assert key not in table
    assert table.add(key, fragment(9, 4, b"bb", last=True)) is None
    assert key not in table  # still reassembling
    assert table.add(key, fragment(9, 0, b"aaaa", last=False)) == (b"aaaabb", 5)
    assert key in table
    assert (3, 9) not in table  # the local (src, tid) key is another transfer


def test_transfer_table_gap_is_not_completed():
    table = TransferTable()
    table.add((3, 1), fragment(1, 0, b"aa", last=False))
    assert table.add((3, 1), fragment(1, 4, b"cc", last=True)) is None
    assert (3, 1) not in table
    assert table.add((3, 1), fragment(1, 2, b"bb", last=False)) == (b"aabbcc", 5)


def test_transfer_table_evicts_the_oldest_completed_key():
    table = TransferTable()
    for tid in range(_COMPLETED_CACHE):
        table.add((3, tid), fragment(tid, 0, b"x", last=True))
    assert (3, 0) in table
    table.remember((3, _COMPLETED_CACHE))  # the self-delivery path
    assert (3, 0) not in table and (3, 1) in table
    assert (3, _COMPLETED_CACHE) in table


def test_transfer_table_clear_forgets_both_halves():
    table = TransferTable()
    table.add((3, 1), fragment(1, 0, b"whole", last=True))
    table.add((3, 2), fragment(2, 0, b"aa", last=False))
    table.clear()
    assert (3, 1) not in table
    # The half-received transfer restarts from nothing.
    assert table.add((3, 2), fragment(2, 2, b"bb", last=True)) is None


# ---------------------------------------------------------------- messenger
def test_send_validation():
    messenger, _sim = make_messenger()
    with pytest.raises(ValueError):
        messenger.send(1, b"")
    with pytest.raises(ValueError):
        messenger.send(1, b"x", channel=16)


def test_signal_validation():
    messenger, _sim = make_messenger()
    with pytest.raises(ValueError):
        messenger.signal(1, b"nine bytes!")


def test_fragment_count_matches_payload_size():
    messenger, sim = make_messenger()
    payload = b"z" * (VARIABLE_PAYLOAD_MAX * 3 + 1)
    handle = messenger.send(1, payload)
    assert len(handle.unconfirmed) == 4
    offsets = sorted(handle.unconfirmed)
    assert offsets == [0, 64, 128, 192]
    last_pkt = handle.unconfirmed[192]
    assert last_pkt.dma.last and len(last_pkt.payload) == 1


def test_transfer_ids_wrap_without_zero():
    messenger, _sim = make_messenger()
    messenger._next_tid = 0xFFFF
    h1 = messenger.send(1, b"a")
    h2 = messenger.send(1, b"b")
    assert h1.transfer_id == 0xFFFF
    assert h2.transfer_id == 1  # wraps past 0


def test_channel_claims_are_exclusive():
    messenger, _sim = make_messenger()
    messenger.on_message(9, lambda s, d, c: None)
    with pytest.raises(ValueError):
        messenger.on_message(9, lambda s, d, c: None)
    messenger.on_signal(9, lambda s, d: None)
    with pytest.raises(ValueError):
        messenger.on_signal(9, lambda s, d: None)


def test_reset_clears_inflight_state():
    messenger, _sim = make_messenger()
    messenger.send(1, b"pending data")
    messenger.reset()
    assert not messenger._outgoing
    assert not messenger._transfers._reassembly


def test_send_and_ring_up_replay_post_no_schedule_entry_of_their_own():
    """A send is a function call: when it returns the fragments are in
    the MAC's insertion queue, tagged for the tour callbacks, and the
    schedule holds what it held — the pick a busy engine already has
    pending is the only entry they will ever need.  A ring-up replay of
    what is still unconfirmed is the same call."""
    messenger, sim = make_messenger()
    mac = messenger.node.mac
    roster = Roster(1, (0, 1), (0, 0))
    mac.install_roster(roster)  # its kick posts the pick: engine busy

    def scheduled():
        stats = sim.scheduler_stats()
        return stats["wheel_entries"] + stats["overflow_entries"]

    before = scheduled()
    handle = messenger.send(1, b"z" * (2 * VARIABLE_PAYLOAD_MAX + 1))
    tid = handle.transfer_id
    tags = [(tid, 0), (tid, 64), (tid, 128)]
    assert scheduled() == before
    assert [frame.msg_tag for frame in mac._insertion] == tags
    assert [frame.packet for frame in mac._insertion] == [
        handle.unconfirmed[offset] for _tid, offset in tags]

    del handle.unconfirmed[64]  # its tour completed before the ring fell
    mac._insertion.clear()
    messenger._on_ring_up(roster)
    assert scheduled() == before
    assert [frame.msg_tag for frame in mac._insertion] == [tags[0], tags[2]]
    assert handle.retransmits == 2
    assert messenger.counters["fragments_retransmitted"] == 2
