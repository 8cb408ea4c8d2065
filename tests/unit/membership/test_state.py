"""Unit tests for the membership data model and wire formats."""

import pytest

from repro.membership import (
    PeerState,
    PeerStatus,
    PeerView,
    decode_digest,
    encode_digest,
    merge_states,
)
from repro.membership.wire import ACK, ENTRY_BYTES, PING, decode_probe, encode_probe


def test_higher_incarnation_wins_regardless_of_heartbeat():
    old = PeerState(1, incarnation=2, heartbeat=900, status=PeerStatus.DEAD)
    new = PeerState(1, incarnation=3, heartbeat=1, status=PeerStatus.ALIVE)
    assert merge_states(old, new) == new
    assert merge_states(new, old) == new


def test_dead_is_final_within_an_incarnation():
    dead = PeerState(1, incarnation=1, heartbeat=5, status=PeerStatus.DEAD)
    fresher = PeerState(1, incarnation=1, heartbeat=99, status=PeerStatus.ALIVE)
    assert merge_states(dead, fresher) == dead
    assert merge_states(fresher, dead) == dead


def test_higher_heartbeat_wins_same_incarnation():
    a = PeerState(1, incarnation=1, heartbeat=7)
    b = PeerState(1, incarnation=1, heartbeat=9)
    assert merge_states(a, b) == b


def test_suspect_beats_alive_at_equal_heartbeat():
    alive = PeerState(1, incarnation=1, heartbeat=7, status=PeerStatus.ALIVE)
    suspect = PeerState(1, incarnation=1, heartbeat=7, status=PeerStatus.SUSPECT)
    assert merge_states(alive, suspect) == suspect


def test_merge_rejects_cross_peer_claims():
    with pytest.raises(ValueError):
        merge_states(PeerState(1, 0, 0), PeerState(2, 0, 0))


def test_view_apply_reports_transitions_once():
    view = PeerView(owner_id=0)
    first = view.apply(PeerState(3, 0, 1), now=10)
    assert first is not None
    again = view.apply(PeerState(3, 0, 1), now=20)
    assert again is None  # idempotent: same claim, no transition
    newer = view.apply(PeerState(3, 0, 2), now=30)
    assert newer is not None
    assert view.heartbeat_seen_at[3] == 30


def test_view_suspect_and_dead_transitions():
    view = PeerView(owner_id=0)
    view.apply(PeerState(3, 0, 1), now=0)
    assert view.suspect(3, now=5) is not None
    assert view.suspect(3, now=6) is None  # already suspect
    assert view.declare_dead(3, now=7) is not None
    assert view.declare_dead(3, now=8) is None  # already dead
    assert view.dead_ids() == [3]
    assert not view.considers_live(3)
    # an unknown peer is presumed live (no evidence against it)
    assert view.considers_live(99)


def test_dead_peer_only_resurrects_with_new_incarnation():
    view = PeerView(owner_id=0)
    view.apply(PeerState(3, 1, 5), now=0)
    view.declare_dead(3, now=1)
    view.apply(PeerState(3, 1, 500, PeerStatus.ALIVE), now=2)
    assert view.states[3].status == PeerStatus.DEAD
    view.apply(PeerState(3, 2, 1, PeerStatus.ALIVE), now=3)
    assert view.states[3].status == PeerStatus.ALIVE


def test_digest_roundtrip():
    states = [
        PeerState(0, 0, 0),
        PeerState(5, 2, 1234, PeerStatus.SUSPECT),
        PeerState(254, 65535, 2**32 - 1, PeerStatus.DEAD),
    ]
    payload = encode_digest(states)
    assert len(payload) == len(states) * ENTRY_BYTES
    assert decode_digest(payload) == states


def test_digest_rejects_truncated_payload():
    payload = encode_digest([PeerState(1, 0, 7)])
    with pytest.raises(ValueError):
        decode_digest(payload[:-1])


def test_probe_roundtrip_fits_a_signal_cell():
    payload = encode_probe(PING, origin=17, nonce=4242, heartbeat=99)
    assert len(payload) <= 8  # must ride an INTERRUPT cell
    assert decode_probe(payload) == (PING, 17, 4242, 99)
    assert decode_probe(encode_probe(ACK, 1, 0, 0))[0] == ACK
