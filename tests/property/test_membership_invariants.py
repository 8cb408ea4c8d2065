"""Property tests for the gossip membership semilattice.

The whole correctness story of epidemic membership rests on the merge
being a *join* over a total order: digests may arrive late, duplicated,
or in any interleaving, and every node must still converge to the same
view.  Hypothesis machine-checks the algebra here:

* merge is commutative, associative and idempotent;
* a higher heartbeat sequence always wins within an incarnation (unless
  a DEAD verdict has sealed that incarnation);
* a DEAD peer never transitions back to ALIVE/SUSPECT without a higher
  incarnation number, no matter what claims arrive in what order;
* digest and probe encode/decode are faithful roundtrips, so nothing on
  the wire can break the algebra;
* arbitrary bytes either decode or raise ``ValueError`` — nothing else —
  so a malformed cell or message is one gossip can count and drop.
"""

import itertools

from hypothesis import given
from hypothesis import strategies as st

from repro.membership import (
    PeerState,
    PeerStatus,
    PeerView,
    decode_digest,
    encode_digest,
    merge_states,
    state_key,
)
from repro.membership.wire import decode_probe, encode_probe

peer_states = st.builds(
    PeerState,
    node_id=st.just(7),
    incarnation=st.integers(0, 5),
    heartbeat=st.integers(0, 50),
    status=st.sampled_from(PeerStatus),
)

any_peer_states = st.builds(
    PeerState,
    node_id=st.integers(0, 30),
    incarnation=st.integers(0, 65535),
    heartbeat=st.integers(0, 2**32 - 1),
    status=st.sampled_from(PeerStatus),
)


@given(a=peer_states, b=peer_states)
def test_merge_commutative(a, b):
    assert merge_states(a, b) == merge_states(b, a)


@given(a=peer_states, b=peer_states, c=peer_states)
def test_merge_associative(a, b, c):
    assert merge_states(merge_states(a, b), c) == merge_states(a, merge_states(b, c))


@given(a=peer_states, b=peer_states)
def test_merge_idempotent_and_selective(a, b):
    merged = merge_states(a, b)
    assert merged in (a, b)
    assert merge_states(merged, merged) == merged
    assert merge_states(merged, a) == merged
    assert merge_states(merged, b) == merged


@given(a=peer_states, b=peer_states)
def test_higher_heartbeat_wins_unless_sealed_by_death(a, b):
    if a.incarnation == b.incarnation and a.heartbeat > b.heartbeat:
        merged = merge_states(a, b)
        if b.status == PeerStatus.DEAD and a.status != PeerStatus.DEAD:
            assert merged == b  # death seals the incarnation
        else:
            assert merged == a


@given(claims=st.lists(peer_states, min_size=1, max_size=8))
def test_view_converges_to_same_state_for_any_delivery_order(claims):
    """Merging any permutation of any subset-with-duplicates of claims
    yields one deterministic winner: the max of the total order."""
    expected = max(claims, key=state_key)
    for perm in itertools.islice(itertools.permutations(claims), 24):
        view = PeerView(owner_id=0)
        for i, claim in enumerate(perm):
            view.apply(claim, now=i)
        assert view.get(7) == expected


@given(claims=st.lists(peer_states, min_size=2, max_size=10))
def test_dead_never_resurrects_without_new_incarnation(claims):
    view = PeerView(owner_id=0)
    died_at_incarnation = None
    for i, claim in enumerate(claims):
        before = view.get(7)
        view.apply(claim, now=i)
        after = view.get(7)
        if after.status == PeerStatus.DEAD and died_at_incarnation is None:
            died_at_incarnation = after.incarnation
        if (
            before is not None
            and before.status == PeerStatus.DEAD
            and after.status != PeerStatus.DEAD
        ):
            # the only way out of DEAD is a strictly newer incarnation
            assert after.incarnation > before.incarnation


@given(states=st.lists(any_peer_states, max_size=32))
def test_digest_roundtrip_is_faithful(states):
    assert decode_digest(encode_digest(states)) == states


@given(op=st.integers(0, 0xFF), origin=st.integers(0, 0xFF),
       nonce=st.integers(0, 0xFFFF), heartbeat=st.integers(0, 0xFFFFFFFF))
def test_probe_roundtrip_is_faithful(op, origin, nonce, heartbeat):
    cell = encode_probe(op, origin, nonce, heartbeat)
    assert decode_probe(cell) == (op, origin, nonce, heartbeat)


@given(payload=st.binary(max_size=64))
def test_arbitrary_bytes_decode_or_raise_value_error(payload):
    for decode in (decode_digest, decode_probe):
        try:
            decoded = decode(payload)
        except ValueError:
            continue
        if decode is decode_digest:
            assert encode_digest(decoded) == payload
        else:
            assert encode_probe(*decoded) == payload
