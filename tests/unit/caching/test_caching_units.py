"""Unit tests for the caching subsystem's sans-network pieces: the
content-protocol wire format, the bounded store's eviction disciplines,
and :class:`~repro.caching.CacheConfig` validation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.caching import (
    CacheConfig,
    CacheStore,
    ContentFrame,
    HEADER_BYTES,
    OP_REQUEST,
    OP_RESPONSE,
    OP_WRITE,
    OP_WRITE_ACK,
    decode,
    encode_request,
    encode_response,
    encode_write,
    encode_write_ack,
    request_key,
)


# ------------------------------------------------------------------ wire
def test_frames_round_trip_through_decode():
    cases = [
        (encode_request(7, 42), OP_REQUEST, 7, 42, b""),
        (encode_response(7, 42, b"body"), OP_RESPONSE, 7, 42, b"body"),
        (encode_write(9, 3, b"v2"), OP_WRITE, 9, 3, b"v2"),
        (encode_write_ack(9, 3), OP_WRITE_ACK, 9, 3, b""),
    ]
    for payload, op, seq, cid, body in cases:
        frame = decode(payload)
        assert frame is not None
        assert (frame.op, frame.seq, frame.content_id, frame.body) == (
            op, seq, cid, body
        )


def test_request_padding_is_deterministic_and_decodes_clean():
    a = encode_request(1, 5, pad_to=40)
    b = encode_request(1, 5, pad_to=40)
    assert a == b and len(a) == 40
    frame = decode(a)
    assert (frame.op, frame.seq, frame.content_id) == (OP_REQUEST, 1, 5)
    # pad_to below the header is a no-op, never a truncation
    assert len(encode_request(1, 5, pad_to=4)) == HEADER_BYTES


def test_non_content_traffic_decodes_to_none():
    assert decode(b"") is None
    assert decode(b"\x01" * (HEADER_BYTES - 1)) is None  # short frame
    assert decode(bytes([99]) + b"\x00" * 16) is None  # unknown op


#: any byte string a content channel may carry, half of them steered to
#: a known op so the frame branch is reached as often as the None one
content_bytes = st.one_of(
    st.binary(max_size=64),
    st.builds(lambda op, rest: bytes([op]) + rest,
              st.sampled_from([OP_REQUEST, OP_RESPONSE, OP_WRITE,
                               OP_WRITE_ACK]),
              st.binary(max_size=63)),
)


@given(content_bytes)
def test_arbitrary_bytes_decode_to_a_frame_or_none_and_never_raise(payload):
    """Every service hands whatever arrives on its channel to
    ``decode``: a stranger's bytes must come back as None, not as an
    exception inside a messenger handler, and a frame must be exactly
    the bytes it was read from."""
    frame = decode(payload)
    if frame is None:
        assert len(payload) < HEADER_BYTES or payload[0] not in (
            OP_REQUEST, OP_RESPONSE, OP_WRITE, OP_WRITE_ACK)
        return
    assert isinstance(frame, ContentFrame)
    assert (bytes([frame.op]) + frame.seq.to_bytes(8, "little")
            + frame.content_id.to_bytes(8, "little") + frame.body) == payload


def test_request_key_matches_the_frame_prefix():
    """The latency map is keyed on ``payload[:8]`` by the base stream;
    ``request_key(seq)`` must reproduce exactly that prefix."""
    for seq in (0, 1, 255, 256, 2**32 + 17):
        assert request_key(seq) == encode_request(seq, 123)[:8]
        assert len(request_key(seq)) == 8


# ----------------------------------------------------------------- store
def test_lru_evicts_least_recently_touched():
    store = CacheStore(capacity=2, eviction="lru")
    assert store.put(1, b"a") is None
    assert store.put(2, b"b") is None
    store.get(1)  # refresh 1: now 2 is the LRU victim
    assert store.put(3, b"c") == 2
    assert [k for k in (1, 2, 3) if k in store] == [1, 3]
    assert store.evictions == 1


def test_lfu_evicts_least_frequent_with_insertion_tiebreak():
    store = CacheStore(capacity=2, eviction="lfu")
    store.put(1, b"a")
    store.put(2, b"b")
    store.get(1)
    store.get(1)
    assert store.put(3, b"c") == 2  # freq(1)=3 > freq(2)=1
    # 3 and... now freq(3)=1 < freq(1)=3; fresh insert 4 evicts 3
    assert store.put(4, b"d") == 3
    # Tie between two once-touched entries falls to insertion order.
    tie = CacheStore(capacity=2, eviction="lfu")
    tie.put(10, b"x")
    tie.put(11, b"y")
    assert tie.put(12, b"z") == 10


def test_update_of_resident_entry_never_evicts():
    store = CacheStore(capacity=2)
    store.put(1, b"a")
    store.put(2, b"b")
    assert store.put(1, b"a2") is None
    assert store.get(1) == b"a2"
    assert len(store) == 2 and store.evictions == 0


def test_store_rejects_bad_parameters():
    with pytest.raises(ValueError, match="capacity"):
        CacheStore(capacity=0)
    with pytest.raises(ValueError, match="eviction"):
        CacheStore(capacity=4, eviction="fifo")


# ---------------------------------------------------------------- config
def test_cache_config_defaults_off():
    config = CacheConfig()
    assert config.enabled is False


def test_cache_config_validation():
    CacheConfig(enabled=True, capacity=1, eviction="lfu", channel=15)
    with pytest.raises(ValueError, match="capacity"):
        CacheConfig(capacity=0)
    with pytest.raises(ValueError, match="eviction"):
        CacheConfig(eviction="mru")
    with pytest.raises(ValueError, match="channel"):
        CacheConfig(channel=16)
