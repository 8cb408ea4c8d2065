"""Rostering cell encode/decode and flood-rule tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.micropacket import MicroPacket, MicroPacketType
from repro.rostering import wire
from repro.rostering import (
    CommitAssembler,
    Phase,
    decode,
    encode_commit_chunks,
    encode_explore,
    encode_join,
    encode_report,
    flood_key,
)


def test_explore_roundtrip():
    msg = decode(encode_explore(origin=7, round_no=3))
    assert msg.phase == Phase.EXPLORE
    assert (msg.origin, msg.round_no) == (7, 3)


def test_join_roundtrip():
    msg = decode(encode_join(origin=9))
    assert msg.phase == Phase.JOIN and msg.origin == 9


def test_report_roundtrip():
    pkt = encode_report(origin=4, round_no=9, port_bitmap=0b1010,
                        version=(2, 5))
    msg = decode(pkt)
    assert msg.phase == Phase.REPORT
    assert msg.port_bitmap == 0b1010
    assert msg.version == (2, 5)


def test_unused_wire_bytes_are_zero():
    """Nothing fills or reads the old hop-count and qualification bytes:
    the encoders write zero there, so cells stay byte-identical."""
    for pkt in (encode_explore(origin=7, round_no=3), encode_join(origin=9)):
        assert pkt.payload[3:8] == bytes(5)
    report = encode_report(origin=4, round_no=9, port_bitmap=0xFF,
                           version=(255, 255))
    assert report.payload[4] == 0 and report.payload[7] == 0


def test_report_bitmap_validation():
    with pytest.raises(ValueError):
        encode_report(origin=0, round_no=0, port_bitmap=256)


def test_rostering_cells_are_fixed_broadcast():
    pkt = encode_explore(origin=1, round_no=1)
    assert pkt.ptype == MicroPacketType.ROSTERING
    assert pkt.is_fixed and pkt.is_broadcast
    assert len(pkt.payload) == 8


def test_decode_rejects_non_rostering():
    pkt = MicroPacket(ptype=MicroPacketType.DATA, src=0, dst=1, payload=b"x")
    with pytest.raises(ValueError):
        decode(pkt)


# ------------------------------------------------------------------ commits
@given(st.lists(st.integers(0, 254), min_size=1, max_size=40, unique=True))
def test_commit_chunking_roundtrip(members):
    chunks = encode_commit_chunks(origin=0, round_no=5, members=members)
    assert len(chunks) == -(-len(members) // 3)
    asm = CommitAssembler()
    result = None
    for pkt in chunks:
        result = asm.add(decode(pkt))
    assert result == members


def test_commit_reassembly_out_of_order():
    members = list(range(10))
    chunks = encode_commit_chunks(origin=2, round_no=1, members=members)
    asm = CommitAssembler()
    result = None
    for pkt in reversed(chunks):
        result = asm.add(decode(pkt))
    assert result == members


def test_commit_incomplete_returns_none():
    chunks = encode_commit_chunks(origin=2, round_no=1, members=list(range(9)))
    asm = CommitAssembler()
    assert asm.add(decode(chunks[0])) is None
    assert asm.add(decode(chunks[1])) is None


def test_commit_empty_roster_rejected():
    with pytest.raises(ValueError):
        encode_commit_chunks(origin=0, round_no=0, members=[])


def test_commit_bad_member_rejected():
    with pytest.raises(ValueError):
        encode_commit_chunks(origin=0, round_no=0, members=[255])


def test_assembler_rejects_non_commit():
    asm = CommitAssembler()
    with pytest.raises(ValueError):
        asm.add(decode(encode_explore(0, 1)))


def test_assembler_keeps_rounds_separate():
    asm = CommitAssembler()
    a = encode_commit_chunks(origin=0, round_no=1, members=[1, 2, 3, 4])
    b = encode_commit_chunks(origin=0, round_no=2, members=[5, 6, 7, 8])
    assert asm.add(decode(a[0])) is None
    assert asm.add(decode(b[0])) is None
    assert asm.add(decode(b[1])) == [5, 6, 7, 8]
    assert asm.add(decode(a[1])) == [1, 2, 3, 4]


# ---------------------------------------------------------------- flood key
def test_flood_key_ignores_hops_for_explore():
    # No encoder counts hops in byte 3 any more; a cell that does (an
    # older relay's) must still not defeat suppression.
    a = encode_explore(origin=3, round_no=7).payload
    b = a[:3] + b"\x05" + a[4:]
    assert flood_key(a) == flood_key(b)


def test_flood_key_distinguishes_rounds_and_origins():
    keys = {
        flood_key(encode_explore(origin=o, round_no=r).payload)
        for o in (1, 2) for r in (1, 2)
    }
    assert len(keys) == 4


def test_flood_key_distinguishes_commit_chunks():
    chunks = encode_commit_chunks(origin=0, round_no=1, members=list(range(9)))
    keys = {flood_key(c.payload) for c in chunks}
    assert len(keys) == 3


def test_flood_key_distinguishes_phases():
    e = encode_explore(origin=1, round_no=1)
    r = encode_report(origin=1, round_no=1, port_bitmap=0xF)
    assert flood_key(e.payload) != flood_key(r.payload)


# ------------------------------------------------------------ parse memo
well_formed = st.builds(
    lambda phase, rest: bytes([phase]) + rest,
    st.sampled_from(list(Phase)), st.binary(max_size=7))
#: anything that fits a fixed cell: mostly no phase at all, so half are
#: steered to one
payloads = st.one_of(st.binary(min_size=0, max_size=8), well_formed)


def rostering(payload):
    return MicroPacket(ptype=MicroPacketType.ROSTERING, src=0, dst=0xFF,
                       payload=payload)


def key_by_the_rule(payload):
    """Slide 16's rule, said the long way round."""
    header = list(payload[:4]) + [0] * (4 - len(payload[:4]))
    return bytes(header if header[0] == Phase.COMMIT else header[:3])


@given(st.lists(payloads, min_size=1, max_size=30))
def test_remembered_parse_equals_a_fresh_one(cells):
    """Whatever was decoded before, in whatever order: a payload decodes
    to what parsing it afresh gives, and errors the same way, every time."""
    for payload in cells + cells:
        assert flood_key(payload) == key_by_the_rule(payload)
        try:
            fresh = wire._parse(payload)
        except ValueError as exc:
            for _again in range(2):
                with pytest.raises(ValueError, match=str(exc)):
                    decode(rostering(payload))
            assert payload not in wire._decoded
        else:
            assert decode(rostering(payload)) == fresh
            assert decode(rostering(payload)) is wire._decoded[payload]


@given(payloads)
def test_unknown_phase_is_a_decode_error_naming_it(payload):
    phase = payload[0] if payload else 0
    if phase in tuple(Phase):
        assert decode(rostering(payload)).phase == phase
        return
    for _again in range(2):  # an error is never remembered
        with pytest.raises(ValueError, match=f"unknown rostering phase {phase}$"):
            decode(rostering(payload))


@given(well_formed)
def test_a_remembered_payload_is_still_refused_under_another_type(payload):
    """The type check runs on every call, ahead of the memo."""
    decode(rostering(payload))
    assert payload in wire._decoded
    stranger = MicroPacket(ptype=MicroPacketType.DATA, src=0, dst=1,
                           payload=payload)
    for _again in range(2):
        with pytest.raises(ValueError, match="not a rostering packet"):
            decode(stranger)


@given(st.lists(payloads, min_size=1, max_size=60))
def test_parse_memo_never_exceeds_its_bound(cells):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wire, "_PARSE_CACHE_SIZE", 8)
        patch.setattr(wire, "_decoded", {})
        patch.setattr(wire, "_flood_keys", {})
        for payload in cells:
            assert flood_key(payload) == key_by_the_rule(payload)
            try:
                assert decode(rostering(payload)) == wire._parse(payload)
            except ValueError:
                pass
            assert len(wire._decoded) <= 8 and len(wire._flood_keys) <= 8
        assert len(wire._flood_keys) == min(8, len(set(cells)))


#: longer than any cell: a MicroPacket refuses them, but the codec's
#: byte-level half (``_parse``, ``flood_key``) sees whatever it is given
long_payloads = st.one_of(
    st.binary(min_size=9, max_size=64),
    st.builds(lambda phase, rest: bytes([phase]) + rest,
              st.sampled_from(list(Phase)),
              st.binary(min_size=8, max_size=63)),
)


@given(long_payloads)
def test_a_longer_cell_decodes_or_raises_only_the_phase_error(payload):
    """Bytes past the eighth are ignored: a 9-64-byte payload parses as
    its first eight bytes do, or fails with the ``ValueError`` naming
    its phase, and nothing else escapes."""
    with pytest.raises(ValueError, match="fixed payload"):
        rostering(payload)
    assert flood_key(payload) == key_by_the_rule(payload)
    try:
        msg = wire._parse(payload)
    except ValueError as exc:
        assert str(exc) == f"unknown rostering phase {payload[0]}"
        assert payload[0] not in tuple(Phase)
        return
    assert msg == wire._parse(payload[:8])
