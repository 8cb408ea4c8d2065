"""Wire-format tests: byte-exact layouts (slides 5-6) and frame integrity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.micropacket import (
    BROADCAST,
    DmaControl,
    FrameError,
    Framer,
    MicroPacket,
    MicroPacketType,
    PacketFormatError,
    decode_frame,
    encode_frame,
    frame_symbol_count,
    frame_wire_bits,
    layout_rows,
    pack,
    unpack,
)


def fixed_pkt(**kw):
    d = dict(ptype=MicroPacketType.DATA, src=5, dst=9, payload=b"abc", seq=3,
             channel=2, flags=0)
    d.update(kw)
    return MicroPacket(**d)


def dma_pkt(payload=b"x" * 10, **kw):
    d = dict(
        ptype=MicroPacketType.DMA, src=1, dst=2, payload=payload,
        dma=DmaControl(channel=4, offset=0x1000, transfer_id=7),
    )
    d.update(kw)
    return MicroPacket(**d)


# ------------------------------------------------------------------ pack
def test_fixed_pack_is_exactly_12_bytes():
    assert len(pack(fixed_pkt())) == 12


def test_fixed_pack_control_word_layout():
    raw = pack(fixed_pkt())
    assert raw[0] == (MicroPacketType.DATA << 4) | 0
    assert raw[1] == 5 and raw[2] == 9
    assert raw[3] == (2 << 4) | 3


def test_fixed_pack_zero_pads_payload():
    raw = pack(fixed_pkt(payload=b"ab"))
    assert raw[4:6] == b"ab" and raw[6:12] == b"\x00" * 6


def test_variable_pack_layout():
    pkt = dma_pkt(payload=b"0123456789")  # 10 bytes -> 3 words
    raw = pack(pkt)
    assert len(raw) == 12 + 12
    assert raw[4:12] == pkt.dma.pack()
    assert raw[12:22] == b"0123456789"
    assert raw[22:24] == b"\x00\x00"


def test_variable_pack_empty_payload_still_one_word():
    assert len(pack(dma_pkt(payload=b""))) == 16


# ---------------------------------------------------------------- unpack
@given(
    ptype=st.sampled_from([t for t in MicroPacketType if t != MicroPacketType.DMA]),
    src=st.integers(0, 254),
    dst=st.integers(0, 255),
    payload=st.binary(max_size=8),
    seq=st.integers(0, 15),
    channel=st.integers(0, 15),
)
@settings(max_examples=200)
def test_fixed_roundtrip_property(ptype, src, dst, payload, seq, channel):
    pkt = MicroPacket(
        ptype=ptype, src=src, dst=dst, payload=payload, seq=seq, channel=channel
    )
    back = unpack(pack(pkt), payload_len=len(payload))
    assert back == pkt


@given(
    payload=st.binary(max_size=64),
    channel=st.integers(0, 15),
    offset=st.integers(0, 2**32 - 1),
    tid=st.integers(0, 2**16 - 1),
    last=st.booleans(),
)
@settings(max_examples=200)
def test_variable_roundtrip_property(payload, channel, offset, tid, last):
    pkt = MicroPacket(
        ptype=MicroPacketType.DMA, src=3, dst=4, payload=payload,
        dma=DmaControl(channel=channel, offset=offset, transfer_id=tid, last=last),
    )
    back = unpack(pack(pkt), payload_len=len(payload))
    assert back == pkt


def test_unpack_without_len_keeps_padded_payload():
    back = unpack(pack(fixed_pkt(payload=b"ab")))
    assert back.payload == b"ab" + b"\x00" * 6


def test_unpack_rejects_truncated():
    with pytest.raises(PacketFormatError):
        unpack(b"\x10\x01\x02")


def test_unpack_rejects_unknown_type_nibble():
    raw = bytearray(pack(fixed_pkt()))
    raw[0] = 0xF0
    with pytest.raises(PacketFormatError, match="unknown type"):
        unpack(bytes(raw))


def test_unpack_rejects_oversized_fixed():
    raw = pack(fixed_pkt()) + b"\x00\x00\x00\x00"
    with pytest.raises(PacketFormatError):
        unpack(raw)


def test_unpack_rejects_misaligned_variable():
    raw = pack(dma_pkt()) + b"\x00"
    with pytest.raises(PacketFormatError, match="word-aligned"):
        unpack(raw)


def test_unpack_payload_len_bounds_checked():
    with pytest.raises(PacketFormatError):
        unpack(pack(fixed_pkt()), payload_len=9)


#: Wire bytes whose fields the packet's own validation refuses; each
#: once escaped ``unpack`` as a bare ValueError.
REFUSED_FIELDS = {
    "cluster_broadcast_with_dst_segment":
        "2df05b1dec62807de5a23ec26c22f7ac39d843403624f57ef00d93b589a00f73"
        "e12ca33e",
    "routed_offset_over_24_bits":
        "2bccc402380157df00407b9cbc54efe093a9e6c15ce193b3b8e15a8392755b32"
        "2806d0274ffa4a49",
    "cluster_broadcast_without_origin":
        "2cda75da6502f463754b7f99f9870651f9256d5003b332bd9b76c04d5285b085"
        "eddfd36b7d221d35",
    "src_255": "45ffefe62f667caf69143cdd",
    "dma_src_node_255":
        "23df3bdd1e79a8aafcff299941dddd9ed33c5e002148e3fcc525f1b51bc3fec3"
        "5c078e0453f5e4a104b1f395",
}


@pytest.mark.parametrize("name", sorted(REFUSED_FIELDS))
def test_unpack_refused_field_is_a_format_error(name):
    raw = bytes.fromhex(REFUSED_FIELDS[name])
    with pytest.raises(PacketFormatError):
        unpack(raw)
    # ... and so it is through the frame layer.
    with pytest.raises(PacketFormatError):
        Framer().symbols_to_packet(encode_frame(raw))


@settings(max_examples=500)
@given(st.binary(max_size=64), st.none() | st.integers(-1, 80))
def test_unpack_arbitrary_bytes_raise_only_format_error(raw, payload_len):
    try:
        unpack(raw, payload_len=payload_len)
    except PacketFormatError:
        pass


# ----------------------------------------------------------- layout table
def test_layout_rows_fixed_matches_slide5():
    rows = layout_rows(fixed_pkt())
    assert len(rows) == 3
    assert rows[0][0] == "Word 0"
    assert rows[0][4].startswith("Control 0")
    assert rows[0][1].startswith("Control 3")
    assert rows[1][4].startswith("Payload 0")
    assert rows[2][1].startswith("Payload 7")


def test_layout_rows_variable_matches_slide6():
    rows = layout_rows(dma_pkt(payload=b"z" * 64))
    assert len(rows) == 19  # words 0..18 as drawn on slide 6
    assert rows[1][4].startswith("DMA Ctrl 0")
    assert rows[2][1].startswith("DMA Ctrl 7")
    assert rows[3][4].startswith("Payload 0")
    assert rows[18][1].startswith("Payload 63")


# ----------------------------------------------------------------- frames
def test_frame_roundtrip():
    content = pack(fixed_pkt())
    assert decode_frame(encode_frame(content)) == content


def test_frame_symbol_count_overhead():
    assert frame_symbol_count(12) == 18  # SOF + 12 + CRC4 + EOF
    assert frame_wire_bits(12) == 180


def test_frame_crc_detects_corruption():
    content = pack(fixed_pkt())
    symbols = encode_frame(content)
    # Re-encode with one content byte changed but same delimiters:
    bad = bytearray(content)
    bad[5] ^= 0xFF
    forged = encode_frame(bytes(bad))
    forged_wrong_crc = forged[:6] + symbols[6:7] + forged[7:]
    with pytest.raises(FrameError):
        decode_frame(forged_wrong_crc)


def test_frame_missing_sof_rejected():
    symbols = encode_frame(b"payload")
    with pytest.raises(FrameError, match="SOF"):
        decode_frame(symbols[1:])


def test_frame_too_short_rejected():
    with pytest.raises(FrameError, match="too short"):
        decode_frame([0, 1, 2])


def test_frame_single_bitflip_always_detected():
    content = pack(fixed_pkt(payload=b"payload!"))
    base = encode_frame(content)
    for idx in range(len(base)):
        for bit in range(10):
            corrupted = list(base)
            corrupted[idx] ^= 1 << bit
            with pytest.raises(FrameError):
                decode_frame(corrupted)
            break  # one bit position per symbol keeps runtime sane


# ----------------------------------------------------------------- Framer
def test_framer_packet_roundtrip_with_idles():
    fr_tx = Framer(idle_gap=3)
    fr_rx = Framer(idle_gap=3)
    pkt = fixed_pkt(payload=b"12345678")
    symbols = fr_tx.packet_to_symbols(pkt)
    back = fr_rx.symbols_to_packet(symbols)
    assert back == pkt


def test_framer_disparity_continuous_across_frames():
    fr_tx = Framer(idle_gap=2)
    fr_rx = Framer(idle_gap=2)
    for i in range(20):
        pkt = fixed_pkt(payload=bytes([i]) * 8, seq=i % 16)
        assert fr_rx.symbols_to_packet(fr_tx.packet_to_symbols(pkt)) == pkt


def test_framer_variable_roundtrip_with_payload_len():
    fr_tx, fr_rx = Framer(), Framer()
    pkt = dma_pkt(payload=b"hello")
    back = fr_rx.symbols_to_packet(fr_tx.packet_to_symbols(pkt), payload_len=5)
    assert back == pkt

