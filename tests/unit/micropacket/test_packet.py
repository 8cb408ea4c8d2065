"""Unit tests for the MicroPacket object model (slide 4-6 semantics)."""

import pytest

from repro.micropacket import (
    BROADCAST,
    DmaControl,
    Flags,
    MicroPacket,
    MicroPacketType,
    TYPE_REGISTRY,
)


def make_data(**kw):
    defaults = dict(ptype=MicroPacketType.DATA, src=1, dst=2, payload=b"hi")
    defaults.update(kw)
    return MicroPacket(**defaults)


# ------------------------------------------------------------ type registry
def test_registry_has_all_six_types():
    assert len(TYPE_REGISTRY) == 6
    assert {t.name for t in TYPE_REGISTRY} == {
        "ROSTERING", "DATA", "DMA", "INTERRUPT", "DIAGNOSTIC", "D64_ATOMIC",
    }


def test_registry_matches_slide_4_table():
    rows = [
        (info.name, info.length, "Yes" if info.mandatory else "No")
        for info in TYPE_REGISTRY.values()
    ]
    assert ("Rostering", "Fixed", "Yes") in rows
    assert ("Data", "Fixed", "Yes") in rows
    assert ("DMA", "Variable", "Yes") in rows
    assert ("Interrupt", "Fixed", "Yes") in rows
    assert ("Diagnostic", "Fixed", "Yes") in rows
    assert ("D64 Atomic", "Fixed", "No") in rows
    assert len(rows) == 6


def test_only_dma_is_variable():
    variable = [i for i in TYPE_REGISTRY.values() if i.length == "Variable"]
    assert [i.ptype for i in variable] == [MicroPacketType.DMA]


def test_only_d64_atomic_is_optional():
    optional = [i for i in TYPE_REGISTRY.values() if not i.mandatory]
    assert [i.ptype for i in optional] == [MicroPacketType.D64_ATOMIC]


# ------------------------------------------------------------- construction
def test_fixed_packet_accepts_up_to_8_bytes():
    pkt = make_data(payload=b"12345678")
    assert pkt.wire_bytes == 12


def test_fixed_packet_rejects_9_bytes():
    with pytest.raises(ValueError, match="fixed payload"):
        make_data(payload=b"123456789")


def test_dma_requires_control_block():
    with pytest.raises(ValueError, match="DmaControl"):
        MicroPacket(ptype=MicroPacketType.DMA, src=0, dst=1, payload=b"x")


def test_non_dma_rejects_control_block():
    with pytest.raises(ValueError, match="carry no DMA"):
        make_data(dma=DmaControl(channel=0, offset=0))


def test_dma_payload_up_to_64_bytes():
    dma = DmaControl(channel=3, offset=4096)
    pkt = MicroPacket(
        ptype=MicroPacketType.DMA, src=0, dst=1, payload=b"z" * 64, dma=dma
    )
    assert pkt.wire_bytes == 12 + 64


def test_dma_payload_65_bytes_rejected():
    dma = DmaControl(channel=3, offset=0)
    with pytest.raises(ValueError, match="variable payload"):
        MicroPacket(
            ptype=MicroPacketType.DMA, src=0, dst=1, payload=b"z" * 65, dma=dma
        )


def test_variable_wire_bytes_word_rounding():
    dma = DmaControl(channel=0, offset=0)
    for n, expect in [(0, 16), (1, 16), (4, 16), (5, 20), (64, 76)]:
        pkt = MicroPacket(
            ptype=MicroPacketType.DMA, src=0, dst=1, payload=b"q" * n, dma=dma
        )
        assert pkt.wire_bytes == expect, n


@pytest.mark.parametrize("field,value", [
    ("src", 255), ("src", -1), ("dst", 256), ("seq", 16), ("channel", 16),
    ("flags", 16),
])
def test_field_range_validation(field, value):
    with pytest.raises(ValueError):
        make_data(**{field: value})


def test_payload_must_be_bytes():
    with pytest.raises(TypeError):
        make_data(payload="string")  # type: ignore[arg-type]


def test_broadcast_destination_sets_flag():
    pkt = make_data(dst=BROADCAST)
    assert pkt.is_broadcast
    assert pkt.flags & Flags.BROADCAST_FLAG


def test_unicast_has_no_broadcast_flag_by_default():
    assert not make_data().is_broadcast


def test_with_seq_masks_to_nibble():
    assert make_data().with_seq(0x1F).seq == 0xF


def test_packets_are_immutable():
    pkt = make_data()
    with pytest.raises(AttributeError):
        pkt.src = 9  # type: ignore[misc]


def test_describe_mentions_type_and_route():
    text = make_data(src=3, dst=BROADCAST).describe()
    assert "Data" in text and "3->BCAST" in text


# --------------------------------------------------------------- DmaControl
def test_dma_control_pack_unpack_roundtrip():
    dma = DmaControl(channel=7, offset=0xDEADBEEF, transfer_id=0x1234, last=True)
    assert DmaControl.unpack(dma.pack()) == dma


def test_dma_control_pack_is_8_bytes():
    assert len(DmaControl(channel=0, offset=0).pack()) == 8


def test_dma_control_validation():
    with pytest.raises(ValueError):
        DmaControl(channel=16, offset=0)
    with pytest.raises(ValueError):
        DmaControl(channel=0, offset=1 << 32)
    with pytest.raises(ValueError):
        DmaControl(channel=0, offset=0, transfer_id=1 << 16)


def test_dma_control_unpack_length_check():
    with pytest.raises(ValueError):
        DmaControl.unpack(b"short")
