"""F1 (slides 5-6): fixed and variable MicroPacket byte layouts.

Regenerates the two layout figures byte-for-byte from the serializer and
round-trips a cell through the full frame pipeline (pack -> CRC ->
8b/10b -> decode).
"""

from repro.micropacket import (
    DmaControl,
    Framer,
    MicroPacket,
    MicroPacketType,
    layout_rows,
)

import harness


def fixed_packet() -> MicroPacket:
    return MicroPacket(
        ptype=MicroPacketType.DATA, src=0x11, dst=0x22,
        payload=bytes(range(8)), seq=3, channel=1,
    )


def variable_packet() -> MicroPacket:
    return MicroPacket(
        ptype=MicroPacketType.DMA, src=0x11, dst=0x22,
        payload=bytes(range(64)),
        dma=DmaControl(channel=2, offset=0x1000, transfer_id=7),
    )


def test_f1_packet_format_layouts(publish_json):
    fixed_rows = layout_rows(fixed_packet())
    var_rows = layout_rows(variable_packet())

    # Slide 5: three words; word 0 control, words 1-2 payload 0..7.
    assert len(fixed_rows) == 3
    assert fixed_rows[0][0] == "Word 0" and "Control 0" in fixed_rows[0][4]
    assert "Payload 7" in fixed_rows[2][1]
    # Slide 6: nineteen words; DMA control words 1-2, payload 0..63.
    assert len(var_rows) == 19
    assert "DMA Ctrl 0" in var_rows[1][4]
    assert "Payload 63" in var_rows[18][1]

    # The full wire pipeline, FC-1 coding included, round-trips a cell.
    pkt = fixed_packet()
    assert Framer().symbols_to_packet(Framer().packet_to_symbols(pkt)) == pkt

    headers = ["Word", "Byte 3", "Byte 2", "Byte 1", "Byte 0"]
    publish_json(
        harness.bench_payload(
            exp="F1",
            title="MicroPacket byte layouts (slides 5-6), regenerated "
                  "from the serializer",
            params={
                "fixed_payload_bytes": 8,
                "variable_payload_bytes": 64,
            },
            columns=["Format"] + headers,
            rows=(
                [["fixed", *row] for row in fixed_rows]
                + [["variable", *row] for row in var_rows]
            ),
            metrics={
                "fixed_words": len(fixed_rows),
                "variable_words": len(var_rows),
            },
            notes="Deterministic byte-for-byte regeneration of the two "
                  "layout figures; the rows double as a regression pin "
                  "on the wire format (including the reserved bits now "
                  "hosting the global-address extension, which must stay "
                  "zero for unrouted packets).",
        )
    )
