"""T1 (slide 4): the MicroPacket type table.

Regenerates the table from the implementation's registry, extended with
measured wire sizes, and round-trips one cell through the serializer.
"""

from repro.micropacket import (
    BROADCAST,
    DmaControl,
    MicroPacket,
    MicroPacketType,
    TYPE_REGISTRY,
    frame_wire_bits,
    pack,
    unpack,
)

import harness


def sample_packet(ptype: MicroPacketType) -> MicroPacket:
    if ptype == MicroPacketType.DMA:
        return MicroPacket(
            ptype=ptype, src=1, dst=2, payload=b"z" * 64,
            dma=DmaControl(channel=0, offset=0),
        )
    return MicroPacket(ptype=ptype, src=1, dst=BROADCAST, payload=b"12345678")


def build_rows():
    rows = []
    for ptype, info in TYPE_REGISTRY.items():
        pkt = sample_packet(ptype)
        rows.append(
            (
                info.name,
                info.length,
                "Yes" if info.mandatory else "No",
                f"{pkt.wire_bytes} B",
                f"{frame_wire_bits(pkt.wire_bytes)} bits",
            )
        )
    return rows


def test_t1_micropacket_type_table(publish_json):
    rows = build_rows()

    # Slide-4 ground truth.
    assert [r[:3] for r in rows] == [
        ("Rostering", "Fixed", "Yes"),
        ("Data", "Fixed", "Yes"),
        ("DMA", "Variable", "Yes"),
        ("Interrupt", "Fixed", "Yes"),
        ("Diagnostic", "Fixed", "Yes"),
        ("D64 Atomic", "Fixed", "No"),
    ]
    # Fixed cells are 12 bytes on the wire; the max variable cell is 76.
    assert all(r[3] == "12 B" for r in rows if r[1] == "Fixed")
    assert rows[2][3] == "76 B"

    pkt = sample_packet(MicroPacketType.DATA)
    assert unpack(pack(pkt)) == pkt.with_seq(pkt.seq)

    publish_json(
        harness.bench_payload(
            exp="T1",
            title="MicroPacket type table with measured wire sizes",
            params={"types": len(rows)},
            columns=["type", "length", "mandatory", "wire_bytes", "frame_bits"],
            rows=[
                [info.name, info.length, info.mandatory,
                 sample_packet(ptype).wire_bytes,
                 frame_wire_bits(sample_packet(ptype).wire_bytes)]
                for ptype, info in TYPE_REGISTRY.items()
            ],
            metrics={
                "fixed_cell_wire_bytes": 12,
                "max_variable_wire_bytes": max(
                    sample_packet(p).wire_bytes for p in TYPE_REGISTRY
                ),
            },
            notes="Regenerated from the implementation's TYPE_REGISTRY; "
                  "wire sizes measured from packed sample packets.",
        )
    )
