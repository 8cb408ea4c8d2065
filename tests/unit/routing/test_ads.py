"""The advertisement codec: strict decoding, round-trip identity, fuzz.

The independent hand-built encoder that pins the byte layout lives in
``tests/property/test_routing_summaries.py``; here the codec is held
against itself and against arbitrary bytes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.ads import (
    AGE_UNIT_NS,
    LIVE_LIST_CAP,
    AdDecodeError,
    Advertisement,
    Entry,
    SummaryRow,
    decode,
    encode,
)

#: router 7 (priority 50) claiming root (50, 7) at cost 0, period 20
#: units, age 0 — the 9-byte v2 header every case below extends
HEADER = bytes([7, 50, 7, 50, 0, 20, 0, 0, 0])


def test_decodes_a_hand_built_v2_ad():
    ad = decode(HEADER + bytes([1, 3, 0, 2, 4, 5]))
    assert ad == Advertisement(
        router_id=7, priority=50, root=(50, 7), root_cost=0,
        period_ns=20 * AGE_UNIT_NS, root_age_ns=0,
        entries=(Entry(3, 0, frozenset({4, 5})),),
    )
    assert ad.version == 2 and ad.area == 0 and ad.summaries == ()


# ---------------------------------------------------------- strict decode
def test_live_count_overrunning_the_payload_is_rejected():
    """n_live=4 with 2 ids present used to decode to a 2-element set."""
    with pytest.raises(AdDecodeError, match="truncated"):
        decode(HEADER + bytes([1, 3, 0, 4, 4, 5]))


def test_trailing_bytes_are_rejected():
    """Garbage after a complete ad used to be ignored."""
    with pytest.raises(AdDecodeError, match="4 trailing bytes"):
        decode(HEADER + bytes([1, 3, 0, 0]) + b"\xde\xad\xbe\xef")


def test_summary_row_missing_its_period_high_byte_is_rejected():
    """A half-present u16 used to decode as a wrong (50 us) period."""
    v3 = bytes([0xFF]) + HEADER + bytes([2, 0])  # area 2, no entries
    with pytest.raises(AdDecodeError, match="truncated"):
        decode(v3 + bytes([1, 1, 10, 12, 1, 5]))  # period low byte only
    assert decode(v3 + bytes([1, 1, 10, 12, 1, 5, 0])).summaries == (
        SummaryRow(1, 10, 12, 1, 5 * AGE_UNIT_NS),
    )


@pytest.mark.parametrize("cut", range(len(HEADER) + 1))
def test_every_header_truncation_is_rejected(cut):
    with pytest.raises(AdDecodeError):
        decode((HEADER + bytes([0]))[:cut])


@settings(max_examples=500)
@given(payload=st.binary(max_size=64))
def test_arbitrary_bytes_decode_or_raise_the_typed_error(payload):
    try:
        ad = decode(payload)
    except AdDecodeError:
        return
    # Whatever decodes is one exact ad.  Re-encoding may canonicalise
    # (live ids sorted, duplicates folded, over-cap lists elided) but
    # the canonical bytes are a fixed point.
    canonical = encode(ad)
    assert encode(decode(canonical)) == canonical


# ------------------------------------------------------------- round trip
u8 = st.integers(0, 255)
wire_ns = st.integers(0, 0xFFFF).map(lambda units: units * AGE_UNIT_NS)
live_sets = st.none() | st.frozensets(u8, max_size=LIVE_LIST_CAP)
entries = st.lists(st.builds(Entry, u8, u8, live_sets), max_size=5).map(tuple)
summary_rows = st.lists(
    st.builds(SummaryRow, u8, u8, u8, u8, wire_ns), max_size=5
).map(tuple)
headers = dict(
    router_id=st.integers(0, 0xFE), priority=u8, root=st.tuples(u8, u8),
    root_cost=u8, period_ns=wire_ns, root_age_ns=wire_ns, entries=entries,
)
v2_ads = st.builds(Advertisement, **headers)
v3_ads = st.builds(
    Advertisement, **headers, version=st.just(3), area=u8,
    summaries=summary_rows,
)


@settings(max_examples=300)
@given(ad=v2_ads | v3_ads)
def test_decode_inverts_encode(ad):
    assert decode(encode(ad)) == ad


# ----------------------------------------------------------- quantisation
def test_periods_round_up_ages_round_down_and_both_saturate():
    def wire(**fields):
        return decode(encode(Advertisement(
            router_id=1, priority=1, root=(1, 1),
            **{"root_cost": 0, "period_ns": 0, "root_age_ns": 0, **fields},
        )))

    assert wire(period_ns=AGE_UNIT_NS + 1).period_ns == 2 * AGE_UNIT_NS
    assert wire(root_age_ns=2 * AGE_UNIT_NS - 1).root_age_ns == AGE_UNIT_NS
    assert wire(period_ns=10**12).period_ns == 0xFFFF * AGE_UNIT_NS
    assert wire(root_age_ns=10**12).root_age_ns == 0xFFFF * AGE_UNIT_NS
    assert wire(root_cost=999).root_cost == 0xFF


def test_live_lists_past_the_cap_are_elided():
    crowded = frozenset(range(LIVE_LIST_CAP + 1))
    ad = Advertisement(1, 1, (1, 1), 0, 0, 0, entries=(Entry(9, 2, crowded),))
    payload = encode(ad)
    assert len(payload) == len(HEADER) + 1 + 3  # no ids on the wire
    assert decode(payload).entries == (Entry(9, 2, None),)


def test_v2_cannot_carry_area_or_summaries():
    with pytest.raises(ValueError, match="v2"):
        Advertisement(1, 1, (1, 1), 0, 0, 0, area=3)
    with pytest.raises(ValueError, match="v2"):
        Advertisement(1, 1, (1, 1), 0, 0, 0,
                      summaries=(SummaryRow(1, 0, 1, 0, 0),))
