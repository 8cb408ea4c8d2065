"""Property tests for hierarchical route summarization.

Three load-bearing claims, machine-checked across generated meshes:

* **coverage** — a router holding specifics for its own area plus one
  summary per other area can produce an egress for *every* segment of
  the mesh: the summarized table subsumes the reachable set, so
  compressing rows never silently sheds a destination;
* **no phantom routes** — a segment outside every area range decodes
  to "no route", never to a detour: summarization must not invent
  reachability;
* **wire pins** — the v2 (flat) and v3 (summarized) advertisement
  layouts decode through ``repro.routing.ads`` byte for byte against
  an independently hand-built encoder, so any codec change that would
  break on-disk traces or cross-version interoperability fails here
  first.

The egress properties run against a bare ``RouteTable`` — lookup is a
pure function of its state, so no simulator is needed and Hypothesis
can afford thousands of meshes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.ads import AGE_UNIT_NS, decode, encode
from repro.routing.table import NOT_OURS, Route, RouteTable, Summary


def router_table(areas, own_index, via_choice):
    """The table of one hub of ``areas[own_index]``.

    ``areas`` is a list of segment-count ints laid out contiguously
    from 0.  The router is attached to every segment of its own area
    (hub shape) and holds one summary per other area, each arriving on
    a port chosen by ``via_choice``.
    """
    starts = []
    base = 0
    for count in areas:
        starts.append(base)
        base += count
    own = list(range(starts[own_index], starts[own_index] + areas[own_index]))
    table = RouteTable(attached=own, area=own_index + 1)
    for index, count in enumerate(areas):
        if index == own_index:
            continue
        via = own[via_choice % len(own)]
        table.summaries[index + 1] = Summary(
            area=index + 1, lo=starts[index], hi=starts[index] + count - 1,
            metric=1 + (index % 3), via=via, router=index,
        )
    return table, base


area_layouts = st.lists(st.integers(1, 6), min_size=1, max_size=5)


@settings(max_examples=200)
@given(areas=area_layouts, own=st.integers(0, 4), via=st.integers(0, 5))
def test_summarized_table_covers_every_reachable_segment(areas, own, via):
    own %= len(areas)
    table, n_segments = router_table(areas, own, via)
    for seg in range(n_segments):
        egress = table.egress_for(ingress=-1, dst_segment=seg)
        # ingress -1 matches no port, so a covered destination must
        # resolve to a concrete egress — never a decline, never None.
        assert egress is not None and egress != NOT_OURS
        if seg in table.attached:
            assert egress == seg  # attached wins over any summary


@settings(max_examples=200)
@given(areas=area_layouts, own=st.integers(0, 4), via=st.integers(0, 5),
       beyond=st.integers(0, 99))
def test_no_route_to_unreachable_segment(areas, own, via, beyond):
    own %= len(areas)
    table, n_segments = router_table(areas, own, via)
    # Everything past the mesh is unreachable: summarization must
    # report that honestly instead of hallucinating a range hit.
    assert table.egress_for(
        ingress=-1, dst_segment=n_segments + beyond
    ) is None


@given(data=st.data())
def test_overlapping_summaries_prefer_a_forwardable_via(data):
    """When summary ranges overlap (a border router's own-area summary
    spans its foreign ports), the best *forwardable* summary wins: the
    router declines only when every covering summary points back out
    the ingress — the anti-black-hole contract."""
    dst = data.draw(st.integers(0, 30), label="dst")
    vias = data.draw(
        st.lists(st.sampled_from([100, 101, 102]), min_size=1, max_size=4),
        label="vias",
    )
    metrics = data.draw(
        st.lists(st.integers(1, 9), min_size=len(vias), max_size=len(vias)),
        label="metrics",
    )
    ingress = data.draw(st.sampled_from([100, 101, 102]), label="ingress")
    table = RouteTable(attached=set(vias))
    summaries = table.summaries
    for index, (via, metric) in enumerate(zip(vias, metrics)):
        summaries[index + 1] = Summary(area=index + 1, lo=dst, hi=dst,
                                       metric=metric, via=via, router=index)
    egress = table.egress_for(ingress, dst)
    forwardable = [s for s in summaries.values() if s.via != ingress]
    if not forwardable:
        assert egress == NOT_OURS
    else:
        best = min(s.metric for s in forwardable)
        assert egress in {s.via for s in forwardable if s.metric == best}


@settings(max_examples=200)
@given(areas=area_layouts, own=st.integers(0, 4), via=st.integers(0, 5))
def test_specifics_always_win_over_summaries(areas, own, via):
    own %= len(areas)
    table, n_segments = router_table(areas, own, via)
    # Plant a specific for a summarized foreign segment: the table
    # entry must shadow the (in-range) summary.
    foreign = [seg for seg in range(n_segments) if seg not in table.attached]
    if not foreign:
        return
    seg = foreign[0]
    specific_via = min(table.attached)
    table.routes[seg] = Route(via=specific_via, metric=7, router=9)
    assert table.egress_for(-1, seg) == specific_via


# --------------------------------------------------------------- wire pins

def encode_v2(router_id, priority, root_id, root_priority, root_cost,
              period_units, age_units, entries):
    """The documented v2 layout, built independently of the codec."""
    out = bytearray([router_id, priority, root_id, root_priority, root_cost])
    out += period_units.to_bytes(2, "little")
    out += age_units.to_bytes(2, "little")
    out.append(len(entries))
    for seg, metric, live in entries:
        if live is None:
            out += bytes([seg, metric, 0xFF])  # elided live list
            continue
        live_ids = sorted(live)
        out += bytes([seg, metric, len(live_ids)])
        out += bytes(live_ids)
    return bytes(out)


def encode_v3(area, summaries, *args):
    """v3 = escape byte, v2 header, area, flat rows, summary rows."""
    body = bytearray(encode_v2(*args))
    # splice the area byte between the 9-byte header and the rows
    out = bytearray([0xFF]) + body[:9]
    out.append(area)
    out += body[9:]
    out.append(len(summaries))
    for s_area, lo, hi, metric, period_units in summaries:
        out += bytes([s_area, lo, hi, metric])
        out += period_units.to_bytes(2, "little")
    return bytes(out)


ad_headers = st.tuples(
    st.integers(0, 0xFE),      # router id (0xFF is the v3 escape)
    st.integers(0, 255),       # priority
    st.integers(0, 255),       # root id
    st.integers(0, 255),       # root priority
    st.integers(0, 255),       # root cost
    st.integers(0, 0xFFFF),    # period units
    st.integers(0, 0xFFFF),    # root age units
)

#: a live list is either a small literal id set or ``None`` — the
#: 0xFF "elided, assume all live" sentinel rings past the cap ship
ad_entries = st.lists(
    st.tuples(
        st.integers(0, 255),
        st.integers(0, 255),
        st.none() | st.sets(st.integers(0, 255), max_size=8),
    ),
    max_size=4,
)

ad_summaries = st.lists(
    st.tuples(
        st.integers(1, 255),
        st.integers(0, 255),
        st.integers(0, 255),
        st.integers(0, 255),
        st.integers(0, 0xFFFF),
    ),
    max_size=4,
)


@settings(max_examples=200)
@given(header=ad_headers, entries=ad_entries)
def test_v2_ad_roundtrip_pins_the_flat_layout(header, entries):
    (router_id, priority, root_id, root_priority, root_cost,
     period_units, age_units) = header
    payload = encode_v2(*header, entries)
    ad = decode(payload)
    assert ad.router_id == router_id
    assert ad.priority == priority
    assert ad.root == (root_priority, root_id)
    assert ad.root_cost == root_cost
    assert ad.period_ns == period_units * AGE_UNIT_NS
    assert ad.root_age_ns == age_units * AGE_UNIT_NS
    assert list(ad.entries) == entries
    # v2 decodes as the unlabelled single area with no summaries.
    assert (ad.version, ad.area, ad.summaries) == (2, 0, ())
    assert encode(ad) == payload  # and the codec's encoder agrees


@settings(max_examples=200)
@given(header=ad_headers, entries=ad_entries, area=st.integers(0, 255),
       summaries=ad_summaries)
def test_v3_ad_roundtrip_pins_the_summarized_layout(
    header, entries, area, summaries
):
    payload = encode_v3(area, summaries, *header, entries)
    ad = decode(payload)
    assert ad.router_id == header[0]
    assert list(ad.entries) == entries
    assert (ad.version, ad.area) == (3, area)
    assert list(ad.summaries) == [
        (s_area, lo, hi, metric, period_units * AGE_UNIT_NS)
        for s_area, lo, hi, metric, period_units in summaries
    ]
    assert encode(ad) == payload
