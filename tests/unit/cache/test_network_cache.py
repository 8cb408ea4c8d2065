"""Unit tests for the local network-cache replica (seqlock semantics)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netcache import (
    CacheError,
    NetworkCache,
    RecordUpdate,
    RegionSpec,
    decode_update,
    encode_update,
)
from repro.sim import Simulator


def cache_with_region(n_records=8, record_size=32):
    sim = Simulator()
    cache = NetworkCache(sim, node_id=1)
    cache.define_region(RegionSpec(1, "r", n_records, record_size),
                        announce=False)
    return sim, cache


# ------------------------------------------------------------------ regions
def test_region_spec_validation():
    with pytest.raises(CacheError):
        RegionSpec(256, "x", 1, 1)
    with pytest.raises(CacheError):
        RegionSpec(0, "x", 0, 1)
    with pytest.raises(CacheError):
        RegionSpec(0, "x", 1, 1 << 16)


def test_region_redefinition_same_shape_is_idempotent():
    _sim, cache = cache_with_region()
    cache.define_region(RegionSpec(1, "r", 8, 32), announce=False)
    assert cache.region("r").n_records == 8


def test_region_redefinition_different_shape_rejected():
    _sim, cache = cache_with_region()
    with pytest.raises(CacheError):
        cache.define_region(RegionSpec(1, "r", 9, 32), announce=False)


def test_region_name_collision_rejected():
    _sim, cache = cache_with_region()
    with pytest.raises(CacheError):
        cache.define_region(RegionSpec(2, "r", 1, 8), announce=False)


def test_unknown_region_access():
    _sim, cache = cache_with_region()
    with pytest.raises(CacheError):
        cache.read_naive("ghost", 0)
    with pytest.raises(CacheError):
        cache.write("ghost", 0, b"x")


def test_record_index_bounds():
    _sim, cache = cache_with_region(n_records=2)
    with pytest.raises(CacheError):
        cache.write("r", 2, b"x")


def test_size_bytes_accounting():
    _sim, cache = cache_with_region(n_records=8, record_size=32)
    assert cache.size_bytes == 256


# ------------------------------------------------------------- write / read
def test_write_then_try_read_roundtrip():
    _sim, cache = cache_with_region()
    cache.write("r", 0, b"hello")
    ok, data, version = cache.try_read("r", 0)
    assert ok and data[:5] == b"hello" and version == 1


def test_write_pads_record():
    _sim, cache = cache_with_region(record_size=8)
    cache.write("r", 0, b"ab")
    assert cache.read_naive("r", 0) == b"ab" + b"\x00" * 6


def test_write_oversized_rejected():
    _sim, cache = cache_with_region(record_size=4)
    with pytest.raises(CacheError):
        cache.write("r", 0, b"toolong")


def test_versions_monotonic_per_record():
    _sim, cache = cache_with_region()
    updates = [cache.write("r", 3, b"v") for _ in range(5)]
    assert [(u.version, u.writer) for u in updates] == [
        (version, 1) for version in range(1, 6)
    ]
    assert cache.try_read("r", 3)[2] == 5


def test_local_write_hook_invoked():
    _sim, cache = cache_with_region()
    seen = []
    cache.on_local_write = seen.append
    update = cache.write("r", 1, b"payload")
    assert seen == [update]
    assert update.version == 1 and update.writer == 1


# ------------------------------------------------------------------- apply
def test_apply_stale_update_skipped():
    sim, cache = cache_with_region()
    cache.write("r", 0, b"newer")  # version 1 writer 1
    stale = RecordUpdate(1, 0, 1, 0, b"older".ljust(32, b"\x00"))
    # (1, 0) < (1, 1): stale by writer tie-break.
    assert not cache.should_apply(stale)


def test_apply_newer_update_wins():
    sim, cache = cache_with_region()
    cache.write("r", 0, b"mine")
    incoming = RecordUpdate(1, 0, 2, 0, b"theirs".ljust(32, b"\x00"))
    landed = []
    cache.apply_update(incoming, landed.append)
    sim.run()
    ok, data, version = cache.try_read("r", 0)
    assert ok and data[:6] == b"theirs" and version == 2
    assert landed == [True]


def test_update_longer_than_its_record_is_refused_on_every_apply_path():
    """A 40-byte update used to grow a 20-byte record on the gradual
    path, and ``try_read`` then returned 32 bytes.  Both apply paths
    now refuse it: the gradual one counts it and reports it not landed,
    leaving the record as it was; the atomic one raises."""
    sim, cache = cache_with_region(record_size=20)
    cache.write("r", 0, b"mine")
    oversized = RecordUpdate(1, 0, 2, 0, b"\xdd" * 40)
    landed = []
    cache.apply_update(oversized, landed.append)
    sim.run()
    assert landed == [False]
    assert cache.counters["oversized_updates"] == 1
    assert cache.try_read("r", 0) == (True, b"mine".ljust(20, b"\x00"), 1)
    with pytest.raises(CacheError, match="exceeds record size 20"):
        cache.apply_update_atomic(oversized)
    assert cache.try_read("r", 0) == (True, b"mine".ljust(20, b"\x00"), 1)


def test_gradual_apply_has_torn_window():
    sim, cache = cache_with_region(record_size=64)
    incoming = RecordUpdate(1, 0, 1, 0, b"\xaa" * 64)
    observed = []

    def observer():
        cache.apply_update(incoming, lambda _landed: None)
        yield sim.timeout(cache.APPLY_STEP_NS)  # mid-apply
        ok, _d, _v = cache.try_read("r", 0)
        observed.append(("seqlock_ok", ok))
        observed.append(("naive", cache.read_naive("r", 0)))

    sim.process(observer())
    sim.run()
    assert ("seqlock_ok", False) in observed  # counters disagree mid-apply
    naive = dict(observed)["naive"]
    assert set(naive) == {0xAA, 0x00}  # genuinely torn bytes


def test_local_write_mid_apply_is_not_corrupted():
    sim, cache = cache_with_region(record_size=64)
    incoming = RecordUpdate(1, 0, 1, 0, b"\xbb" * 64)
    landed = []

    def interceptor():
        cache.apply_update(incoming, landed.append)
        yield sim.timeout(cache.APPLY_STEP_NS)
        cache.write("r", 0, b"\xcc" * 64)  # local write overtakes

    sim.process(interceptor())
    sim.run()
    assert landed == [False]
    ok, data, version = cache.try_read("r", 0)
    assert ok
    assert data == b"\xcc" * 64  # apply aborted, no \xbb residue
    assert version == 2


def test_seqlock_read_process_retries_until_stable():
    sim, cache = cache_with_region(record_size=64)
    incoming = RecordUpdate(1, 0, 1, 0, b"\xdd" * 64)
    result = {}

    def reader():
        data = yield from cache.read("r", 0)
        result["data"] = data

    cache.apply_update(incoming, lambda _landed: None)
    sim.process(reader())
    sim.run()
    assert result["data"] == b"\xdd" * 64
    assert cache.counters["read_retries"] >= 1


# ----------------------------------------------------------------- updates
@given(
    region=st.integers(0, 255), idx=st.integers(0, 65535),
    version=st.integers(0, 2**32 - 1), writer=st.integers(0, 255),
    data=st.binary(min_size=0, max_size=64),
)
@settings(max_examples=150)
def test_update_encode_decode_roundtrip(region, idx, version, writer, data):
    update = RecordUpdate(region, idx, version, writer, data)
    decoded, rest = decode_update(encode_update(update))
    assert decoded == update and rest == b""


def test_decode_update_truncation():
    with pytest.raises(CacheError):
        decode_update(b"\x01\x02")
    update = RecordUpdate(1, 0, 1, 0, b"abcdef")
    with pytest.raises(CacheError):
        decode_update(encode_update(update)[:-2])


# ----------------------------------------------------------------- snapshot
def test_snapshot_roundtrip_restores_all_state():
    sim, cache = cache_with_region()
    cache.define_region(RegionSpec(2, "other", 4, 16), announce=False)
    cache.write("r", 0, b"alpha")
    cache.write("r", 7, b"omega")
    cache.write("other", 2, b"beta")

    sim2 = Simulator()
    fresh = NetworkCache(sim2, node_id=9)
    applied = fresh.apply_snapshot(cache.snapshot())
    assert applied == 3
    assert fresh.try_read("r", 0)[1][:5] == b"alpha"
    assert fresh.try_read("other", 2)[1][:4] == b"beta"
    assert fresh.region("r").record_size == 32


def test_snapshot_skips_unwritten_records():
    _sim, cache = cache_with_region(n_records=100)
    cache.write("r", 50, b"only one")
    snap = cache.snapshot()
    sim2 = Simulator()
    fresh = NetworkCache(sim2, node_id=2)
    assert fresh.apply_snapshot(snap) == 1


def test_snapshot_apply_respects_newer_local_versions():
    sim, cache = cache_with_region()
    cache.write("r", 0, b"old snapshot value")
    snap = cache.snapshot()
    cache.write("r", 0, b"newer than snapshot")
    assert cache.apply_snapshot(snap) == 0  # nothing regressed
    assert cache.try_read("r", 0)[1][:5] == b"newer"


def test_apply_snapshot_truncation_rejected():
    _sim, cache = cache_with_region()
    with pytest.raises(CacheError):
        cache.apply_snapshot(b"\x01")


def two_region_cache():
    _sim, cache = cache_with_region()
    cache.define_region(RegionSpec(2, "önder", 4, 16), announce=False)
    cache.write("r", 3, b"three")
    return cache


def test_snapshot_cut_inside_a_region_row_defines_nothing_from_that_row():
    """Two bytes of a row used to be all that was checked: a cut inside
    ``record_size`` was accepted (a one-byte ``int.from_bytes``), a cut
    inside ``n_records`` defined a region of the wrong shape."""
    snap = two_region_cache().snapshot()
    first_row = 2 + 2 + len(b"r") + 6
    table = first_row + 2 + len("önder".encode()) + 6
    for cut in range(table):
        fresh = NetworkCache(Simulator(), node_id=2)
        with pytest.raises(CacheError):
            fresh.apply_snapshot(snap[:cut])
        whole_rows = [RegionSpec(1, "r", 8, 32)] if cut >= first_row else []
        assert fresh.regions() == whole_rows
    fresh = NetworkCache(Simulator(), node_id=2)
    assert fresh.apply_snapshot(snap[:table]) == 0  # records are optional
    assert len(fresh.regions()) == 2


def test_snapshot_with_a_garbled_region_name_is_a_cache_error():
    snap = bytearray(two_region_cache().snapshot())
    snap[snap.index("ö".encode())] = 0xFF
    fresh = NetworkCache(Simulator(), node_id=2)
    with pytest.raises(CacheError):
        fresh.apply_snapshot(bytes(snap))
    assert [s.name for s in fresh.regions()] == ["r"]


def test_snapshot_record_longer_than_its_region_allows_is_rejected():
    snap = two_region_cache().snapshot()
    snap += encode_update(RecordUpdate(2, 0, 1, 1, bytes(17)))
    fresh = NetworkCache(Simulator(), node_id=2)
    with pytest.raises(CacheError):
        fresh.apply_snapshot(snap)
    assert fresh.try_read("önder", 0) == (True, bytes(16), 0)


@given(raw=st.one_of(
    st.binary(max_size=64),
    # a well-formed table in front, so the fuzz reaches the record walk
    st.binary(max_size=64).map(
        lambda tail: b"\x01\x00\x07\x01r\x08\x00\x00\x00\x04\x00" + tail),
))
@settings(max_examples=300, deadline=None)
def test_apply_snapshot_of_arbitrary_bytes_raises_only_cache_error(raw):
    cache = NetworkCache(Simulator(), node_id=1)
    try:
        cache.apply_snapshot(raw)
    except CacheError:
        pass
    # whatever got in is a region of the declared shape, and costs
    # nothing until touched: a row may declare 2**32 - 1 records
    for spec in cache.regions():
        for rec in cache._records[spec.region_id].values():
            assert len(rec.data) == spec.record_size


region_specs = st.lists(
    st.tuples(st.integers(0, 255), st.text(min_size=1, max_size=12),
              st.integers(1, 300), st.integers(1, 40)),
    min_size=1, max_size=4,
    unique_by=(lambda r: r[0], lambda r: r[1]),
)


@given(regions=region_specs, data=st.data())
@settings(max_examples=100, deadline=None)
def test_snapshot_round_trips_regions_and_written_records(regions, data):
    cache = NetworkCache(Simulator(), node_id=1)
    written = {}
    for region_id, name, n_records, record_size in regions:
        cache.define_region(RegionSpec(region_id, name, n_records, record_size),
                            announce=False)
        for index in data.draw(st.sets(st.integers(0, n_records - 1),
                                       max_size=5)):
            value = data.draw(st.binary(max_size=record_size))
            cache.write(name, index, value)
            written[name, index] = value.ljust(record_size, b"\x00")
    snap = cache.snapshot()
    fresh = NetworkCache(Simulator(), node_id=2)
    assert fresh.apply_snapshot(snap) == len(written)
    assert fresh.regions() == cache.regions()
    for (name, index), value in written.items():
        assert fresh.try_read(name, index) == (True, value, 1)
    assert fresh.snapshot() == snap


# ------------------------------------------------------------ lazy records
def test_a_region_holds_no_record_until_one_is_touched():
    _sim, cache = cache_with_region(n_records=256)
    assert cache._records[1] == {}
    empty = cache.snapshot()
    assert cache.try_read("r", 200) == (True, bytes(32), 0)
    cache.write("r", 9, b"nine")
    cache.write("r", 2, b"two")
    assert sorted(cache._records[1]) == [2, 9, 200]
    # a record that was only read is not in the snapshot, and written
    # ones appear in index order whatever order they were touched in
    assert cache.snapshot() == empty + b"".join(
        encode_update(RecordUpdate(1, index, 1, 1, value.ljust(32, b"\x00")))
        for index, value in ((2, b"two"), (9, b"nine")))
    with pytest.raises(CacheError):
        cache.try_read("r", 256)
    assert 256 not in cache._records[1]
