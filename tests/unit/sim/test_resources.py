"""Unit tests for Store."""

import pytest

from repro.sim import Simulator, Store


# ---------------------------------------------------------------- Store
def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for i in range(5):
            yield store.put(i)

    def consumer():
        for _ in range(5):
            item = yield store.get()
            got.append(item)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = {}

    def consumer():
        got["item"] = yield store.get()
        got["t"] = sim.now

    def producer():
        yield sim.timeout(500)
        yield store.put("late")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == {"item": "late", "t": 500}


def test_store_put_blocks_when_full():
    sim = Simulator()
    store = Store(sim, capacity=1)
    log = []

    def producer():
        yield store.put("a")
        log.append(("a-in", sim.now))
        yield store.put("b")
        log.append(("b-in", sim.now))

    def consumer():
        yield sim.timeout(100)
        item = yield store.get()
        log.append((item, sim.now))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    # "b" cannot enter until "a" leaves at t=100.
    assert ("a-in", 0) in log
    assert ("b-in", 100) in log


def test_store_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Store(sim, capacity=0)


def test_store_try_put_try_get():
    sim = Simulator()
    store = Store(sim, capacity=1)
    assert store.try_put("x") is True
    assert store.try_put("y") is False
    first, second = store.get(), store.get()
    assert first.triggered and first.value == "x"
    assert not second.triggered  # nothing buffered: the getter waits


def test_store_len_tracks_buffered_items():
    sim = Simulator()
    store = Store(sim)
    store.try_put(1)
    store.try_put(2)
    assert len(store) == 2

