"""Callback cancellation: scheduler-agnostic semantics, no slot leaks.

A cancelled handle must never fire wherever it sits — wheel slot or
overflow heap — and cancellation is a property of the *handle*
(``Callback.cancel()`` blanks it in place), so the guarantee holds
whatever scheduler the kernel runs.  On top of that the kernel reclaims
dead entries: a workload that arms and tears down far-future timers in
a loop (watchdogs, speculative timeouts) must not accumulate schedule
memory across long idle spans.
"""

import pytest

from repro.sim import Callback, SimulationError, Simulator


def test_cancelled_wheel_entry_never_fires():
    sim = Simulator()
    hits = []
    sim.call_in(10, hits.append, "keep")
    drop = sim.call_in(10, hits.append, "drop")
    sim.cancel(drop)
    sim.run()
    assert hits == ["keep"]
    assert drop.fn is None


def test_cancelled_overflow_entry_never_fires():
    sim = Simulator()
    hits = []
    # Far beyond the wheel horizon: lives in the overflow heap.
    drop = sim.call_in(10_000_000, hits.append, "drop")
    sim.call_in(10_000_001, hits.append, "keep")
    sim.cancel(drop)
    sim.run()
    assert hits == ["keep"]
    assert sim.now == 10_000_001


def test_fifo_order_survives_a_cancelled_sibling():
    sim = Simulator()
    hits = []
    sim.call_in(5, hits.append, "a")
    middle = sim.call_in(5, hits.append, "b")
    sim.call_in(5, hits.append, "c")
    sim.cancel(middle)
    sim.run()
    assert hits == ["a", "c"]


def test_cancel_is_idempotent_and_post_fire_cancel_is_harmless():
    sim = Simulator()
    hits = []
    handle = sim.call_in(3, hits.append, 1)
    sim.cancel(handle)
    sim.cancel(handle)  # second cancel: no double-accounting, no error
    assert sim.scheduler_stats()["cancelled_pending"] == 1
    fired = sim.call_in(4, hits.append, 2)
    sim.run()
    sim.cancel(fired)  # the entry already fired; cancelling is a no-op
    assert hits == [2]


def test_cancel_rejects_non_callback_handles():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.cancel(object())
    with pytest.raises(SimulationError):
        sim.cancel(sim.timeout(5))


def test_direct_handle_cancel_without_kernel_involvement():
    sim = Simulator()
    hits = []
    handle = sim.call_in(7, hits.append, "x")
    handle.cancel()  # scheduler-agnostic path: blank the handle itself
    assert handle.fn is None
    sim.run()
    assert hits == []


def test_far_future_cancel_loop_does_not_leak_schedule_memory():
    """Arm-and-tear-down churn on far timers stays bounded.

    Each iteration arms a watchdog far past the wheel horizon and
    cancels it before the next — the pattern that used to pin every
    blanked entry in the schedule until simulated time reached it.
    Compaction must keep the resident schedule near the live count and
    account for everything it reclaimed.
    """
    sim = Simulator()
    hits = []
    for k in range(5_000):
        handle = sim.call_in(50_000_000 + k, hits.append, k)
        sim.cancel(handle)
    stats = sim.scheduler_stats()
    resident = stats["wheel_entries"] + stats["overflow_entries"]
    assert resident + stats["cancelled_reclaimed"] >= 5_000
    assert resident < 200, f"{resident} dead entries still resident"
    assert stats["cancelled_reclaimed"] > 4_800
    # A long idle span (run far past all the cancelled deadlines) fires
    # nothing and leaves the schedule empty.
    end = sim.call_in(60_000_000, hits.append, "end")
    sim.run()
    assert hits == ["end"]
    stats = sim.scheduler_stats()
    assert stats["wheel_entries"] == 0 and stats["overflow_entries"] == 0


def test_near_future_cancel_churn_compacts_wheel_slots():
    sim = Simulator()
    hits = []
    handles = [sim.call_in(k % 512, hits.append, k) for k in range(2_000)]
    for handle in handles:
        sim.cancel(handle)
    stats = sim.scheduler_stats()
    assert stats["wheel_entries"] < 200
    sim.run()
    assert hits == []
    assert sim.scheduler_stats()["wheel_entries"] == 0
