"""ROADMAP item 1's three loss shapes, pinned before anyone fixes them.

Every stream in these scenarios is reliable, so each undelivered
message below is a lost reliable message — what the paper's "no
confirmed message lost" forbids.  Each case is pinned twice over one
run: ``test_loss_is_exactly_as_found`` holds today's delivered count
exactly, so a change that moves a loss without fixing it fails here;
``test_reliable_stream_delivers_everything`` is the contract, expected
to fail (strictly) until the fix lands.  The fix flips both: the pin
goes, the ``xfail`` goes.
"""

import functools

import pytest

from repro.scenarios import ScenarioRunner, get_scenario

#: (scenario, seed, stream, delivered today, offered)
LOSSES = [
    # (i) silent loss after egress, on a partitioned segment 1
    pytest.param("routed_partition_heal", 0, "poisson-1", 29, 30,
                 id="routed_partition_heal-seed0"),
    pytest.param("breaker_asymmetric_partition", 3, "poisson-0", 29, 30,
                 id="breaker_asymmetric_partition-seed3"),
    # (iii) drop after confirm: bulkhead rejects become egress overflows
    pytest.param("bulkhead_noisy_neighbor", 11, "burst-0", 39, 50,
                 id="bulkhead_noisy_neighbor-seed11"),
]


@functools.lru_cache(maxsize=None)
def stream_counts(name, seed):
    """``stream -> (delivered, offered)`` of one run, shared by both
    tests of a case."""
    result = ScenarioRunner(get_scenario(name), seed=seed).run()
    return {
        s["name"].removeprefix(f"{name}."): (s["delivered"], s["offered"])
        for s in result.streams
    }


@pytest.mark.parametrize("name,seed,stream,delivered,offered", LOSSES)
def test_loss_is_exactly_as_found(name, seed, stream, delivered, offered):
    assert stream_counts(name, seed)[stream] == (delivered, offered)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: reliable messages "
                   "are lost at these seeds; item 1(b) fixes them")
@pytest.mark.parametrize("name,seed,stream,delivered,offered", LOSSES)
def test_reliable_stream_delivers_everything(name, seed, stream, delivered,
                                             offered):
    assert stream_counts(name, seed)[stream] == (offered, offered)
