"""Golden-trace regression suite.

Three named scenarios are pinned, under their library seeds, to the
exact 128-bit digest of their tracer timelines.  Any change to protocol
timing, event ordering, seeded randomness or tracing content shows up
here as a digest mismatch — which is the *point*: refactors that claim
to be behaviour-preserving must reproduce the timeline bit for bit.

Updating a golden value
-----------------------
If a change *intentionally* alters the timeline (new trace category,
protocol timing fix, different gossip schedule...):

1. confirm the new timeline is deterministic::

       PYTHONPATH=src python -m repro.scenarios digest <name> --runs 2

   (the two printed digests must match — the command exits non-zero
   otherwise);
2. paste the new digest into ``GOLDEN`` below;
3. state *why* the timeline legitimately moved in the commit message,
   citing the records per category the failure printed and the first
   diverging record — diff two dumps, parent and change, of::

       PYTHONPATH=src python -m repro.scenarios trace <name> --out <file>

A digest that differs between ``--runs`` repetitions is never a golden
update — it is a determinism bug.
"""


import pytest

from repro.scenarios import ScenarioRunner, get_scenario

#: scenario name -> (library seed implied) golden timeline digest
GOLDEN = {
    "quiet_ring": "a2b978c605fb0c164f4296cdc4cdc9e9",
    "slide7_mixed": "ac890cbe65fe8727feaa5cb29b1a95d2",
    # Updated for the one-entry-per-frame link transmitter (kernel speed
    # wave 2): arrival entries are posted at transmit time, so loss
    # accounting around cut/restore interleaves differently while all
    # delivery timestamps stay identical (quiet_ring and slide7_mixed
    # digests did not move).
    "churn_under_load": "2a4bce4aa589845f65710314af470d43",
    # The caching wave's golden: Zipf demand warming a read-through LRU
    # cache pins the content protocol (request/response matching, miss
    # coalescing, eviction order) into the timeline contract.
    "zipf_cache_warmup": "18ff42fac27a7dff8992d03c7d9e51a4",
    # The mesh wave's golden: a two-area mesh pins the v3 ad format,
    # area summarization, inter-area forwarding and cluster-scoped
    # broadcast into the timeline contract.
    "mesh_routed_small": "e999a8cbc9ffc4b1d0e7e354cacd6abb",
    # Pinned at 1be1179 ahead of the router split: together these cover
    # failover + shadow promotion, breaker/dead-letter, throttle,
    # bulkhead, in-segment partition parking and the on-path cache tap.
    "redundant_router_failover": "47567c94bb7bdaeea5dcb0575a61eac9",
    "chaos_router_storm": "a86b48478bf4a94f36bd9a8aaec0d309",
    "flapping_spine": "a55826b12891c2136788907663e8e3b4",
    "breaker_asymmetric_partition": "7a388d4794bdce4fdbac0a132b8e0557",
    "bulkhead_noisy_neighbor": "eae66f3c2f11d0ade1dc140a5db7f406",
    # Re-pinned with partition_heal_under_load below (was cc97da99...):
    # see the note there.  Here the earlier replay also reorders which
    # peer's gossip reaches a member first after the heal (80 of 471
    # records move, same invariants, same final views).
    "routed_partition_heal": "3e146621b07c7a72d3256989110e8efd",
    "cache_offload_star": "795f3eed59d83ee1bf5d9e5d414f9379",
    # Pinned at 043cfd5 ahead of the scenario-layer cut: the kinds no
    # golden covered — raw broadcast, a tour-relative inhomogeneous
    # profile, single-segment crash under file+poisson, and
    # single-segment partition/heal with membership settling.
    "broadcast_storm": "6e9804f1aa5ef5b8cc5c78d02f5ef3d0",
    "diurnal_ramp": "c2bb9dd6a45b5f2a7b2c6a9e2de263e5",
    "failover_under_load": "48298aba1bc4518f6b3a0ef611b26cac",
    # Re-pinned (was 3703796e...) when Messenger.send became a function
    # call: a ring-up replay, and a send made from inside a delivery,
    # queue their fragments at the MAC in the calling schedule entry
    # instead of one event step later in the same instant (the
    # per-message Process is gone), so after the heal the replayed
    # fragments and the gossip refutations leave in a different order:
    # the same 337 records, 21 of them up to 1.8 us earlier or later.
    # The other fourteen goldens did not move.
    "partition_heal_under_load": "7eb3ee92e51822e2441b8cce2dcbf4d6",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_timeline_matches_golden_digest(name, first_run):
    result = first_run(name)
    assert result.ok, [i.detail for i in result.failures()]
    if result.trace_digest != GOLDEN[name]:
        runner = ScenarioRunner(get_scenario(name))
        runner.run()
        per_category = runner.cluster.tracer.counts
        pytest.fail(
            f"{name}: timeline digest {result.trace_digest} != golden "
            f"{GOLDEN[name]}; records per category {sorted(per_category.items())}"
            f" — if this change is intentional, follow the update procedure "
            f"in this module's docstring"
        )
