"""Property tests for the content-popularity workload streams.

The contracts the caching wave leans on:

* a :class:`ZipfStream` under the *same* master seed replays the same
  content-id sequence and the same request instants, packet for packet,
  and *different* seeds draw different content sequences;
* the empirical rank frequency of the Zipf sampler matches the
  configured ``1 / (k + 1) ** alpha`` law within sampling tolerance.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AmpNetCluster
from repro.workloads import ZipfStream, zipf_sampler, zipf_weights

SLOW = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_cluster(seed):
    cluster = AmpNetCluster(n_nodes=4, n_switches=2, seed=seed)
    cluster.start()
    cluster.run_until_ring_up()
    return cluster


def drive(seed, build, tours=800):
    """Build one Zipf stream on a fresh cluster; return what it
    offered: the content-id sequence and the request instants relative
    to the stream's start."""
    cluster = make_cluster(seed)
    start = cluster.sim.now
    stream = build(cluster)
    cluster.run(until=cluster.sim.now + tours * cluster.tour_estimate_ns)
    assert stream.stats.offered == stream.count, "stream did not finish"
    stream.close()
    offsets = [t - start for t in stream.tx_times]
    return list(stream.content_ids), offsets


def zipf(cluster):
    return ZipfStream(cluster, 0, 2, interval_ns=4_000, count=40,
                      alpha=0.9, catalog_size=64, name="prop-zipf")


# ------------------------------------------------------------ ZipfStream
@given(seed=st.integers(0, 50))
@SLOW
def test_zipf_same_seed_replays_identical_requests(seed):
    assert drive(seed, zipf) == drive(seed, zipf)


@given(seed=st.integers(0, 50))
@SLOW
def test_zipf_different_seeds_draw_different_content(seed):
    ids_a, times_a = drive(seed, zipf)
    ids_b, times_b = drive(seed + 1000, zipf)
    # Arrivals are deterministic (constant interval); only the content
    # sequence follows the seed.  40 draws over a 64-wide catalog
    # colliding across seeds would need a broken rng.
    assert ids_a != ids_b
    assert times_a == times_b


def test_zipf_draws_stay_inside_the_catalog():
    ids, _ = drive(5, lambda c: ZipfStream(
        c, 0, 2, interval_ns=3_000, count=60, alpha=1.4, catalog_size=8,
        name="prop-zipf-small"))
    assert all(0 <= cid < 8 for cid in ids)


# --------------------------------------------------- the law itself
@given(
    alpha=st.floats(0.0, 2.5),
    catalog=st.integers(1, 200),
)
@settings(max_examples=50, deadline=None)
def test_zipf_weights_are_a_normalised_decreasing_law(alpha, catalog):
    weights = zipf_weights(alpha, catalog)
    assert len(weights) == catalog
    assert abs(sum(weights) - 1.0) < 1e-9
    assert all(a >= b - 1e-12 for a, b in zip(weights, weights[1:]))
    if alpha == 0:
        assert all(abs(w - 1.0 / catalog) < 1e-9 for w in weights)


@given(
    seed=st.integers(0, 10_000),
    alpha=st.floats(0.5, 1.5),
    catalog=st.integers(4, 24),
)
@settings(max_examples=10, deadline=None)
def test_zipf_sampler_matches_rank_frequency_law(seed, alpha, catalog):
    n = 20_000
    draw = zipf_sampler(random.Random(seed), alpha, catalog)
    counts = [0] * catalog
    for _ in range(n):
        counts[draw()] += 1
    for rank, expected in enumerate(zipf_weights(alpha, catalog)):
        sigma = (expected * (1 - expected) / n) ** 0.5
        tolerance = 6 * sigma + 1e-4
        assert abs(counts[rank] / n - expected) <= tolerance, (
            f"rank {rank}: empirical {counts[rank] / n:.4f} vs "
            f"law {expected:.4f} (alpha={alpha}, catalog={catalog})"
        )


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_zipf_sampler_same_seed_replays(seed):
    draw_a = zipf_sampler(random.Random(seed), 1.1, 32)
    draw_b = zipf_sampler(random.Random(seed), 1.1, 32)
    seq = [draw_a() for _ in range(100)]
    assert [draw_b() for _ in range(100)] == seq
    other = zipf_sampler(random.Random(seed + 77), 1.1, 32)
    assert [other() for _ in range(100)] != seq
