"""A1 (ablation): register insertion vs a token-passing MAC.

Same geometry, same line rate, same per-hop costs — only the medium
access discipline differs.  Register insertion transmits on the first
gap, so low-load latency is a fraction of a tour; the token ring charges
every frame an average of half a token rotation before it can even
start.
"""

from repro import AmpNetCluster
from repro.analysis import fmt_ns
from repro.baselines import TokenRing
from repro.sim import LatencyStat, Simulator
from repro.workloads import MessageStream

import harness

N_NODES = 8
FIBER_M = 50.0
FRAMES_PER_NODE = 40
INTERVAL_NS = 20_000  # light load: ~1 frame / 20 us / node


def run_insertion():
    cluster = AmpNetCluster(n_nodes=N_NODES, n_switches=2, fiber_m=FIBER_M)
    cluster.start()
    cluster.run_until_ring_up()
    streams = [
        MessageStream(cluster, src, (src + 3) % N_NODES,
                      interval_ns=INTERVAL_NS, count=FRAMES_PER_NODE,
                      channel=src % 8)
        for src in range(N_NODES)
    ]
    cluster.run(
        until=cluster.sim.now
        + (FRAMES_PER_NODE + 50) * INTERVAL_NS
        + 100 * cluster.tour_estimate_ns
    )
    delivered = sum(s.stats.delivered for s in streams)
    # The streams' own samples: the MACs also deliver AmpDK heartbeat and
    # certification broadcasts, which the token ring never carries.
    lat = LatencyStat()
    for s in streams:
        lat.extend(s.stats.latency.samples)
    return delivered, lat


def run_token():
    sim = Simulator()
    ring = TokenRing(sim, N_NODES, fiber_m=FIBER_M)

    def offer():
        for k in range(FRAMES_PER_NODE):
            for src in range(N_NODES):
                ring.send(src, (src + 3) % N_NODES)
            yield sim.timeout(INTERVAL_NS)

    sim.process(offer())
    sim.run(until=(FRAMES_PER_NODE + 200) * INTERVAL_NS + 50_000_000)
    return ring.counters["delivered"], ring.latency


def run_experiment():
    ins_delivered, ins_lat = run_insertion()
    tok_delivered, tok_lat = run_token()
    return ins_delivered, ins_lat, tok_delivered, tok_lat


def test_a1_insertion_vs_token_ring(publish_json):
    ins_delivered, ins_lat, tok_delivered, tok_lat = run_experiment()

    assert ins_delivered == N_NODES * FRAMES_PER_NODE
    assert tok_delivered == N_NODES * FRAMES_PER_NODE
    # Both arms are measured over the same frames and nothing else.
    assert ins_lat.count == tok_lat.count == N_NODES * FRAMES_PER_NODE
    # The A1 shape: insertion's low-load latency beats the token ring.
    assert ins_lat.mean() < tok_lat.mean()

    columns = ["MAC", "Delivered", "Mean latency", "p99 latency"]
    rows = [
        ("register insertion (AmpNet)", ins_delivered,
         fmt_ns(ins_lat.mean()), fmt_ns(ins_lat.percentile(99))),
        ("token passing", tok_delivered,
         fmt_ns(tok_lat.mean()), fmt_ns(tok_lat.percentile(99))),
    ]
    publish_json(
        harness.bench_payload(
            exp="A1",
            title="MAC ablation: register insertion vs token passing",
            params={
                "n_nodes": N_NODES,
                "fiber_m": FIBER_M,
                "frames_per_node": FRAMES_PER_NODE,
                "interval_ns": INTERVAL_NS,
            },
            columns=columns,
            rows=[list(row) for row in rows],
            metrics={
                "insertion_mean_latency_ns": round(ins_lat.mean(), 1),
                "insertion_p99_latency_ns": round(ins_lat.percentile(99), 1),
                "token_mean_latency_ns": round(tok_lat.mean(), 1),
                "token_p99_latency_ns": round(tok_lat.percentile(99), 1),
                "latency_ratio_token_over_insertion": round(
                    tok_lat.mean() / ins_lat.mean(), 2
                ),
            },
            notes="Same geometry, line rate and per-hop costs; only the "
                  "medium-access discipline differs.  Register insertion "
                  "transmits on the first gap; the token ring charges "
                  "~half a token rotation of queueing before start.",
        )
    )
