"""F10: gossip membership — detection latency and message load vs size.

The centralized roster detects a dead node via the kernel heartbeat
backstop and a cluster-wide re-roster; the gossip/SWIM layer instead
spreads the verdict epidemically.  This bench measures, for cluster
sizes 4..64:

* steady-state overhead — gossip messages and bytes per node per
  protocol period (messages should stay O(fanout), flat in N; bytes
  grow O(N) with the full-view digest);
* after one node crash — time until the *first* live node declares the
  victim DEAD (detection) and until *every* live node does
  (convergence), in protocol periods.

Detection is dominated by the staleness + suspicion windows (a fixed
number of periods); dissemination adds O(log N) periods — so the
periods column should grow only gently with N while the message load
per node stays flat.  That combination is the scalability argument for
gossip-driven liveness.

Sizes can be overridden for smoke runs:  ``F10_SIZES=4,8 pytest
benchmarks/bench_f10_gossip_convergence.py``.
"""

import math

from repro.scenarios import ScenarioSpec, TopologySpec
from repro.sweep import pool_map

import harness

DEFAULT_SIZES = (4, 8, 16, 32, 64)

#: protocol periods of steady-state traffic measured for the overhead row
STEADY_PERIODS = 10


def sizes_under_test():
    return harness.sizes_from_env("F10_SIZES", DEFAULT_SIZES)


def membership_spec(n_nodes: int, seed: int = 2) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"f10_membership_{n_nodes}",
        description="gossip detection/convergence measurement topology",
        topology=TopologySpec(n_nodes=n_nodes, n_switches=2, fiber_m=50.0),
        seed=seed,
        membership=True,
    )


def measure_once(n_nodes: int, seed: int = 2):
    cluster = membership_spec(n_nodes, seed).build_cluster()
    cluster.start()
    cluster.run_until_ring_up()
    period = cluster._membership_cfg.period_ns

    # Steady state: everyone alive, count gossip traffic over a window.
    cluster.run(until=cluster.sim.now + 5 * period)  # let views fill in
    base = cluster.membership_overhead()
    cluster.run(until=cluster.sim.now + STEADY_PERIODS * period)
    loaded = cluster.membership_overhead()
    msgs = loaded["gossip_tx"] + loaded["pings_tx"] + loaded["acks_tx"]
    msgs -= base["gossip_tx"] + base["pings_tx"] + base["acks_tx"]
    bytes_tx = loaded["gossip_bytes_tx"] - base["gossip_bytes_tx"]
    msgs_per_node_period = msgs / n_nodes / STEADY_PERIODS
    bytes_per_node_period = bytes_tx / n_nodes / STEADY_PERIODS

    # One crash; the victim is the highest id (never the rostering master).
    victim = n_nodes - 1
    t_crash = cluster.sim.now
    cluster.crash_node(victim)
    cluster.run_until_membership_converged(dead={victim})
    observers = [f"member-{n.node_id}" for n in cluster.live_nodes()]
    detect = cluster.convergence.time_to_detect(victim, since=t_crash)
    converge = cluster.convergence.time_to_converge(victim, observers, since=t_crash)
    assert detect is not None and converge is not None
    cfg = cluster._membership_cfg
    detect_bound = (cfg.stale_after_ns + cfg.suspicion_window_ns) / period + 4
    return {
        "n": n_nodes,
        "period_ns": period,
        "detect_bound_periods": detect_bound,
        "msgs_per_node_period": msgs_per_node_period,
        "bytes_per_node_period": bytes_per_node_period,
        "detect_ns": detect,
        "detect_periods": detect / period,
        "converge_ns": converge,
        "converge_periods": converge / period,
    }


def run_experiment():
    # The size grid runs through the sweep pool: serial by default (the
    # committed emission's code path), REPRO_SWEEP_WORKERS=N fans the
    # sizes out.  Row order is input order regardless of worker count.
    return pool_map(measure_once, [(n,) for n in sizes_under_test()])


def test_f10_gossip_convergence(publish_json):
    results = run_experiment()

    for r in results:
        # Detection is bounded by the staleness + suspicion windows plus
        # re-roster slack; convergence adds O(log N) dissemination.
        assert r["detect_periods"] <= r["detect_bound_periods"], r
        assert (
            r["converge_periods"]
            <= r["detect_bound_periods"] + 2 * math.log2(r["n"]) + 2
        ), r
        # The scalability claim: per-node message load stays O(fanout),
        # not O(N) — gossip does not turn into a broadcast storm.
        assert r["msgs_per_node_period"] <= 8, r

    publish_json(
        harness.bench_payload(
            exp="F10",
            title="Gossip membership: crash detection latency and message load",
            params={"sizes": list(sizes_under_test()),
                    "steady_periods": STEADY_PERIODS},
            columns=["n", "period_ns", "msgs_per_node_period",
                     "bytes_per_node_period", "detect_ns", "detect_periods",
                     "converge_ns", "converge_periods"],
            rows=[
                [r["n"], r["period_ns"],
                 round(r["msgs_per_node_period"], 2),
                 round(r["bytes_per_node_period"], 1),
                 r["detect_ns"], round(r["detect_periods"], 2),
                 r["converge_ns"], round(r["converge_periods"], 2)]
                for r in results
            ],
            metrics={
                "max_msgs_per_node_period": round(
                    max(r["msgs_per_node_period"] for r in results), 2
                ),
                "max_converge_periods": round(
                    max(r["converge_periods"] for r in results), 2
                ),
            },
            scenarios=[membership_spec(r["n"]).to_dict() for r in results],
            notes="Per-node message load stays O(fanout), flat in N, while "
                  "digest bytes grow O(N); detection takes a fixed few "
                  "periods and convergence adds only O(log N) "
                  "dissemination periods.",
        )
    )
