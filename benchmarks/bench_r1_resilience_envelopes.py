"""R1: resilience-pattern envelopes over the routed cluster.

One seeded run of each chaos scenario in the library's resilience
quartet — correlated router churn (dead-letter accounting), a flapping
gateway link (token-bucket ingress throttling), an asymmetric partition
(per-destination circuit breaker failing fast into the redrivable
dead-letter channel) and a noisy-neighbour flood (bulkhead egress
compartments).  The bench pins, per scenario:

* the **loss envelope** — offered vs delivered, with the headline
  invariant ``confirmed_and_lost = 0``: every pattern is policy over
  parked/shadow/dead-letter *holding* machinery, never a new way to
  drop a crossing that the origin already confirmed (tour-as-ack);
* the **latency envelope** — per-stream p50/p99 across the fault
  storyline, which is where throttle pacing and bulkhead round-robin
  show up as bounded (not collapsed) tails;
* the **pattern witness counters** — breaker transitions, dead-letter
  consumption/redrive, throttle deferrals, shadow promotion — proving
  each scenario actually exercised the pattern it is named for.

Everything is simulated time under a pinned seed, so the committed
JSON is exactly reproducible and the differ holds it to that.
"""

from repro.scenarios import get_scenario, run_scenario

import harness

#: scenario name -> the counters that witness its pattern was exercised
SCENARIOS = {
    "chaos_router_storm": ("router_shadow_promoted", "router_role_changes"),
    "flapping_spine": ("router_throttle_deferred",),
    "breaker_asymmetric_partition": ("router_breaker_opened",
                                     "router_breaker_closed",
                                     "router_dead_letter_redriven"),
    "bulkhead_noisy_neighbor": ("router_egress_tx",),
}

#: per-scenario counters worth pinning in the metrics envelope
ENVELOPE_COUNTERS = (
    "router_breaker_opened",
    "router_breaker_closed",
    "router_dead_lettered",
    "router_dead_letter_redriven",
    "router_throttle_deferred",
    "router_throttle_shed",
    "router_shadow_parked",
    "router_shadow_promoted",
    "router_shadow_expired",
    "router_shadow_evicted",
    "router_bulkhead_isolated_rejects",
    "router_egress_parked",
    "router_egress_reparked",
)


def run_experiment():
    return {name: run_scenario(get_scenario(name)) for name in SCENARIOS}


def test_r1_resilience_envelopes(publish_json):
    results = run_experiment()

    columns = ["Scenario", "Stream", "Offered", "Delivered", "Lost",
               "p50 ns", "p99 ns"]
    rows = []
    metrics = {}
    total_offered = total_delivered = 0
    for name, result in results.items():
        assert result.ok, f"{name}: {[i.detail for i in result.failures()]}"
        c = result.counters
        for witness in SCENARIOS[name]:
            assert c.get(witness, 0) > 0, (
                f"{name} never exercised its pattern ({witness} == 0)"
            )
        for stream in result.streams:
            lat = stream["latency"]
            rows.append([
                name, stream["name"].split(".")[-1],
                stream["offered"], stream["delivered"],
                stream["offered"] - stream["delivered"],
                round(lat["p50"], 1), round(lat["p99"], 1),
            ])
        total_offered += c["offered"]
        total_delivered += c["delivered"]
        metrics[f"{name}_offered"] = c["offered"]
        metrics[f"{name}_delivered"] = c["delivered"]
        for key in ENVELOPE_COUNTERS:
            if c.get(key, 0):
                metrics[f"{name}_{key[len('router_'):]}"] = c[key]
        # Shadow accountability: parked = promoted + expired + evicted
        # + still-resident (no silent shadow loss).
        assert c.get("router_shadow_parked", 0) == (
            c.get("router_shadow_promoted", 0)
            + c.get("router_shadow_expired", 0)
            + c.get("router_shadow_evicted", 0)
            + c.get("router_shadow_resident", 0)
        ), f"{name}: shadow ledger does not balance"
        # Redrivable dead letters all came back; only accounting-only
        # records (shadow/throttle) may remain, and here none do.
        assert c.get("router_dead_letter_resident", 0) == 0

    lost = total_offered - total_delivered
    assert lost == 0, f"{lost} crossings confirmed-and-lost"

    publish_json(
        harness.bench_payload(
            exp="R1",
            title="Resilience-pattern suite: per-scenario loss and "
                  "latency envelopes over the routed cluster",
            params={
                "scenarios": sorted(SCENARIOS),
                "seed": 7,
            },
            columns=columns,
            rows=rows,
            metrics=dict(
                metrics,
                offered=total_offered,
                delivered=total_delivered,
                confirmed_and_lost=lost,
            ),
            notes="One seeded run per chaos scenario: router churn with "
                  "dead-letter accounting, link flaps under ingress "
                  "throttling, an asymmetric partition tripping the "
                  "per-destination circuit breaker, and a bulkheaded "
                  "noisy neighbour.  Patterns are policy over holding "
                  "machinery — offered work is delayed, never lost — so "
                  "confirmed_and_lost is pinned at 0.  All times "
                  "simulated ns (deterministic).",
        )
    )
