"""F7 (slide 16): rostering completes in two ring-tour times — 1 to 2 ms
depending on the number of nodes and the length of the fibre.

Sweep node count and fibre length; after a link cut, measure trigger ->
certified-ring time at every node and compare with the two-tour model.
Machine-room fibre heals in tens of microseconds; campus/km-scale fibre
lands in the paper's millisecond band.

Topologies come from declarative ``ScenarioSpec``s (the measurement loop
itself stays hand-driven: it times a protocol phase, not a workload).
"""

from repro.analysis import fmt_ns
from repro.scenarios import ScenarioSpec, TopologySpec

import harness

SWEEP = [
    (4, 50.0),
    (8, 50.0),
    (16, 50.0),
    (8, 1_000.0),
    (16, 1_000.0),
    (8, 5_000.0),
    (16, 5_000.0),
]


def sweep_spec(n_nodes: int, fiber_m: float) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"f7_roster_{n_nodes}n_{fiber_m:g}m",
        description="link-cut rostering-time measurement topology",
        topology=TopologySpec(n_nodes=n_nodes, n_switches=2, fiber_m=fiber_m),
    )


def measure_once(n_nodes: int, fiber_m: float):
    spec = sweep_spec(n_nodes, fiber_m)
    cluster = spec.build_cluster()
    cluster.start()
    cluster.run_until_ring_up()
    roster = cluster.current_roster()
    cut_time = cluster.sim.now
    cluster.cut_link(1, roster.hop_switch_from(1))
    cluster.run_until_reroster()
    # Slide 16 times the *algorithm*: it "starts automatically whenever a
    # failure is detected", so the clock runs from the hardware trigger
    # (carrier loss after debounce) to the certified new ring.
    triggers = [
        r for r in cluster.tracer.select(category="roster_trigger")
        if r.time > cut_time and "carrier" in r.data["reason"]
    ]
    assert triggers, "carrier loss never triggered rostering"
    detected_at = min(r.time for r in triggers)
    horizon = cluster.sim.now + 40 * cluster.tour_estimate_ns
    certs = []
    while cluster.sim.now < horizon and not certs:
        certs = [
            r for r in cluster.tracer.select(category="ring_certified")
            if r.time > cut_time
        ]
        cluster.run(until=cluster.sim.now + cluster.tour_estimate_ns)
    assert certs, "healed ring was never certified"
    elapsed = certs[0].time - detected_at
    return elapsed, cluster.tour_estimate_ns, spec


def run_experiment():
    measurements = []
    for n_nodes, fiber_m in SWEEP:
        elapsed, tour, spec = measure_once(n_nodes, fiber_m)
        measurements.append(
            {
                "n_nodes": n_nodes,
                "fiber_m": fiber_m,
                "tour_ns": tour,
                "elapsed_ns": elapsed,
                "tours": elapsed / tour,
                "spec": spec,
            }
        )
    return measurements


def test_f7_rostering_two_tour_times(publish_json):
    measurements = run_experiment()

    ratios = [m["tours"] for m in measurements]
    # The slide-16 claim: completion in ~two ring-tour times.  Allow
    # [1.0, 3.5] for detection latency and commit/cert flight overhead.
    assert all(1.0 <= ratio <= 3.5 for ratio in ratios), ratios

    # Absolute band: km-scale fibre lands in the millisecond range the
    # slide quotes; machine-room fibre is far faster.
    by_cfg = {(m["n_nodes"], m["fiber_m"]): m for m in measurements}
    assert "us" in fmt_ns(by_cfg[(8, 50.0)]["elapsed_ns"])
    assert "ms" in fmt_ns(by_cfg[(16, 5_000.0)]["elapsed_ns"])

    publish_json(
        harness.bench_payload(
            exp="F7",
            title="Rostering time (trigger -> certified) vs nodes and fibre",
            params={"sweep": [list(cfg) for cfg in SWEEP]},
            columns=["n_nodes", "fiber_m", "tour_ns", "elapsed_ns", "tours"],
            rows=[
                [m["n_nodes"], m["fiber_m"], m["tour_ns"], m["elapsed_ns"],
                 round(m["tours"], 3)]
                for m in measurements
            ],
            metrics={
                "max_tours": round(max(ratios), 3),
                "min_tours": round(min(ratios), 3),
            },
            scenarios=[m["spec"].to_dict() for m in measurements],
            notes="Linear in node count and fibre length; ~2 ring-tour "
                  "completion at every scale; km fibre in the paper's "
                  "1-2 ms band.",
        )
    )
