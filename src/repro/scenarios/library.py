"""The named scenario library.

Each entry is a :class:`~repro.scenarios.spec.ScenarioSpec` factory —
call it (optionally with a seed) for a fresh spec.  The library spans
the space the ROADMAP asks for: quiet steady state, the paper's slide-7
mixed insertion, broadcast storms, time-varying diurnal load, and every
flavour of churn the membership layer exists to survive — all runnable
via ``python -m repro.scenarios run <name>`` or the
:func:`~repro.scenarios.runner.run_scenario` API.

Conventions: workload rates are in nanoseconds (the cell world of the
paper), fault times in ring tours after ring-up, and every stochastic
stream's randomness comes from a stream named after the workload, so
scenarios never perturb each other even when composed onto one
simulator.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..routing import RouterConfig, SegmentSpec, TopologySpec
from .spec import CacheSpec, FaultSpec, ScenarioSpec, WorkloadSpec

__all__ = ["SCENARIOS", "get_scenario", "scenario_names"]


def quiet_ring() -> ScenarioSpec:
    return ScenarioSpec(
        name="quiet_ring",
        description="Steady state: two constant-rate unicast streams on "
                    "the quad-redundant slide-14 segment; nothing fails.",
        topology=TopologySpec(n_nodes=6, n_switches=4),
        seed=7,
        workloads=(
            WorkloadSpec("message", count=100, src=0, dst=2, channel=0,
                         params={"interval_ns": 5_000}),
            WorkloadSpec("message", count=80, src=3, dst=5, channel=1,
                         params={"interval_ns": 7_000}),
        ),
        horizon_tours=150,
    )


def slide7_mixed() -> ScenarioSpec:
    return ScenarioSpec(
        name="slide7_mixed",
        description="The paper's slide-7 story: two file transfers and "
                    "two message streams inserted concurrently.",
        topology=TopologySpec(n_nodes=4, n_switches=2),
        seed=7,
        workloads=(
            WorkloadSpec("file", count=6, src=0, dst=2, channel=11,
                         params={"chunk_bytes": 2048}),
            WorkloadSpec("message", count=150, src=1, dst=3, channel=0,
                         params={"interval_ns": 5_000}),
            WorkloadSpec("message", count=150, src=2, dst=0, channel=1,
                         params={"interval_ns": 5_000}),
            WorkloadSpec("file", count=6, src=3, dst=1, channel=12,
                         params={"chunk_bytes": 2048}),
        ),
        horizon_tours=600,
    )


def broadcast_storm() -> ScenarioSpec:
    return ScenarioSpec(
        name="broadcast_storm",
        description="Slide-8 stress: every node broadcasts simultaneously "
                    "as fast as flow control allows; zero drops expected.",
        topology=TopologySpec(n_nodes=8, n_switches=2),
        seed=7,
        workloads=(
            WorkloadSpec("broadcast", count=16, channel=3),
        ),
        horizon_tours=250,
    )


def kernel_storm() -> ScenarioSpec:
    return ScenarioSpec(
        name="kernel_storm",
        description="Kernel-throughput gauge (bench P1): a short all-to-"
                    "all broadcast storm whose steady-state window every "
                    "layer of the kernel -> phys -> MAC -> transport "
                    "stack is hot in.  Sized via with_size for the P1 "
                    "grid; lighter per node than broadcast_storm so the "
                    "64/255-node points stay affordable.",
        topology=TopologySpec(n_nodes=16, n_switches=2),
        seed=0,
        workloads=(
            WorkloadSpec("broadcast", count=8, channel=3),
        ),
        horizon_tours=40,
        grace_tours=3000,
        invariants=("no_drops", "all_delivered"),
    )


def diurnal_ramp() -> ScenarioSpec:
    return ScenarioSpec(
        name="diurnal_ramp",
        description="Time-varying load: an inhomogeneous-Poisson stream "
                    "following a sinusoidal (diurnal) intensity next to a "
                    "stream whose rate ramps steadily up.",
        topology=TopologySpec(n_nodes=6, n_switches=2),
        seed=7,
        workloads=(
            WorkloadSpec(
                "inhomogeneous_poisson", count=200, src=0, dst=3, channel=0,
                params={
                    "peak_interval_ns": 3_000,
                    "profile": {"shape": "sinusoidal", "period_tours": 200,
                                "floor": 0.15},
                },
            ),
            WorkloadSpec(
                "inhomogeneous_poisson", count=150, src=4, dst=1, channel=1,
                params={
                    "peak_interval_ns": 3_000,
                    "profile": {"shape": "ramp", "start_tours": 0,
                                "end_tours": 250, "floor": 0.05},
                },
            ),
        ),
        horizon_tours=500,
    )


def failover_under_load() -> ScenarioSpec:
    return ScenarioSpec(
        name="failover_under_load",
        description="A node power-fails mid-run while reliable traffic "
                    "keeps flowing; the ring re-rosters around the corpse "
                    "and every offered message still arrives.",
        topology=TopologySpec(n_nodes=6, n_switches=4),
        seed=7,
        workloads=(
            WorkloadSpec("poisson", count=120, src=1, dst=2, channel=12,
                         reliable=True, params={"mean_interval_ns": 6_000}),
            WorkloadSpec("file", count=5, src=3, dst=4, channel=11,
                         params={"chunk_bytes": 1024}),
        ),
        faults=(
            FaultSpec("crash_node", at_tours=60, node=5),
        ),
        expect_dead=(5,),
        invariants=("all_delivered", "roster_converged"),
        horizon_tours=800,
    )


def churn_under_load() -> ScenarioSpec:
    return ScenarioSpec(
        name="churn_under_load",
        description="A flapping node (two crash/recover cycles) under "
                    "reliable Poisson and bursty traffic, with gossip "
                    "membership tracking every transition.",
        topology=TopologySpec(n_nodes=8, n_switches=2),
        seed=7,
        membership=True,
        workloads=(
            WorkloadSpec("poisson", count=100, src=0, dst=3, channel=12,
                         reliable=True, params={"mean_interval_ns": 8_000}),
            WorkloadSpec("burst", count=90, src=1, dst=4, channel=13,
                         reliable=True,
                         params={"burst_mean": 6, "intra_gap_ns": 600,
                                 "off_mean_ns": 40_000}),
        ),
        faults=(
            FaultSpec("flap_node", at_tours=40, node=6, flaps=2,
                      down_tours=120, up_tours=260),
        ),
        invariants=("all_delivered", "roster_converged",
                    "membership_view_consistent"),
        horizon_tours=1000,
    )


def partition_heal_under_load() -> ScenarioSpec:
    side_a = (0, 1, 2, 3)
    switches_a = (0,)
    return ScenarioSpec(
        name="partition_heal_under_load",
        description="The segment splits into two rings that each keep "
                    "serving their side's traffic, then heals; gossip "
                    "views reconcile via incarnation refutations.",
        topology=TopologySpec(n_nodes=8, n_switches=2),
        seed=7,
        membership=True,
        workloads=(
            WorkloadSpec("poisson", count=90, src=0, dst=2, channel=12,
                         reliable=True, params={"mean_interval_ns": 9_000}),
            WorkloadSpec("poisson", count=90, src=5, dst=7, channel=13,
                         reliable=True, params={"mean_interval_ns": 9_000}),
        ),
        faults=(
            FaultSpec("partition", at_tours=60, nodes=side_a,
                      switches=switches_a),
            FaultSpec("heal_partition", at_tours=460, nodes=side_a,
                      switches=switches_a),
        ),
        invariants=("all_delivered", "roster_converged",
                    "membership_view_consistent"),
        horizon_tours=1100,
    )


def large_ring_64() -> ScenarioSpec:
    return ScenarioSpec(
        name="large_ring_64",
        description="Scale check: a 64-node ring carrying a Poisson "
                    "stream, a burst stream and a constant stream at "
                    "once; no drops, full delivery, one roster.",
        topology=TopologySpec(n_nodes=64, n_switches=2),
        seed=7,
        workloads=(
            # Rates sized to the fabric: a 64-node tour is ~71 us, and
            # each node inserts at most a few cells per tour, so gaps in
            # the tens of microseconds keep the offered load feasible
            # (hotter gaps just queue at the NIC and stretch the run).
            WorkloadSpec("poisson", count=30, src=0, dst=32, channel=0,
                         params={"mean_interval_ns": 25_000}),
            WorkloadSpec("burst", count=24, src=10, dst=40, channel=1,
                         params={"burst_mean": 6, "intra_gap_ns": 2_000,
                                 "off_mean_ns": 80_000}),
            WorkloadSpec("message", count=20, src=5, dst=20, channel=2,
                         params={"interval_ns": 40_000}),
        ),
        horizon_tours=60,
    )


def large_ring_128() -> ScenarioSpec:
    return ScenarioSpec(
        name="large_ring_128",
        description="Production-scale check: a 128-node ring carrying a "
                    "heavy-tailed (bounded-Pareto) reliable stream next "
                    "to bursty and constant traffic; full delivery, no "
                    "drops, one roster.",
        topology=TopologySpec(n_nodes=128, n_switches=2),
        seed=7,
        workloads=(
            # A 128-node tour is ~142 us and the insertion window at this
            # scale is one frame per node, so offered rates sit at tour
            # scale; the Pareto stream's rare multi-kilobyte messages
            # fragment into cell trains that stress the insertion queue.
            WorkloadSpec("poisson", count=16, src=0, dst=64, channel=12,
                         reliable=True,
                         params={"mean_interval_ns": 55_000,
                                 "pareto_sizes": {"alpha": 1.3,
                                                  "min_bytes": 16,
                                                  "cap_bytes": 1024}}),
            WorkloadSpec("burst", count=14, src=31, dst=96, channel=1,
                         params={"burst_mean": 5, "intra_gap_ns": 4_000,
                                 "off_mean_ns": 120_000}),
            WorkloadSpec("message", count=12, src=5, dst=100, channel=2,
                         params={"interval_ns": 70_000}),
        ),
        horizon_tours=60,
        invariants=("no_drops", "all_delivered", "roster_converged"),
    )


def large_ring_256() -> ScenarioSpec:
    return ScenarioSpec(
        name="large_ring_256",
        description="The 256-class scale point: 255 nodes, the "
                    "architectural ceiling of the 8-bit MicroPacket "
                    "address space (id 255 is broadcast; slide 15 scales "
                    "further via router-joined segments).  Light unicast "
                    "load proves ring-up, insertion and full delivery at "
                    "the maximum addressable ring size.",
        topology=TopologySpec(n_nodes=255, n_switches=2),
        seed=7,
        workloads=(
            # At 255 nodes the insertion window is one frame per node, so
            # a stream drains at ~1 message per tour; the horizon is sized
            # for the run to settle *within* it (the runner's grace slices
            # are 50 tours — a whole extra slice at this scale is the
            # difference between a cheap test and a slow one).
            WorkloadSpec("poisson", count=8, src=0, dst=128, channel=0,
                         params={"mean_interval_ns": 120_000}),
            WorkloadSpec("message", count=6, src=60, dst=200, channel=1,
                         params={"interval_ns": 150_000}),
        ),
        horizon_tours=18,
        invariants=("no_drops", "all_delivered", "roster_converged"),
    )


def two_ring_256() -> ScenarioSpec:
    return ScenarioSpec(
        name="two_ring_256",
        description="Past the ceiling: two 128-node rings joined by a "
                    "segment router give 256 addressable user nodes; "
                    "reliable traffic crosses in both directions while a "
                    "local stream shares each ring.",
        topology=TopologySpec(
            segments=(SegmentSpec(n_nodes=128), SegmentSpec(n_nodes=128)),
            routers=(RouterConfig(segments=(0, 1)),),
        ),
        seed=7,
        workloads=(
            # Each 129-member ring (128 users + 1 gateway) tours in
            # ~143 us and drains about one insertion per node per tour,
            # so crossing rates sit at tour scale; counts stay small
            # because every crossing costs a full tour on each ring
            # plus the router's store-and-forward.
            WorkloadSpec("poisson", count=10, src=(0, 0), dst=(1, 64),
                         channel=12, reliable=True,
                         params={"mean_interval_ns": 120_000}),
            WorkloadSpec("message", count=8, src=(1, 5), dst=(0, 100),
                         channel=13, reliable=True,
                         params={"interval_ns": 150_000}),
            WorkloadSpec("message", count=8, src=(0, 30), dst=(0, 90),
                         channel=3, reliable=True,
                         params={"interval_ns": 150_000}),
        ),
        horizon_tours=25,
        grace_tours=400,
        invariants=("no_drops", "all_delivered", "roster_converged"),
    )


def four_ring_512() -> ScenarioSpec:
    return ScenarioSpec(
        name="four_ring_512",
        description="The star cluster: four 128-node rings on one "
                    "four-port router — 512 addressable user nodes, "
                    "double the single-ring ceiling squared away by the "
                    "global (segment, node) address extension.",
        topology=TopologySpec(
            segments=tuple(SegmentSpec(n_nodes=128) for _ in range(4)),
            routers=(RouterConfig(segments=(0, 1, 2, 3)),),
        ),
        seed=7,
        workloads=(
            WorkloadSpec("poisson", count=6, src=(0, 1), dst=(2, 64),
                         channel=12, reliable=True,
                         params={"mean_interval_ns": 150_000}),
            WorkloadSpec("message", count=6, src=(1, 10), dst=(3, 90),
                         channel=13, reliable=True,
                         params={"interval_ns": 180_000}),
            WorkloadSpec("message", count=6, src=(2, 5), dst=(2, 100),
                         channel=3, reliable=True,
                         params={"interval_ns": 150_000}),
        ),
        horizon_tours=25,
        grace_tours=400,
        invariants=("no_drops", "all_delivered", "roster_converged"),
    )


def routed_partition_heal() -> ScenarioSpec:
    # Segment 1 splits internally: nodes 0..3 keep switch 0; nodes 4..7
    # and the gateway (id 8) keep switch 1.  Crossing traffic for the
    # gateway's side keeps flowing; traffic for the far side parks in
    # the router's egress queue until the heal re-rosters the full ring.
    side_a = (0, 1, 2, 3)
    switches_a = (0,)
    return ScenarioSpec(
        name="routed_partition_heal",
        description="A partition inside one segment of a routed pair: "
                    "crossing traffic to the gateway's side keeps "
                    "flowing, traffic to the split-away side parks in "
                    "the router's bounded egress queue, and the heal "
                    "delivers everything — no data loss across rings.",
        topology=TopologySpec(
            segments=(SegmentSpec(n_nodes=8), SegmentSpec(n_nodes=8)),
            routers=(RouterConfig(segments=(0, 1)),),
        ),
        seed=7,
        membership=True,
        workloads=(
            WorkloadSpec("poisson", count=40, src=(0, 1), dst=(1, 5),
                         channel=12, reliable=True,
                         params={"mean_interval_ns": 30_000}),
            WorkloadSpec("poisson", count=30, src=(0, 2), dst=(1, 2),
                         channel=13, reliable=True,
                         params={"mean_interval_ns": 40_000}),
            WorkloadSpec("poisson", count=30, src=(1, 6), dst=(0, 4),
                         channel=5, reliable=True,
                         params={"mean_interval_ns": 40_000}),
        ),
        faults=(
            FaultSpec("partition", at_tours=80, segment=1, nodes=side_a,
                      switches=switches_a),
            FaultSpec("heal_partition", at_tours=600, segment=1,
                      nodes=side_a, switches=switches_a),
        ),
        invariants=("all_delivered", "roster_converged",
                    "membership_view_consistent"),
        horizon_tours=1400,
    )


def redundant_router_failover() -> ScenarioSpec:
    # Two routers join the same segment pair: R0 (priority 16) wins the
    # spanning-tree election and carries every crossing; R1 (priority
    # 240) blocks its surplus port but keeps listening and shadow-parks
    # what it captures.  Crashing R0 mid-load silences its ads; R1
    # notices at the miss deadline, unblocks, promotes its shadow, and
    # the origin-keyed dedup turns the replay into exactly-once.
    # R0's gateways are node 8 on both segments (first router after the
    # 8 user nodes); they die with it.
    return ScenarioSpec(
        name="redundant_router_failover",
        description="The designated router of a redundant pair "
                    "power-fails under crossing load: the backup's "
                    "spanning-tree role flips at the missed-ad deadline, "
                    "shadow-parked crossings are promoted, and every "
                    "offered message still arrives exactly once.",
        topology=TopologySpec(
            segments=(SegmentSpec(n_nodes=8), SegmentSpec(n_nodes=8)),
            routers=(RouterConfig(segments=(0, 1), priority=16),
                     RouterConfig(segments=(0, 1), priority=240)),
        ),
        seed=7,
        workloads=(
            WorkloadSpec("poisson", count=48, src=(0, 1), dst=(1, 5),
                         channel=12, reliable=True,
                         params={"mean_interval_ns": 100_000}),
            WorkloadSpec("poisson", count=36, src=(1, 6), dst=(0, 4),
                         channel=13, reliable=True,
                         params={"mean_interval_ns": 120_000}),
            WorkloadSpec("message", count=20, src=(0, 2), dst=(0, 6),
                         channel=3, reliable=True,
                         params={"interval_ns": 150_000}),
        ),
        faults=(
            FaultSpec("crash_router", at_tours=180, router=0),
        ),
        expect_dead=((0, 8), (1, 8)),
        invariants=("all_delivered", "roster_converged"),
        horizon_tours=900,
    )


def two_path_256() -> ScenarioSpec:
    return ScenarioSpec(
        name="two_path_256",
        description="Past the ceiling with no single point of failure: "
                    "two 128-node rings joined by a redundant router "
                    "pair — the spanning tree blocks the second path "
                    "while crossing traffic flows exactly-once over the "
                    "first.",
        topology=TopologySpec(
            segments=(SegmentSpec(n_nodes=128), SegmentSpec(n_nodes=128)),
            routers=(RouterConfig(segments=(0, 1), priority=32),
                     RouterConfig(segments=(0, 1), priority=224)),
        ),
        seed=7,
        workloads=(
            # Crossing rates sit at tour scale (a 130-member ring tours
            # in ~144 us); the stream straddles the election settling at
            # ~2 advertise periods, so early crossings exercise the
            # dedup under transient dual-forwarding and late ones ride
            # the converged tree.
            WorkloadSpec("poisson", count=10, src=(0, 0), dst=(1, 64),
                         channel=12, reliable=True,
                         params={"mean_interval_ns": 600_000}),
            WorkloadSpec("message", count=8, src=(1, 5), dst=(0, 100),
                         channel=13, reliable=True,
                         params={"interval_ns": 700_000}),
            WorkloadSpec("message", count=8, src=(0, 30), dst=(0, 90),
                         channel=3, reliable=True,
                         params={"interval_ns": 700_000}),
        ),
        horizon_tours=60,
        grace_tours=400,
        invariants=("no_drops", "all_delivered", "roster_converged"),
    )


def chaos_router_storm() -> ScenarioSpec:
    # Correlated router churn on a redundant pair: R0 (the designated
    # forwarder) crashes and recovers, then R1 does the same.  The
    # storyline is staged so at least one router is always alive — a
    # crossing is confirmed at its origin ring the moment the tour
    # completes (tour-as-ack), so a window with zero live routers would
    # make confirmed-and-lost unavoidable.  Dead-letter channels are on
    # so every shadow expiry/eviction lands in accounting, and the
    # recover legs exercise the post-crash pump re-arm (a recovered
    # router with a wedged egress pump would strand its backlog).
    return ScenarioSpec(
        name="chaos_router_storm",
        description="Correlated crash/recover churn across a redundant "
                    "router pair under crossing load: failover, "
                    "fail-back, shadow promotion and post-recovery pump "
                    "drain, with dead-letter accounting on and every "
                    "message delivered exactly once.",
        topology=TopologySpec(
            segments=(SegmentSpec(n_nodes=8), SegmentSpec(n_nodes=8)),
            routers=(
                RouterConfig(segments=(0, 1), priority=16,
                           resilience={"dead_letter": True}),
                RouterConfig(segments=(0, 1), priority=240,
                           resilience={"dead_letter": True}),
            ),
        ),
        seed=7,
        workloads=(
            WorkloadSpec("poisson", count=40, src=(0, 1), dst=(1, 5),
                         channel=12, reliable=True,
                         params={"mean_interval_ns": 150_000}),
            WorkloadSpec("poisson", count=30, src=(1, 6), dst=(0, 4),
                         channel=13, reliable=True,
                         params={"mean_interval_ns": 150_000}),
            WorkloadSpec("message", count=16, src=(0, 2), dst=(0, 6),
                         channel=3, reliable=True,
                         params={"interval_ns": 180_000}),
        ),
        faults=(
            FaultSpec("crash_router", at_tours=120, router=0),
            FaultSpec("recover_router", at_tours=420, router=0),
            FaultSpec("crash_router", at_tours=600, router=1),
            FaultSpec("recover_router", at_tours=800, router=1),
        ),
        invariants=("all_delivered", "roster_converged",
                    "no_duplicate_deliveries"),
        horizon_tours=1000,
    )


def flapping_spine() -> ScenarioSpec:
    # The single router's gateway link on segment 0 (gateway id 8 after
    # the 8 user nodes) flaps three times.  Each cut re-rosters the ring
    # without the gateway — crossings park; each restore re-admits it.
    # Ingress throttling is on: the post-restore capture surge is paced
    # through the token bucket's deferral queue instead of slamming the
    # reassembly path all at once.
    return ScenarioSpec(
        name="flapping_spine",
        description="A flapping gateway link on the spine router: three "
                    "cut/restore cycles under crossing load, with "
                    "token-bucket ingress throttling pacing the "
                    "post-restore capture surges; full exactly-once "
                    "delivery.",
        topology=TopologySpec(
            segments=(SegmentSpec(n_nodes=8), SegmentSpec(n_nodes=8)),
            routers=(
                RouterConfig(segments=(0, 1),
                           resilience={"throttle": True,
                                       "throttle_token_ns": 40_000,
                                       "throttle_burst": 2}),
            ),
        ),
        seed=7,
        workloads=(
            WorkloadSpec("poisson", count=36, src=(0, 1), dst=(1, 5),
                         channel=12, reliable=True,
                         params={"mean_interval_ns": 60_000}),
            WorkloadSpec("poisson", count=24, src=(1, 2), dst=(0, 4),
                         channel=13, reliable=True,
                         params={"mean_interval_ns": 80_000}),
        ),
        faults=(
            FaultSpec("cut_link", at_tours=80, segment=0, node=8, switch=0),
            FaultSpec("restore_link", at_tours=140, segment=0, node=8,
                      switch=0),
            FaultSpec("cut_link", at_tours=200, segment=0, node=8, switch=0),
            FaultSpec("restore_link", at_tours=260, segment=0, node=8,
                      switch=0),
            FaultSpec("cut_link", at_tours=320, segment=0, node=8, switch=0),
            FaultSpec("restore_link", at_tours=380, segment=0, node=8,
                      switch=0),
        ),
        invariants=("all_delivered", "roster_converged",
                    "no_duplicate_deliveries"),
        horizon_tours=900,
    )


def breaker_asymmetric_partition() -> ScenarioSpec:
    # Segment 1 splits with the gateway (id 8) on side B: crossings for
    # side-A destinations park and re-park at the router until the
    # per-destination breaker trips, after which they fail fast into
    # the redrivable dead-letter channel instead of burning pump slots.
    # The heal re-rosters the full ring; the breaker's half-open probe
    # redrives one dead-letter, it delivers, the circuit closes, and
    # the rest of the backlog follows.
    side_a = (0, 1, 2, 3)
    switches_a = (0,)
    return ScenarioSpec(
        name="breaker_asymmetric_partition",
        description="An asymmetric partition strands one side of a "
                    "segment: the per-destination circuit breaker trips "
                    "over the parked crossings, fails fast into the "
                    "redrivable dead-letter channel, and the half-open "
                    "probe after the heal redrives everything — full "
                    "delivery, zero confirmed-and-lost.",
        topology=TopologySpec(
            segments=(SegmentSpec(n_nodes=8), SegmentSpec(n_nodes=8)),
            routers=(
                RouterConfig(segments=(0, 1),
                           resilience={"circuit_breaker": True,
                                       "breaker_threshold": 3,
                                       "dead_letter": True}),
            ),
        ),
        seed=7,
        workloads=(
            WorkloadSpec("poisson", count=30, src=(0, 1), dst=(1, 2),
                         channel=12, reliable=True,
                         params={"mean_interval_ns": 40_000}),
            WorkloadSpec("poisson", count=30, src=(0, 2), dst=(1, 6),
                         channel=13, reliable=True,
                         params={"mean_interval_ns": 40_000}),
        ),
        faults=(
            FaultSpec("partition", at_tours=80, segment=1, nodes=side_a,
                      switches=switches_a),
            FaultSpec("heal_partition", at_tours=500, segment=1,
                      nodes=side_a, switches=switches_a),
        ),
        invariants=("all_delivered", "roster_converged",
                    "no_duplicate_deliveries"),
        horizon_tours=1200,
    )


def bulkhead_noisy_neighbor() -> ScenarioSpec:
    # Three segments on one router with a deliberately small egress
    # queue: segment 1 floods segment 0 with bursts while segment 2
    # sends polite messages to the same egress port.  With the bulkhead
    # on, the egress queue splits into per-ingress compartments drained
    # round-robin, so the victim's crossings never queue behind the
    # flood.  Loads are sized so neither compartment overflows —
    # a bulkhead reject is a real drop, and all_delivered would fail.
    return ScenarioSpec(
        name="bulkhead_noisy_neighbor",
        description="A noisy-neighbour burst stream and a polite victim "
                    "stream converge on one egress port of a three-way "
                    "router: bulkhead compartments isolate the victim "
                    "from the flood and round-robin drain keeps its "
                    "latency flat; everything still delivers.",
        topology=TopologySpec(
            segments=(SegmentSpec(n_nodes=8), SegmentSpec(n_nodes=8),
                      SegmentSpec(n_nodes=8)),
            routers=(
                RouterConfig(segments=(0, 1, 2), egress_capacity=32,
                           egress_window=2,
                           resilience={"bulkhead": True}),
            ),
        ),
        seed=7,
        workloads=(
            WorkloadSpec("burst", count=50, src=(1, 1), dst=(0, 3),
                         channel=12, reliable=True,
                         params={"burst_mean": 5, "intra_gap_ns": 2_000,
                                 "off_mean_ns": 300_000}),
            WorkloadSpec("message", count=24, src=(2, 1), dst=(0, 5),
                         channel=13, reliable=True,
                         params={"interval_ns": 60_000}),
        ),
        invariants=("all_delivered", "roster_converged",
                    "no_duplicate_deliveries"),
        horizon_tours=400,
        grace_tours=2000,
    )


def zipf_cache_warmup() -> ScenarioSpec:
    # Node 0 is the origin, node 1 the read-through cache, nodes 2 and 3
    # the clients.  The cache holds 8 of 24 catalog entries, so the Zipf
    # head (alpha 1.1) warms in and stays while the tail keeps missing —
    # both hit and miss paths (and LRU eviction) are live in the golden
    # timeline.  Each content service claims channel 13 on its own node
    # only, so origin, cache and both clients coexist conflict-free.
    return ScenarioSpec(
        name="zipf_cache_warmup",
        description="Zipf-skewed content demand warming a read-through "
                    "segment cache: two clients request from a bounded "
                    "LRU cache node fronting an origin node; the catalog "
                    "head pins itself in cache while the tail churns.",
        topology=TopologySpec(n_nodes=8, n_switches=2),
        seed=7,
        cache=CacheSpec(origin=0, caches=(1,), policy="read_through",
                        capacity=8, eviction="lru"),
        workloads=(
            WorkloadSpec("zipf", count=60, src=2, dst=1, channel=13,
                         reliable=True,
                         params={"interval_ns": 5_000, "alpha": 1.1,
                                 "catalog_size": 24}),
            WorkloadSpec("zipf", count=40, src=3, dst=1, channel=13,
                         reliable=True,
                         params={"interval_ns": 7_000, "alpha": 1.1,
                                 "catalog_size": 24}),
        ),
        horizon_tours=400,
    )


def cache_offload_star() -> ScenarioSpec:
    # The four_ring_512 star with the router's on-path cache enabled:
    # clients on segments 1..3 request Zipf-skewed content from the
    # origin on segment 0, and the four-port router remembers every
    # RESPONSE it ferries.  The catalog (12) fits the router store (32),
    # so once the head warms in, repeat crossings are answered at the
    # requester's own gateway — never touching the origin segment.  The
    # C1 bench sweeps this shape's alpha/capacity axes.
    return ScenarioSpec(
        name="cache_offload_star",
        description="In-network caching on the 512-node star: the "
                    "four-port router answers repeat content crossings "
                    "from its on-path cache, offloading the origin "
                    "segment; Zipf clients on three segments drive it.",
        topology=TopologySpec(
            segments=tuple(SegmentSpec(n_nodes=128) for _ in range(4)),
            routers=(RouterConfig(segments=(0, 1, 2, 3),
                                cache={"enabled": True, "capacity": 32}),),
        ),
        seed=7,
        cache=CacheSpec(origin=(0, 1)),
        workloads=(
            WorkloadSpec("zipf", count=12, src=(1, 5), dst=(0, 1),
                         channel=13, reliable=True,
                         params={"interval_ns": 150_000, "alpha": 1.2,
                                 "catalog_size": 12}),
            WorkloadSpec("zipf", count=12, src=(2, 64), dst=(0, 1),
                         channel=13, reliable=True,
                         params={"interval_ns": 150_000, "alpha": 1.2,
                                 "catalog_size": 12}),
            WorkloadSpec("zipf", count=12, src=(3, 90), dst=(0, 1),
                         channel=13, reliable=True,
                         params={"interval_ns": 150_000, "alpha": 1.2,
                                 "catalog_size": 12}),
        ),
        horizon_tours=25,
        grace_tours=400,
        invariants=("no_drops", "all_delivered", "roster_converged"),
    )


def mesh_routed_small() -> ScenarioSpec:
    # The smallest hierarchical mesh: two areas of two 6-node segments,
    # one hub router per area, one border router stitching the areas.
    # Cross-area traffic rides v3 summaries (never flat per-segment
    # rows) and a cluster-scoped broadcast floods all four rings over
    # the converged spanning tree.  Routers advertise every 8 tours and
    # streams hold 40 tours (several advertise periods) so the
    # distance-vector/summary exchange settles first; this scenario is
    # golden-pinned, so its timeline is the v3 wire format's regression
    # anchor.
    return ScenarioSpec(
        name="mesh_routed_small",
        description="Two-area hierarchical mesh: hub routers per area, "
                    "a border router between them, summarized v3 ads "
                    "carrying cross-area routes, pooled destinations "
                    "and a cluster-scoped spanning-tree broadcast.",
        topology=TopologySpec.area_mesh(2, 2, 6, advertise_period_tours=8),
        seed=7,
        workloads=(
            WorkloadSpec("poisson", count=12, src=(0, 1), channel=12,
                         reliable=True, name="mesh_pool",
                         params={"mean_interval_ns": 60_000,
                                 "start_tours": 40,
                                 "dst_pool": [(1, 2), (2, 3), (3, 1)]}),
            WorkloadSpec("message", count=8, src=(3, 2), dst=(0, 4),
                         channel=13, reliable=True,
                         params={"interval_ns": 80_000,
                                 "start_tours": 40}),
            WorkloadSpec("cluster_broadcast", count=3, src=(1, 0),
                         channel=3,
                         params={"interval_ns": 120_000,
                                 "start_tours": 40}),
        ),
        invariants=("all_delivered", "roster_converged",
                    "no_duplicate_deliveries"),
        horizon_tours=220,
        grace_tours=600,
    )


def mesh_1k() -> ScenarioSpec:
    # The banked ~1k-node tier: three areas of five 68-node segments
    # (1020 user nodes; 1056 ring members with hub/border/standby
    # gateways).  Redundant spokes give every area a blocked standby
    # hub, so the shape exercises summarization and spanning-tree
    # redundancy at once.  Loads stay light — the point is the routed
    # control plane at scale, not throughput.
    return ScenarioSpec(
        name="mesh_1k",
        description="The 1k-node mesh tier: 15 segments in three areas "
                    "with redundant hub spokes; summarized routing, "
                    "pooled cross-area traffic and a cluster broadcast.",
        topology=TopologySpec.area_mesh(3, 5, 68, redundant_spokes=True,
                                        advertise_period_tours=8),
        seed=7,
        workloads=(
            WorkloadSpec("poisson", count=6, src=(0, 1), channel=12,
                         reliable=True, name="mesh1k_pool",
                         params={"mean_interval_ns": 150_000,
                                 "start_tours": 40,
                                 "dst_pool": [(5, 10), (7, 3), (12, 40),
                                              (14, 7)]}),
            WorkloadSpec("message", count=4, src=(10, 5), dst=(2, 60),
                         channel=13, reliable=True,
                         params={"interval_ns": 200_000,
                                 "start_tours": 40}),
            WorkloadSpec("cluster_broadcast", count=2, src=(0, 0),
                         channel=3,
                         params={"interval_ns": 200_000,
                                 "start_tours": 40}),
        ),
        invariants=("all_delivered", "roster_converged",
                    "no_duplicate_deliveries"),
        horizon_tours=75,
        grace_tours=250,
    )


def mesh_4k() -> ScenarioSpec:
    # The addressing ceiling: fifteen 254-user segments on one 15-port
    # central router fills every ring to exactly 255 members — 3810
    # user nodes, 3825 total.  Every segment is attached, so crossings
    # need no distance-vector convergence and the workload can start at
    # ring-up; counts are tiny because each crossing costs a ~280 us
    # tour on two rings.
    return ScenarioSpec(
        name="mesh_4k",
        description="The ~3.8k-node star tier: 15 rings of 255 members "
                    "(254 users + the hub gateway) on one central "
                    "router — the 4-bit segment space and 8-bit node "
                    "space filled to their architectural ceiling.",
        topology=TopologySpec.star_mesh(15, 254,
                                        advertise_period_tours=8),
        seed=7,
        workloads=(
            WorkloadSpec("poisson", count=4, src=(0, 1), dst=(7, 128),
                         channel=12, reliable=True,
                         params={"mean_interval_ns": 900_000}),
            WorkloadSpec("message", count=3, src=(14, 250), dst=(3, 9),
                         channel=13, reliable=True,
                         params={"interval_ns": 1_000_000}),
            WorkloadSpec("message", count=3, src=(8, 40), dst=(8, 200),
                         channel=3, reliable=True,
                         params={"interval_ns": 900_000}),
        ),
        invariants=("no_drops", "all_delivered", "roster_converged"),
        horizon_tours=20,
        grace_tours=120,
    )


SCENARIOS: Dict[str, Callable[[], ScenarioSpec]] = {
    factory.__name__: factory
    for factory in (
        quiet_ring,
        slide7_mixed,
        broadcast_storm,
        kernel_storm,
        diurnal_ramp,
        failover_under_load,
        churn_under_load,
        partition_heal_under_load,
        large_ring_64,
        large_ring_128,
        large_ring_256,
        two_ring_256,
        four_ring_512,
        routed_partition_heal,
        redundant_router_failover,
        two_path_256,
        chaos_router_storm,
        flapping_spine,
        breaker_asymmetric_partition,
        bulkhead_noisy_neighbor,
        zipf_cache_warmup,
        cache_offload_star,
        mesh_routed_small,
        mesh_1k,
        mesh_4k,
    )
}


def scenario_names() -> List[str]:
    return list(SCENARIOS)


def get_scenario(name: str, seed: Optional[int] = None) -> ScenarioSpec:
    """Look up a named scenario, optionally overriding its seed."""
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(SCENARIOS)}"
        ) from None
    spec = factory()
    return spec if seed is None else spec.with_seed(seed)
