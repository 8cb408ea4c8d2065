"""Execute a :class:`~repro.scenarios.spec.ScenarioSpec` and judge it.

The runner owns the full experiment lifecycle:

1. build the cluster the spec describes and bring the ring up;
2. instantiate every workload (stochastic ones draw from named seeded
   streams, so the whole run is pinned by the master seed);
3. arm the fault storyline (tour-relative times resolved against the
   certified ring's tour estimate);
4. run the horizon, then grant grace time while workloads finish;
5. close every workload (releasing its receive handlers), evaluate the
   spec's invariants, and read the tracer timeline's digest.

The digest is the determinism contract made machine-checkable: two runs
of the same spec under the same seed must produce byte-identical
timelines, which the golden-trace suite pins across commits.  The
tracer streams it as records are made, so the runner keeps none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..analysis import ring_drop_count
from ..caching import CacheDeployment
from ..cluster import AmpNetCluster
from ..sim import Tracer
from ..workloads import (
    PARAM_KEYWORDS,
    WORKLOAD_KINDS,
    Workload,
    pareto_size_fn,
    ramp_profile,
    sinusoidal_profile,
)
from .spec import ScenarioSpec, WorkloadSpec

__all__ = [
    "InvariantResult",
    "ScenarioResult",
    "ScenarioRunner",
    "run_scenario",
    "trace_digest",
]


def trace_digest(tracer: Tracer) -> str:
    """Stable 128-bit digest of a tracer timeline: BLAKE2b-128 of every
    record's :func:`~repro.sim.trace_line`, so a dump of them hashes to
    the digest."""
    return tracer.digest()


@dataclass(frozen=True)
class InvariantResult:
    name: str
    ok: bool
    detail: str = ""

    def __post_init__(self) -> None:
        # Results cross multiprocessing pool boundaries (repro.sweep), so
        # the detail must be plain data: a judge that smuggles in an
        # exception object (or any other live handle) is flattened to its
        # string form here rather than breaking pickle transport later.
        if not isinstance(self.detail, str):
            object.__setattr__(self, "detail", str(self.detail))


@dataclass
class ScenarioResult:
    """Structured outcome of one scenario run."""

    name: str
    seed: int
    tour_ns: int
    ring_up_ns: int
    end_ns: int
    streams: List[Dict[str, Any]] = field(default_factory=list)
    invariants: List[InvariantResult] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    convergence: Dict[str, float] = field(default_factory=dict)
    trace_digest: str = ""

    @property
    def ok(self) -> bool:
        return all(inv.ok for inv in self.invariants)

    def failures(self) -> List[InvariantResult]:
        return [inv for inv in self.invariants if not inv.ok]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "ok": self.ok,
            "tour_ns": self.tour_ns,
            "ring_up_ns": self.ring_up_ns,
            "end_ns": self.end_ns,
            "streams": list(self.streams),
            "invariants": [
                {"name": i.name, "ok": i.ok, "detail": i.detail}
                for i in self.invariants
            ],
            "counters": dict(self.counters),
            "convergence": dict(self.convergence),
            "trace_digest": self.trace_digest,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ScenarioResult":
        """Rehydrate a :meth:`to_dict` payload.

        The inverse used on the receiving side of a pool boundary
        (:mod:`repro.sweep` ships results between workers as plain
        dicts) and by any consumer of the CLI's ``--json`` output.
        ``ok`` is recomputed from the invariants, never trusted.
        """
        return cls(
            name=payload["name"],
            seed=payload["seed"],
            tour_ns=payload["tour_ns"],
            ring_up_ns=payload["ring_up_ns"],
            end_ns=payload["end_ns"],
            streams=[dict(s) for s in payload.get("streams", [])],
            invariants=[
                InvariantResult(i["name"], i["ok"], i.get("detail", ""))
                for i in payload.get("invariants", [])
            ],
            counters=dict(payload.get("counters", {})),
            convergence=dict(payload.get("convergence", {})),
            trace_digest=payload.get("trace_digest", ""),
        )


class ScenarioRunner:
    """Build, run and judge one scenario.

    ``phase_hook`` (when given) is called with a phase label at each
    lifecycle boundary — ``"built"``, ``"ring_up"``, ``"armed"``,
    ``"horizon"``, ``"settled"`` — which is how the :mod:`repro.perf`
    probe and the P1 bench window their measurements without duplicating
    the run logic.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        seed: Optional[int] = None,
        phase_hook: Optional[Callable[[str], None]] = None,
    ):
        self.spec = spec
        self.seed = spec.seed if seed is None else seed
        self.cluster: Optional[AmpNetCluster] = None
        self.workloads: List[Workload] = []
        self.cache_deployment: Optional[CacheDeployment] = None
        self.ring_up_ns = 0
        self._phase_hook = phase_hook

    def _phase(self, label: str) -> None:
        if self._phase_hook is not None:
            self._phase_hook(label)

    # ----------------------------------------------------------- lifecycle
    def run(self) -> ScenarioResult:
        spec = self.spec
        cluster = self.cluster = spec.build_cluster(seed=self.seed)
        # The judge reads the tracer's digest and counts, never a record.
        cluster.tracer.retain = False
        self._phase("built")
        cluster.start()
        self.ring_up_ns = cluster.run_until_ring_up()
        tour = cluster.tour_estimate_ns
        self._phase("ring_up")

        if spec.cache is not None:
            # Content services listen before the first request leaves a
            # client, so a zipf stream's opening burst cannot race the
            # origin's channel claim.
            c = spec.cache
            self.cache_deployment = CacheDeployment(
                cluster, c.origin, caches=c.caches, policy=c.policy,
                capacity=c.capacity, eviction=c.eviction,
                content_bytes=c.content_bytes, channel=c.channel,
                flush_interval_ns=max(1, int(c.flush_interval_tours * tour)),
                flush_batch=c.flush_batch,
            )
        self.workloads = [
            self._build_workload(w, index) for index, w in enumerate(spec.workloads)
        ]
        for segment, sched in spec.fault_schedules(self.ring_up_ns, tour):
            # Fault ids are segment-local; router faults (and a single
            # ring's whole storyline) strike the cluster itself.
            sched.arm(cluster if segment is None else cluster.segment(segment))
        self._phase("armed")

        cluster.run(until=self.ring_up_ns + spec.horizon_tours * tour)
        self._phase("horizon")
        # Grace: bursty arrivals, post-fault retransmissions and epidemic
        # reconciliation may need longer than the nominal horizon; extend
        # in slices until the run is settled (or grace runs out).
        deadline = cluster.sim.now + spec.grace_tours * tour
        step = max(50 * tour, 1)
        while not self._settled() and cluster.sim.now < deadline:
            cluster.run(until=min(cluster.sim.now + step, deadline))
        self._phase("settled")

        for workload in self.workloads:
            workload.close()
        if self.cache_deployment is not None:
            self.cache_deployment.close()
        return self._judge()

    # ----------------------------------------------------------- workloads
    def _build_workload(self, w: WorkloadSpec, index: int) -> Workload:
        """One generic constructor call per :data:`WORKLOAD_KINDS` row:
        the spec fields the row lists plus the params, with the few
        cluster-relative params resolved first."""
        cluster = self.cluster
        assert cluster is not None
        row = WORKLOAD_KINDS[w.kind]
        name = w.name or f"{self.spec.name}.{w.kind}-{index}"
        kwargs = {f: getattr(w, f) for f in row.fields}
        if "name" in kwargs:
            kwargs["name"] = name
        for key, value in w.params.items():
            if key == "start_tours":
                # Tour-relative like every other scenario time knob; meshes
                # use it to hold multi-hop traffic until the routers'
                # distance-vector exchange has converged.
                value = int(value * cluster.tour_estimate_ns)
            elif key == "pareto_sizes":
                # Sizes draw from their own named stream so they never
                # perturb the arrival-process randomness of the same
                # workload.
                value = pareto_size_fn(cluster, name, **dict(value))
            elif key == "profile":
                value = self._build_profile(value)
            kwargs[PARAM_KEYWORDS.get(key, key)] = value
        return row.cls(cluster, **kwargs)

    def _build_profile(self, profile_spec) -> Callable[[int], float]:
        """Resolve a declarative rate profile; tour-relative windows are
        anchored at ring-up so profiles track the protocol timeline."""
        if callable(profile_spec):
            return profile_spec
        cluster = self.cluster
        assert cluster is not None
        tour = cluster.tour_estimate_ns
        spec = dict(profile_spec)
        shape = spec.pop("shape")
        if shape == "sinusoidal":
            period_ns = int(spec.pop("period_tours") * tour)
            base = sinusoidal_profile(period_ns, **spec)
            origin = self.ring_up_ns
            return lambda t_ns: base(t_ns - origin)
        if shape == "ramp":
            start_ns = self.ring_up_ns + int(spec.pop("start_tours") * tour)
            end_ns = self.ring_up_ns + int(spec.pop("end_tours") * tour)
            return ramp_profile(start_ns, end_ns, **spec)
        raise ValueError(f"unknown profile shape {shape!r}")

    def _deliveries(self) -> List[Tuple[str, int, int]]:
        """``(label, delivered, expected)`` per workload."""
        out = []
        for workload in self.workloads:
            stats = workload.stream_stats()
            label = (stats[0].name if len(stats) == 1
                     else type(workload).__name__)
            out.append((label, sum(s.delivered for s in stats),
                        workload.expected_deliveries()))
        return out

    def _settled(self) -> bool:
        """True once every settling condition the spec cares about holds:
        offered work delivered, and (when the spec asserts on it) gossip
        views matching ground truth."""
        if any(got < want for _label, got, want in self._deliveries()):
            return False
        if "membership_view_consistent" in self.spec.invariants:
            if not self.cluster.membership_converged(dead=self.spec.expect_dead):
                return False
        return True

    # ------------------------------------------------------------ verdicts
    def _judge(self) -> ScenarioResult:
        spec = self.spec
        cluster = self.cluster
        assert cluster is not None
        streams: List[Dict[str, Any]] = []
        offered = delivered = 0
        for workload in self.workloads:
            for stats in workload.stream_stats():
                streams.append(stats.as_dict())
                offered += stats.offered
                delivered += stats.delivered

        counters = {
            "offered": offered,
            "delivered": delivered,
            "ring_drops": ring_drop_count(cluster),
            # fibre directions whose frame ledger does not balance: every
            # fibre joins a node port and a switch port
            "phys_unbalanced": sum(
                not link.balanced() for node in cluster.nodes.values()
                for port in node.ports
                for link in (port.tx_link, port.tx_link.dst.tx_link)),
            # MACs whose frame ledger does not balance (RingMAC.balanced)
            "mac_unbalanced": sum(
                not node.mac.balanced() for node in cluster.nodes.values()),
            "trace_records": sum(cluster.tracer.counts.values()),
            "faults_fired": cluster.tracer.counts.get("fault", 0),
        }
        # Fold the routers' own accounting (parked, dead-lettered,
        # breaker transitions, ...; nothing on a single ring) into the
        # result so replay tests and benches can assert on it.
        counters.update(
            (f"router_{k}", v)
            for k, v in cluster.router_counter_totals().items()
        )
        if self.cache_deployment is not None:
            # Caching scenarios: the service tier's accounting (hits,
            # misses, fills, origin traffic, flush activity) under the
            # same prefix discipline as the router fold.
            counters.update(
                (f"cache_{k}", v)
                for k, v in self.cache_deployment.counter_totals().items()
            )
        result = ScenarioResult(
            name=spec.name,
            seed=self.seed,
            tour_ns=cluster.tour_estimate_ns,
            ring_up_ns=self.ring_up_ns,
            end_ns=cluster.sim.now,
            streams=streams,
            counters=counters,
            convergence=self._convergence_summary(),
            trace_digest=trace_digest(cluster.tracer),
        )
        for name in spec.invariants:
            # spec.INVARIANT_NAMES spells the names; each one's judge is
            # the ``_check_<name>`` method below.
            ok, detail = getattr(self, f"_check_{name}")()
            result.invariants.append(InvariantResult(name, ok, detail))
        return result

    def _convergence_summary(self) -> Dict[str, float]:
        cluster = self.cluster
        assert cluster is not None
        if not self.spec.membership:
            return {}
        out: Dict[str, float] = dict(cluster.membership_overhead())
        detects = [
            cluster.convergence.time_to_detect(peer, "DEAD")
            for peer in cluster.convergence.peers("DEAD")
        ]
        detects = [d for d in detects if d is not None]
        if detects:
            out["first_dead_detect_ns"] = float(min(detects))
        return out

    # ------------------------------------------------------------ invariants
    def _live_expected(self) -> set:
        assert self.cluster is not None
        return set(self.cluster.nodes) - set(self.spec.expect_dead)

    def _check_no_drops(self) -> Tuple[bool, str]:
        drops = ring_drop_count(self.cluster)
        return not drops, (
            f"{drops} frames dropped in the data plane" if drops else ""
        )

    def _check_all_delivered(self) -> Tuple[bool, str]:
        missing = "; ".join(
            f"{label}: {got}/{want}"
            for label, got, want in self._deliveries() if got < want
        )
        return not missing, missing

    def _check_roster_converged(self) -> Tuple[bool, str]:
        cluster = self.cluster
        if not cluster.all_rings_up():
            return False, "ring not up on every live node"
        # Both cluster flavours judge their own roster shape: one ring's
        # roster against the expected ids, or (routed) every segment's
        # roster against that segment's expected members.
        detail = cluster.roster_mismatch(self._live_expected())
        return not detail, detail

    def _check_membership_view_consistent(self) -> Tuple[bool, str]:
        ok = self.cluster.membership_converged(dead=self.spec.expect_dead)
        return ok, "" if ok else "gossip views disagree with ground truth"

    def _check_no_duplicate_deliveries(self) -> Tuple[bool, str]:
        """Exactly-once: no workload delivers more than it offered.

        The chaos storylines exist to provoke duplicate paths — failover
        promotion, dead-letter redrive, throttle deferral — so this
        check is the dedup machinery's end-to-end witness.
        """
        dupes = "; ".join(
            f"{label}: {got}/{want}"
            for label, got, want in self._deliveries() if got > want
        )
        return not dupes, dupes


def run_scenario(spec: ScenarioSpec, seed: Optional[int] = None) -> ScenarioResult:
    """One-call convenience: build, run and judge ``spec``."""
    return ScenarioRunner(spec, seed=seed).run()
