"""Declarative scenario descriptions.

A :class:`ScenarioSpec` is plain data: topology shape, a workload mix,
a fault storyline, membership configuration and a run horizon, with all
times expressed in **ring tours** so the same scenario scales across
fibre lengths and node counts.  The :mod:`repro.scenarios.runner` turns
a spec into a live cluster, runs it, and checks the spec's invariants.

Keeping specs declarative buys three things the hand-wired experiment
scripts never had:

* every experiment setup is serialisable (``to_dict``) and lands in the
  machine-readable bench JSON next to its results;
* scenarios compose — the library in :mod:`repro.scenarios.library`
  covers quiet rings to 64-node partitioned storms with the same few
  dataclasses;
* runs are replayable — spec + seed pins the whole timeline, which the
  golden-trace regression suite exploits.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..caching import (
    CACHE_POLICIES,
    DEFAULT_CONTENT_CHANNEL,
    EVICTION_POLICIES,
)
from ..cluster import AmpNetCluster
from ..faults import FaultKind, FaultSchedule
from ..micropacket import BROADCAST
from ..routing import RoutedCluster, RouterConfig, TopologySpec
from ..transport import Channel
from ..workloads import (
    WORKLOAD_KINDS,
    ClusterBroadcastStream,
    FileStream,
    ZipfStream,
)

__all__ = [
    "CacheSpec",
    "WorkloadSpec",
    "FaultSpec",
    "ScenarioSpec",
]

#: Workload/fault addressing: a plain node id on single-segment
#: topologies, a ``(segment, node)`` pair on multi-segment ones.
Address = Union[int, Tuple[int, int]]


def _address(value):
    """``(segment, node)`` pairs may arrive as lists from a JSON
    round-trip; plain node ids pass through."""
    return tuple(value) if isinstance(value, (list, tuple)) else value


@dataclass(frozen=True)
class CacheSpec:
    """The in-network caching service of a scenario: one origin node and
    the :class:`~repro.caching.SegmentCache` nodes fronting it.

    Addresses follow the workload convention — plain node ids on a
    single-segment topology, ``(segment, node)`` pairs on a routed one.
    ``caches`` may be empty: on a routed topology with router
    ``cache=CacheConfig(enabled=True)`` the gateway routers themselves
    are the cache tier (the on-path tap), and the spec only places the
    origin.  ``flush_interval_tours`` scales the write-behind flush
    timer with the ring tour, like every other scenario time knob.
    """

    origin: Address
    caches: Tuple[Address, ...] = ()
    policy: str = "read_through"
    capacity: int = 64
    eviction: str = "lru"
    content_bytes: int = 40
    channel: int = DEFAULT_CONTENT_CHANNEL
    flush_interval_tours: float = 20.0
    flush_batch: int = 8

    def __post_init__(self) -> None:
        object.__setattr__(self, "origin", _address(self.origin))
        object.__setattr__(self, "caches", tuple(map(_address, self.caches)))
        if self.policy not in CACHE_POLICIES:
            raise ValueError(
                f"unknown cache policy {self.policy!r}; "
                f"expected one of {CACHE_POLICIES}"
            )
        if self.eviction not in EVICTION_POLICIES:
            raise ValueError(
                f"unknown eviction policy {self.eviction!r}; "
                f"expected one of {EVICTION_POLICIES}"
            )
        if self.capacity < 1:
            raise ValueError("cache capacity must be >= 1 entry")
        if self.content_bytes < 1:
            raise ValueError("content_bytes must be >= 1")
        if not 0 <= self.channel <= 0xF:
            raise ValueError("cache channel out of range (0..15)")
        if self.flush_interval_tours <= 0 or self.flush_batch < 1:
            raise ValueError("flush interval and batch must be positive")
        if self.origin in self.caches:
            raise ValueError("the origin node cannot also be a cache")


@dataclass(frozen=True)
class WorkloadSpec:
    """One traffic source in the mix.

    ``kind`` names a row of :data:`repro.workloads.WORKLOAD_KINDS` — the
    one table of kinds, with each kind's required and optional
    ``params`` and which of ``src``/``dst``/``reliable`` it takes
    (:mod:`repro.workloads.kinds` documents every knob).  The spec is
    validated against that row here, so a missing or typo'd knob fails
    at spec build time, never inside a run.

    ``reliable`` routes unicast payloads through the messenger so they
    survive ring churn (required for fault scenarios that assert full
    delivery).  The content kind (``zipf``) is a request/response
    stream against the scenario's :class:`CacheSpec` service —
    inherently messenger-carried, so it must declare
    ``reliable=True``; ``dst`` is the node it addresses (a cache, or
    the origin when crossings should hit the on-path router tap).
    """

    kind: str
    count: int
    src: Optional[Address] = None
    dst: Optional[Address] = None
    channel: int = 0
    name: Optional[str] = None
    reliable: bool = False
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for attr in ("src", "dst"):
            value = _address(getattr(self, attr))
            if isinstance(value, tuple) and len(value) != 2:
                raise ValueError(
                    f"{attr} global address must be (segment, node)"
                )
            object.__setattr__(self, attr, value)
        row = WORKLOAD_KINDS.get(self.kind)
        if row is None:
            raise ValueError(
                f"unknown workload kind {self.kind!r}; "
                f"expected one of {tuple(WORKLOAD_KINDS)}"
            )
        if self.count < 1:
            raise ValueError("workload count must be >= 1")
        row.validate(self.kind, self.src, self.dst, self.reliable, self.params)


#: Fault kinds: the :class:`~repro.faults.FaultKind` vocabulary plus
#: ``flap_node``, the one composite (a crash/recover train).
FAULT_KINDS = tuple(k.value for k in FaultKind) + ("flap_node",)


@dataclass(frozen=True)
class FaultSpec:
    """One fault (or churn train) at a tour-relative instant.

    ``at_tours`` counts from the moment the initial ring certified, so
    the same storyline lands at the same protocol phase regardless of
    topology size or fibre length.  On multi-segment topologies
    ``segment`` names the ring the fault strikes (default: segment 0);
    node and switch ids are then local to that segment.
    """

    kind: str
    at_tours: float
    node: Optional[int] = None
    switch: Optional[int] = None
    #: target segment on multi-segment topologies (ignored otherwise)
    segment: int = 0
    #: target router index (router fault kinds only)
    router: Optional[int] = None
    #: node ids on side A (partition kinds)
    nodes: Tuple[int, ...] = ()
    #: switch ids granted to side A (partition kinds)
    switches: Tuple[int, ...] = ()
    #: flap_node train shape
    flaps: int = 3
    down_tours: float = 40.0
    up_tours: float = 120.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        for role in self.roles:
            if getattr(self, role) in (None, ()):
                raise ValueError(
                    f"{self.kind} needs a {role}"
                    + (" index" if role == "router" else "")
                )

    @property
    def roles(self) -> Tuple[str, ...]:
        """The fields carrying this kind's targets (its
        :attr:`~repro.faults.FaultKind.roles`; ``flap_node`` strikes a
        node).  A ``router`` role means the fault arms against the
        routed cluster as a whole, not one segment."""
        if self.kind == "flap_node":
            return ("node",)
        return FaultKind(self.kind).roles

    def add_to(self, sched: FaultSchedule, origin_ns: int, tour_ns: int) -> None:
        """Append this fault to ``sched`` with tours resolved to ns."""
        at_ns = origin_ns + int(self.at_tours * tour_ns)
        if self.kind == "flap_node":
            sched.flap_node(
                at_ns, self.node, flaps=self.flaps,
                down_ns=max(1, int(self.down_tours * tour_ns)),
                up_ns=max(1, int(self.up_tours * tour_ns)),
            )
        else:
            getattr(sched, self.kind)(
                at_ns, *(getattr(self, role) for role in self.roles)
            )


#: Invariant names the runner can check — the one place they are
#: spelled; ``ScenarioRunner._check_<name>`` is each one's judge.
INVARIANT_NAMES = (
    "no_drops",
    "all_delivered",
    "roster_converged",
    "membership_view_consistent",
    "no_duplicate_deliveries",
)


#: Router fields newer than the first committed routed emission, with
#: their defaults: ``to_dict`` leaves one out while it holds its default.
_LATE_ROUTER_FIELDS = {
    f.name: f.default
    for f in fields(RouterConfig)
    if f.name in ("cache", "area", "advertise_period_tours",
                  "miss_deadline_periods", "shadow_capacity",
                  "shadow_ttl_periods")
}


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, reproducible experiment description."""

    name: str
    description: str = ""
    topology: TopologySpec = field(default_factory=TopologySpec)
    seed: int = 0
    membership: bool = False
    membership_liveness: bool = False
    workloads: Tuple[WorkloadSpec, ...] = ()
    faults: Tuple[FaultSpec, ...] = ()
    #: in-network caching service (origin + cache nodes); ``None`` means
    #: no content services are deployed — the pre-caching timeline.
    cache: Optional[CacheSpec] = None
    #: main run horizon after ring-up, in ring tours
    horizon_tours: int = 400
    #: extra settling time granted while workloads are still completing
    grace_tours: int = 2000
    invariants: Tuple[str, ...] = (
        "no_drops", "all_delivered", "roster_converged",
    )
    #: node ids expected to be dead when the run ends (shapes the
    #: roster_converged and membership_view_consistent checks); global
    #: ``(segment, node)`` addresses on multi-segment topologies
    expect_dead: Tuple[Address, ...] = ()

    def __post_init__(self) -> None:
        for inv in self.invariants:
            if inv not in INVARIANT_NAMES:
                raise ValueError(
                    f"unknown invariant {inv!r}; expected one of {INVARIANT_NAMES}"
                )
        if "membership_view_consistent" in self.invariants and not self.membership:
            raise ValueError(
                "membership_view_consistent requires membership=True"
            )
        topology = self.topology
        multi = topology.multi_segment
        if self.cache is not None and not isinstance(self.cache, CacheSpec):
            object.__setattr__(self, "cache", CacheSpec(**dict(self.cache)))
        if self.cache is not None:
            topology.check_address("cache origin", self.cache.origin)
            for addr in self.cache.caches:
                topology.check_address("cache node", addr)
        object.__setattr__(
            self, "expect_dead", tuple(map(_address, self.expect_dead))
        )
        for fault in self.faults:
            if "router" in fault.roles:
                if not multi:
                    raise ValueError(
                        f"{fault.kind} needs a multi-segment topology "
                        "(single rings have no routers)"
                    )
                if not 0 <= fault.router < len(topology.routers):
                    raise ValueError(
                        f"fault targets router {fault.router}; topology "
                        f"has routers 0..{len(topology.routers) - 1}"
                    )
                continue
            if multi and not 0 <= fault.segment < len(topology.segments):
                raise ValueError(
                    f"fault targets segment {fault.segment}; topology has "
                    f"segments 0..{len(topology.segments) - 1}"
                )
            if "switches" in fault.roles:
                ring = topology.segments[fault.segment] if multi else topology
                if ring.n_switches < 2:
                    raise ValueError("partition scenarios need >= 2 switches")
        # Message channels the node stack listens on wherever a
        # workload could: a second claimant used to die mid-run as a
        # bare ``message channel N already claimed``.
        reserved = {
            Channel.CACHE: "cache replication",
            Channel.REFRESH: "cache refresh",
        }
        if self.membership:
            reserved[Channel.MEMBERSHIP] = "gossip membership"
        if multi:
            reserved[Channel.ROUTING] = "router advertisements"
        if self.cache is not None and self.cache.channel in reserved:
            raise ValueError(
                f"cache channel {self.cache.channel} belongs to the node "
                f"stack's {reserved[self.cache.channel]}"
            )
        for workload in self.workloads:
            row = WORKLOAD_KINDS[workload.kind]
            # Raw MAC streams sink DATA cells and claim nothing; every
            # other stream listens on its channel of the messenger.
            if workload.channel in reserved and (
                workload.reliable
                or issubclass(row.cls, (FileStream, ClusterBroadcastStream))
            ):
                label = f" {workload.name!r}" if workload.name else ""
                raise ValueError(
                    f"{workload.kind} workload{label} rides the messenger "
                    f"on channel {workload.channel}, which belongs to the "
                    f"node stack's {reserved[workload.channel]}"
                )
            if issubclass(row.cls, ZipfStream) and self.cache is None:
                raise ValueError(
                    f"{workload.kind} workloads need the scenario to "
                    "declare a CacheSpec (they address its services)"
                )
            for attr in ("src", "dst"):
                addr = getattr(workload, attr)
                if addr is not None:
                    topology.check_address(
                        f"{workload.kind} workload {attr}", addr,
                        # a raw (unreliable) stream may address the ring
                        broadcast_ok=attr == "dst"
                        and "reliable" in row.fields
                        and not workload.reliable,
                    )
            for addr in workload.params.get("dst_pool", ()):
                topology.check_address(
                    f"{workload.kind} workload dst_pool entry", _address(addr)
                )
            if multi and workload.kind == "broadcast":
                raise ValueError(
                    "broadcast workloads are per-ring; use one scenario "
                    "per segment or unicast mixes on routed topologies"
                )
            if workload.kind == "cluster_broadcast" and not multi:
                raise ValueError(
                    "cluster_broadcast workloads need a multi-segment "
                    "topology (single rings use the broadcast kind)"
                )
            if multi and not workload.reliable and row.reliable is not False:
                raise ValueError(
                    "multi-segment workloads must be reliable=True (raw "
                    "MAC cells carry no global address)"
                )

    # ------------------------------------------------------------- builders
    def with_seed(self, seed: int) -> "ScenarioSpec":
        return replace(self, seed=seed)

    def with_size(self, n_nodes: int) -> "ScenarioSpec":
        """The same scenario on an ``n_nodes``-node ring.

        The size axis of a sweep grid (see :mod:`repro.sweep`): only the
        topology scales — workloads, faults and invariants are untouched,
        so every node id the spec references must still exist on the
        resized ring.  The name gains an ``_n{size}`` suffix so grid
        rows, digests and emissions stay distinguishable per size.
        Single-segment topologies only (routed shapes size their
        segments explicitly).
        """
        if self.topology.multi_segment:
            raise ValueError(
                "with_size applies to single-segment topologies; "
                "multi-segment scenarios size their segments explicitly"
            )
        topology = replace(self.topology, n_nodes=n_nodes)
        referenced = set()
        for workload in self.workloads:
            for attr in ("src", "dst"):
                addr = getattr(workload, attr)
                if isinstance(addr, int) and addr != BROADCAST:
                    referenced.add(addr)
        for fault in self.faults:
            if fault.node is not None:
                referenced.add(fault.node)
            referenced.update(fault.nodes)
        for dead in self.expect_dead:
            if isinstance(dead, int):
                referenced.add(dead)
        out_of_range = sorted(n for n in referenced if n >= n_nodes)
        if out_of_range:
            raise ValueError(
                f"scenario {self.name!r} references node ids "
                f"{out_of_range} which do not exist at n_nodes={n_nodes}"
            )
        return replace(
            self,
            name=f"{self.name}_n{n_nodes}", topology=topology,
        )

    def build_cluster(self, seed: Optional[int] = None):
        """Construct the (not yet started) cluster this spec describes.

        Returns an :class:`~repro.cluster.AmpNetCluster` for the classic
        single-segment form, a :class:`~repro.routing.RoutedCluster` for
        the ``segments``/``routers`` form.
        """
        seed = self.seed if seed is None else seed
        topology = self.topology
        gossip = {"membership": self.membership,
                  "membership_liveness": self.membership_liveness}
        if topology.multi_segment:
            return RoutedCluster(topology, seed=seed, **gossip)
        return AmpNetCluster(
            topology.n_nodes, topology.n_switches, topology.fiber_m, seed,
            **gossip,
        )

    def fault_schedules(
        self, origin_ns: int, tour_ns: int
    ) -> List[Tuple[Optional[int], FaultSchedule]]:
        """The fault storyline resolved to absolute ns, as ``(segment,
        schedule)`` pairs in arm order.

        On a multi-segment topology each segment's faults arm against
        that segment's sub-cluster (node and switch ids in a
        :class:`FaultSpec` stay segment-local), segments in order of
        first appearance; ``segment`` is ``None`` for the schedule that
        arms against the cluster itself — router faults, armed last, or
        the whole storyline of a single ring.  Same-instant faults fire
        in arm order, so this order is part of the timeline.
        """
        multi = self.topology.multi_segment
        by_segment: Dict[Optional[int], FaultSchedule] = {}
        for fault in self.faults:
            on_ring = multi and "router" not in fault.roles
            sched = by_segment.setdefault(
                fault.segment if on_ring else None, FaultSchedule()
            )
            fault.add_to(sched, origin_ns, tour_ns)
        whole = by_segment.pop(None, None)
        pairs = list(by_segment.items())
        if whole is not None:
            pairs.append((None, whole))
        return pairs

    # ---------------------------------------------------------------- misc
    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form, embedded in bench emissions and the CLI.

        Late-addition fields (``cache`` here, ``_LATE_ROUTER_FIELDS`` on
        routers) are omitted at their defaults so every emission
        written before they existed keeps its exact committed schema —
        the F3 regression and the ``benchmarks/e2e`` pins hold this.
        """
        out = asdict(self)
        out["workloads"] = [dict(asdict(w), params=dict(w.params))
                            for w in self.workloads]
        if out.get("cache") is None:
            out.pop("cache", None)
        for router in out["topology"]["routers"]:
            for name, default in _LATE_ROUTER_FIELDS.items():
                if router[name] == default:
                    del router[name]
        return out
