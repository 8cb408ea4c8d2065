"""RoutedCluster: several ring segments, one simulator, one timeline.

The multi-segment counterpart of :class:`repro.cluster.AmpNetCluster`.
Each segment is a complete AmpNetCluster — its own switches, rostering
domain, 8-bit MAC space and (optionally) gossip membership — built on a
*shared* simulator and tracer.  Routers are extra member nodes: a router
attached to a segment occupies the next node id after the segment's user
nodes, so a 128-user-node segment with one router runs a 129-member
ring.

Addressing is global: ``cluster.nodes`` is keyed by ``(segment, node)``
:data:`~repro.transport.GlobalAddress` pairs, every node's messenger
resolves tuple destinations (same-segment addresses short-cut onto the
local ring), and the workload generators work unchanged because the
dict-lookup / messenger APIs are identical.

The router graph may contain **cycles** — two routers joining the same
segment pair is exactly how the cluster survives a router death.  Loop
freedom is the spanning-tree protocol's job at run time (see
:mod:`repro.routing.router`): redundant ports are blocked, a dead
router's silence re-converges the tree, and this class exposes the
resulting graph-role state (:meth:`RoutedCluster.designated_router`,
:meth:`RoutedCluster.spanning_tree_converged`) plus the router fault
hooks (:meth:`RoutedCluster.crash_router` /
:meth:`RoutedCluster.recover_router`).

The shape itself is a :class:`TopologySpec` — the one description of a
cluster's shape, which scenarios embed and :class:`RoutedCluster` takes
as is.  Constructing it pins every segment — user nodes plus gateways —
within the 255-member ring ceiling that motivates this package in the
first place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from ..cluster import AmpNetCluster, gossip_overhead
from ..micropacket import BROADCAST, MAX_SEGMENT
from ..phys import check_ring_shape
from ..sim import ConvergenceTracker, Simulator, Tracer
from ..transport import GlobalAddress
from .router import PortRole, RouterConfig, SegmentRouter

__all__ = ["RoutedCluster", "SegmentSpec", "TopologySpec", "mesh_layout"]


def mesh_layout(
    n_areas: int,
    segments_per_area: int,
    standbys: int = 0,
    labelled: bool = True,
) -> Tuple[int, List[Dict[str, Any]]]:
    """The router layout of a hub-and-spoke mesh, as plain data.

    Returns ``(n_segments, rows)``; each row holds the ``segments``,
    ``priority`` and (when ``labelled``) ``area`` of one router, in
    router-index order, for :meth:`TopologySpec.star_mesh` /
    ``.area_mesh`` to stamp segments and router keywords over.

    Area ``a`` (1-based; 0 stays the flat wire format) owns the
    contiguous segment block ``[(a-1)*spa, a*spa)`` and gets one hub
    router (priority 64) holding a port on each of its segments, plus
    ``standbys`` standby hubs at priority 240 whose ports the
    spanning-tree election blocks until the primary dies.  Border
    routers (priority 128, labelled with the area of their first
    attachment) stitch the areas together in a cycle — border ``i``
    joins the first segment of area ``i`` to the first segment of area
    ``i+1`` — so inter-area traffic rides summaries, never flat
    per-segment rows.  A star is the one-area case with ``labelled``
    off: no ``area`` key, so the routers stay in the flat area 0.
    """
    if n_areas < 1:
        raise ValueError("a mesh needs at least one area")
    if n_areas > 255:
        raise ValueError("areas are labelled 1..255")
    spa = segments_per_area
    rows: List[Dict[str, Any]] = []
    for ai in range(n_areas):
        hub: Dict[str, Any] = {
            "segments": tuple(range(ai * spa, (ai + 1) * spa))
        }
        if labelled:
            hub["area"] = ai + 1
        rows.append({**hub, "priority": 64})
        rows.extend({**hub, "priority": 240} for _ in range(standbys))
    if n_areas == 2:
        border_pairs = [(0, 1)]
    elif n_areas > 2:
        border_pairs = [(ai, (ai + 1) % n_areas) for ai in range(n_areas)]
    else:
        border_pairs = []
    for a, b in border_pairs:
        rows.append(
            {"segments": (a * spa, b * spa), "priority": 128, "area": a + 1}
        )
    return n_areas * spa, rows


@dataclass(frozen=True)
class SegmentSpec:
    """One ring segment of a multi-segment topology (user nodes only;
    gateway nodes for attached routers are appended automatically)."""

    n_nodes: int
    n_switches: int = 2
    fiber_m: float = 50.0

    def __post_init__(self) -> None:
        check_ring_shape(self.n_nodes, self.n_switches, self.fiber_m)


@dataclass(frozen=True)
class TopologySpec:
    """Physical shape of a cluster: the one description scenarios,
    benches and :class:`RoutedCluster` all read.

    Two mutually exclusive forms:

    * **single segment** (the default): ``n_nodes`` nodes wired to
      ``n_switches`` switches — one :class:`~repro.cluster.AmpNetCluster`;
    * **multi segment**: ``segments`` lists the rings and ``routers``
      the :class:`~repro.routing.RouterConfig` attachments joining them
      into one :class:`RoutedCluster`.  The single-segment fields are
      ignored in this form.

    A shape that cannot run does not construct: each ring goes through
    :func:`repro.phys.check_ring_shape`, each router through
    :class:`RouterConfig`, and what only the whole shape can tell — the
    4-bit segment field, routers naming real segments, user nodes plus
    gateways within the 255-member ring — is checked here.
    """

    n_nodes: int = 6
    n_switches: int = 4
    fiber_m: float = 50.0
    segments: Tuple[SegmentSpec, ...] = ()
    routers: Tuple[RouterConfig, ...] = ()

    def __post_init__(self) -> None:
        segments = tuple(
            s if isinstance(s, SegmentSpec) else SegmentSpec(**dict(s))
            for s in self.segments
        )
        routers = tuple(
            r if isinstance(r, RouterConfig) else RouterConfig(**dict(r))
            for r in self.routers
        )
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "routers", routers)
        if not segments:
            if routers:
                raise ValueError("routers need a segments list")
            check_ring_shape(self.n_nodes, self.n_switches, self.fiber_m)
            return
        if len(segments) > MAX_SEGMENT + 1:
            raise ValueError(
                f"segments: {len(segments)} given, at most "
                f"{MAX_SEGMENT + 1} are addressable (4-bit segment field)"
            )
        # Cycles are allowed (that is what router redundancy *is*); the
        # spanning-tree election blocks the surplus ports at run time.
        members = [seg.n_nodes for seg in segments]
        for router in routers:
            for seg in router.segments:
                if not 0 <= seg < len(segments):
                    raise ValueError(
                        f"router references segment {seg}; topology has "
                        f"segments 0..{len(segments) - 1}"
                    )
                members[seg] += 1
        for si, total in enumerate(members):
            if total > BROADCAST:
                raise ValueError(
                    f"segment {si}: n_nodes={segments[si].n_nodes} user "
                    f"nodes plus {total - segments[si].n_nodes} gateway(s) "
                    f"exceed the {BROADCAST}-member ring ceiling"
                )

    # ------------------------------------------------------- mesh builders
    @classmethod
    def _mesh(cls, layout, segment, router) -> "TopologySpec":
        """Stamp ``segment`` and ``router``-keyword routers over a
        :func:`mesh_layout`."""
        n_segments, rows = layout
        return cls(
            segments=(segment,) * n_segments,
            routers=tuple(RouterConfig(**row, **router) for row in rows),
        )

    @classmethod
    def star_mesh(
        cls,
        n_segments: int,
        nodes_per_segment: int,
        *,
        redundancy: int = 0,
        **router: Any,
    ) -> "TopologySpec":
        """Hub-and-spoke: one central router attached to every segment
        (plus ``redundancy`` priority-240 standbys).

        Every cross-segment hop is a single crossing and no
        distance-vector convergence is needed — which is what lets this
        shape scale to the 3.8k-node addressing ceiling (15 segments x
        254 users plus one gateway each fills every ring to exactly 255
        members).  ``router`` keywords (``advertise_period_tours=``,
        ``miss_deadline_periods=``, ...) go into every
        :class:`RouterConfig` stamped.
        """
        return cls._mesh(
            mesh_layout(1, n_segments, standbys=redundancy, labelled=False),
            SegmentSpec(nodes_per_segment), router,
        )

    @classmethod
    def area_mesh(
        cls,
        n_areas: int,
        segments_per_area: int,
        nodes_per_segment: int,
        *,
        redundant_spokes: bool = False,
        n_switches: int = 2,
        **router: Any,
    ) -> "TopologySpec":
        """Hierarchical mesh: a hub star per area, areas stitched into a
        border-router cycle, summaries carrying the inter-area routes
        (see :func:`mesh_layout`).  ``redundant_spokes`` adds a standby
        hub per area; ``router`` keywords as in :meth:`star_mesh`."""
        return cls._mesh(
            mesh_layout(n_areas, segments_per_area,
                        standbys=int(redundant_spokes)),
            SegmentSpec(nodes_per_segment, n_switches), router,
        )

    @property
    def multi_segment(self) -> bool:
        return bool(self.segments)

    def check_address(
        self,
        what: str,
        addr: Union[int, GlobalAddress],
        broadcast_ok: bool = False,
    ) -> None:
        """Raise unless ``addr`` has this topology's address form — a
        plain node id on a single segment, a ``(segment, node)`` pair
        naming an existing segment on a routed shape — and names one of
        that ring's user nodes (gateways are the routers' own endpoints)
        or, where ``broadcast_ok``, ``BROADCAST``."""
        ring: Union[TopologySpec, SegmentSpec] = self
        node = addr
        if not self.multi_segment:
            if isinstance(addr, tuple):
                raise ValueError(
                    f"single-segment topologies use plain node ids; "
                    f"got {what}={addr!r}"
                )
        elif not isinstance(addr, tuple):
            raise ValueError(
                f"multi-segment topologies address nodes as "
                f"(segment, node); got {what}={addr!r}"
            )
        elif not 0 <= addr[0] < len(self.segments):
            raise ValueError(
                f"{what} names segment {addr[0]}; topology has "
                f"segments 0..{len(self.segments) - 1}"
            )
        else:
            ring, node = self.segments[addr[0]], addr[1]
        if not (0 <= node < ring.n_nodes
                or (broadcast_ok and node == BROADCAST)):
            raise ValueError(
                f"{what}={addr!r} names node {node}; the ring has user "
                f"nodes 0..{ring.n_nodes - 1}"
            )


class RoutedCluster:
    """Builds and runs a router-joined multi-segment cluster."""

    def __init__(
        self,
        topology: TopologySpec,
        *,
        seed: int = 0,
        trace: bool = True,
        membership: bool = False,
        membership_liveness: bool = False,
    ):
        if not topology.multi_segment:
            raise ValueError(
                "a routed cluster needs a segments list (a single-segment "
                "TopologySpec describes an AmpNetCluster)"
            )
        self.sim = Simulator(seed=seed)
        self.tracer = Tracer(enabled=trace)
        self.convergence = ConvergenceTracker(self.tracer)
        self.segments: List[AmpNetCluster] = []
        self.routers: List[SegmentRouter] = []
        self.nodes: Dict[GlobalAddress, "AmpNode"] = {}  # noqa: F821

        # Gateways take the node ids after a segment's user nodes, in
        # router-index order; what is left in ``members`` is each ring's
        # full size.
        members = [seg.n_nodes for seg in topology.segments]
        gateway_ids: List[Dict[int, int]] = []
        for router_cfg in topology.routers:
            ids = {}
            for seg in router_cfg.segments:
                ids[seg] = members[seg]
                members[seg] += 1
            gateway_ids.append(ids)

        for si, seg in enumerate(topology.segments):
            sub = AmpNetCluster(
                members[si], seg.n_switches, seg.fiber_m,
                membership=membership,
                membership_liveness=membership_liveness,
                sim=self.sim,
                tracer=self.tracer,
                convergence=self.convergence,
            )
            self.segments.append(sub)
            for nid, node in sub.nodes.items():
                node.messenger.segment_id = si
                node.mac.segment_id = si
                self.nodes[(si, nid)] = node
            self._label_segment(si, sub)

        for ri, router_cfg in enumerate(topology.routers):
            router = SegmentRouter(ri, router_cfg)
            for seg in router_cfg.segments:
                router.attach(seg, self.segments[seg], gateway_ids[ri][seg])
            self.routers.append(router)

    def _label_segment(self, si: int, sub: AmpNetCluster) -> None:
        """Prefix trace source names so segments stay tellable apart.

        Names are read at record time, so renaming after construction
        re-labels every future trace record; nothing else keys on them.
        Gossip random streams are re-pointed at segment-namespaced
        names for the same reason with higher stakes: on a shared
        simulator, equal node ids in different segments would otherwise
        share one ``membership-<id>`` generator, coupling the segments'
        gossip randomness (safe here — nothing draws before ``start``).
        """
        for nid, node in sub.nodes.items():
            node.name = f"s{si}.node-{nid}"
            node.mac.name = f"s{si}.mac-{nid}"
            node.agent.name = f"s{si}.roster-{nid}"
            node.messenger.name = f"s{si}.msgr-{nid}"
            if node.membership is not None:
                node.membership.name = f"s{si}.member-{nid}"
                node.membership.rng = self.sim.rng.stream(
                    f"s{si}.membership-{nid}"
                )
        for sw in sub.topology.switches:
            sw.name = f"s{si}.switch-{sw.switch_id}"

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Boot every segment, then bring the routers online."""
        for sub in self.segments:
            sub.start()
        for router in self.routers:
            router.start()

    def run(self, until=None):
        return self.sim.run(until=until)

    def run_until_ring_up(self) -> int:
        """Advance until every segment's ring is operational; returns now."""
        tour = self.tour_estimate_ns
        return self.sim.run_until(
            self.all_rings_up,
            max(200 * tour, 20_000_000),
            step_ns=max(tour // 4, 1_000),
            what="some segment's ring did not come up",
        )

    # -------------------------------------------------------------- faults
    def crash_router(self, router_index: int) -> None:
        """Power-fail a router: its state dies with it, and every
        gateway node it holds goes dark (each segment re-rosters).

        A redundant router's blocked ports detect the silence — missed
        advertisement deadline — and the spanning tree re-converges
        around the corpse.
        """
        router = self.routers[router_index]
        router.crash()
        for seg_id, port in router.ports.items():
            self.segments[seg_id].crash_node(port.gateway.node_id)

    def recover_router(self, router_index: int) -> None:
        """Power the router back on: gateways rejoin their rings, and
        the router re-enters the election with cold state."""
        router = self.routers[router_index]
        for seg_id, port in router.ports.items():
            self.segments[seg_id].recover_node(port.gateway.node_id)
        router.recover()

    # --------------------------------------------------- spanning-tree view
    def live_routers(self) -> List[SegmentRouter]:
        return [r for r in self.routers if not r.failed]

    def designated_router(self, segment_id: int) -> Optional[int]:
        """The live router currently designated to forward on a segment
        (None while the election is unsettled or nothing is attached)."""
        claimants = [
            r.router_id
            for r in self.live_routers()
            if segment_id in r.ports
            and r.ports[segment_id].designated
            and r.ports[segment_id].role is PortRole.FORWARDING
        ]
        return claimants[0] if len(claimants) == 1 else None

    def spanning_tree_converged(self) -> bool:
        """True when every live router agrees on its *component's* root
        and every attached segment has exactly one designated live
        router — the failover benchmark's convergence predicate.

        Roots are judged per connected component: a forest of disjoint
        router islands (legal to build) converges when each island has
        settled on its own best bridge, not on one global minimum no
        island can see across the gap.
        """
        live = self.live_routers()
        if not live:
            return True
        # Union segments through each live router's ports to find the
        # connected components of the (possibly disjoint) graph.
        parent = list(range(len(self.segments)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for router in live:
            segs = sorted(router.ports)
            for seg in segs[1:]:
                parent[find(seg)] = find(segs[0])
        component_root: Dict[int, Tuple[int, int]] = {}
        for router in live:
            comp = find(min(router.ports))
            best = component_root.get(comp)
            if best is None or router.bid < best:
                component_root[comp] = router.bid
        for router in live:
            if router.root != component_root[find(min(router.ports))]:
                return False
        for seg_id in range(len(self.segments)):
            if any(seg_id in r.ports for r in live):
                if self.designated_router(seg_id) is None:
                    return False
        return True

    # ------------------------------------------------------------- queries
    @property
    def tour_estimate_ns(self) -> int:
        """Largest per-segment tour estimate (scenario time base)."""
        return max(sub.tour_estimate_ns for sub in self.segments)

    def segment(self, segment_id: int) -> AmpNetCluster:
        return self.segments[segment_id]

    def all_rings_up(self) -> bool:
        return all(sub.all_rings_up() for sub in self.segments)

    def live_nodes(self):
        return [n for n in self.nodes.values() if not n.failed]

    def roster_mismatch(self, expected_live: Set[GlobalAddress]) -> str:
        """"" when every segment's roster matches its expected members."""
        problems = []
        for si, sub in enumerate(self.segments):
            roster = sub.current_roster()
            members = set(roster.members) if roster is not None else set()
            expected = {nid for seg, nid in expected_live if seg == si}
            if members != expected:
                problems.append(
                    f"segment {si}: roster {sorted(members)} != "
                    f"expected {sorted(expected)}"
                )
        return "; ".join(problems)

    def ring_drop_count(self) -> int:
        """Every segment's ring drops plus what the routers lost."""
        return (
            sum(sub.ring_drop_count() for sub in self.segments)
            + self.router_drop_count()
        )

    def router_drop_count(self) -> int:
        """Messages lost inside the routing layer (overflow, unroutable,
        addressed to a gateway)."""
        return sum(
            r.counters["egress_overflow_drop"] + r.counters["unroutable_drop"]
            + r.counters["gateway_addressed_drop"]
            for r in self.routers
        )

    def router_counter_totals(self) -> Dict[str, int]:
        """Every router counter summed across the cluster, plus the two
        residency gauges the accounting identities need (what is still
        *held* in shadow buffers and the dead-letter channels).  Key
        order is sorted, so the dict is replay-comparable."""
        totals: Dict[str, int] = {}
        for router in self.routers:
            for key, value in router.counters.items():
                totals[key] = totals.get(key, 0) + value
        totals["dead_letter_resident"] = sum(
            len(r.dead_letter) for r in self.routers
        )
        totals["shadow_resident"] = sum(len(r.shadow) for r in self.routers)
        return dict(sorted(totals.items()))

    # ---------------------------------------------------------- membership
    def membership_converged(self, dead=frozenset()) -> bool:
        """Every segment's gossip views match that segment's ground truth."""
        dead = set(dead)
        for si, sub in enumerate(self.segments):
            seg_dead = {nid for seg, nid in dead if seg == si}
            if not sub.membership_converged(dead=seg_dead):
                return False
        return True

    def membership_overhead(self) -> Dict[str, float]:
        return gossip_overhead(self.live_nodes())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = "x".join(str(len(s.nodes)) for s in self.segments)
        return f"<RoutedCluster {sizes} routers={len(self.routers)}>"
