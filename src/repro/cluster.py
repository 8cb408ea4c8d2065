"""AmpNetCluster: the high-level facade assembling the whole system.

A cluster owns the simulator, the redundant physical topology, every
:class:`~repro.node.AmpNode` with its network-resident stack, and the
fault injection handles.  Most examples and every benchmark start here::

    from repro import AmpNetCluster

    cluster = AmpNetCluster(n_nodes=6, n_switches=4, fiber_m=50.0)
    cluster.start()
    cluster.run_until_ring_up()

Host software (slides 11-12: AmpDC, AmpFiles, AmpIP, AmpSubscribe,
AmpThreads, MPI endpoints, control groups, workload generators) sits
above the network and attaches itself to a built node —
``AmpFiles(cluster.nodes[2])`` — so the cluster builds none of it.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence

from .netcache import (
    CacheReplicator,
    NetworkCache,
    RefreshService,
    RegionSpec,
    SemaphoreService,
)
from .kernel import (
    AmpDK,
    AssimilationTracker,
    ControlGroup,
    ControlGroupConfig,
    heartbeat_schedule,
)
from .membership import GossipProtocol, gossip_timing
from .node import AmpNode
from .phys import (
    PhysicalTopology,
    build_switched,
    ring_tour_estimate_ns,
)
from .ring import FlowControlConfig
from .rostering import Roster
from .sim import ConvergenceTracker, SimulationError, Simulator, Tracer
from .transport import Messenger

__all__ = ["AmpNetCluster", "gossip_overhead"]


def gossip_overhead(nodes: Iterable[AmpNode]) -> Dict[str, float]:
    """Gossip message/byte counters summed over ``nodes`` (those that
    run the protocol), and the messages each of them sent on average."""
    live = [n for n in nodes if n.membership is not None]
    totals = {"gossip_tx": 0, "gossip_bytes_tx": 0, "pings_tx": 0, "acks_tx": 0}
    for node in live:
        for key in totals:
            totals[key] += node.membership.counters[key]
    out: Dict[str, float] = dict(totals)
    out["per_node_msgs"] = (
        (totals["gossip_tx"] + totals["pings_tx"] + totals["acks_tx"]) / len(live)
        if live else 0.0
    )
    return out


class AmpNetCluster:
    """Builds and runs a complete AmpNet segment."""

    #: a single ring has no segment routers (the routed flavour is
    #: :class:`repro.routing.RoutedCluster`)
    routers = ()

    def __init__(
        self,
        n_nodes: int = 6,
        n_switches: int = 4,
        fiber_m: float = 50.0,
        seed: int = 0,
        *,
        trace: bool = True,
        flow: Optional[FlowControlConfig] = None,
        regions: Sequence[RegionSpec] = (),
        membership: bool = False,
        membership_liveness: bool = False,
        sim: Optional[Simulator] = None,
        tracer: Optional[Tracer] = None,
        convergence: Optional[ConvergenceTracker] = None,
    ):
        """A ring of ``n_nodes`` nodes on ``n_switches`` switches over
        ``fiber_m``-metre fibres (slide 14's defaults).

        ``flow`` is every node's insertion flow control; ``regions`` are
        the cache regions every node defines at power-on (beyond the
        built-ins).  ``membership`` runs the gossip membership / SWIM
        failure detector on every node (see :mod:`repro.membership`);
        ``membership_liveness`` lets rostering consume its verdicts — a
        master will not admit a node its view has declared DEAD.
        """
        if membership_liveness and not membership:
            raise ValueError("membership_liveness requires membership=True")
        # Segments joined by a router (slide 15) share one simulator —
        # and one tracer with its one convergence tracker, so a routed
        # cluster's timeline digests cover every segment in one stream
        # (see repro.routing.RoutedCluster).
        self.sim = sim if sim is not None else Simulator(seed=seed)
        self.tracer = tracer if tracer is not None else Tracer(enabled=trace)
        #: convergence metrics over membership trace records (it only
        #: sees records when membership is on)
        self.convergence = convergence or ConvergenceTracker(self.tracer)
        self.topology: PhysicalTopology = build_switched(
            self.sim, n_nodes, n_switches, fiber_m, tracer=self.tracer,
        )
        self.tour_estimate_ns = ring_tour_estimate_ns(n_nodes, fiber_m)
        self.regions = tuple(regions)
        self.membership = membership
        self.membership_liveness = membership_liveness

        self.nodes: Dict[int, AmpNode] = {}
        self.kernels: Dict[int, AmpDK] = {}
        self.control_groups: Dict[str, Dict[int, ControlGroup]] = {}
        # Every timing below follows from the ring the nodes find
        # themselves on: gossip periods and heartbeat cadence scale with
        # ring capacity (see gossip_timing / heartbeat_schedule), and the
        # rostering report window is one tour estimate.
        self._membership_cfg = gossip_timing(n_nodes, self.tour_estimate_ns)
        schedule = heartbeat_schedule(n_nodes, self.tour_estimate_ns)
        for node_id in self.topology.node_ids:
            node = AmpNode(
                self.sim, node_id, self.topology.ports_of(node_id),
                flow=flow, report_window_ns=self.tour_estimate_ns,
                tracer=self.tracer,
            )
            node.agent.switch_configurator = self._configure_switches
            self.nodes[node_id] = node
            self.kernels[node_id] = AmpDK(node, schedule)
            self._build_stack(node)

    def _build_stack(self, node: AmpNode) -> None:
        """Attach the network-resident stack to a node: messenger, cache
        replica with its replicator/refresh/semaphores, assimilation
        tracker and (when configured) gossip.

        Each member registers its own power-failure wipe with the node
        (``crash_listeners``), in this construction order — the fresh
        cache replica first, so later members re-attach to it.
        """
        node.messenger = Messenger(node)
        self._cold_replica(node)
        node.crash_listeners.append(partial(self._cold_replica, node))
        node.replicator = CacheReplicator(node)
        node.refresh = RefreshService(node)
        node.sems = SemaphoreService(node)
        node.assimilation = AssimilationTracker(node)
        if self.membership:
            node.membership = GossipProtocol(node, self._membership_cfg)
            if self.membership_liveness:
                node.agent.liveness_filter = node.membership.considers_live
        # First boot: every replica is identically empty, hence warm.
        node.refresh.warm = True

    def _cold_replica(self, node: AmpNode) -> None:
        """Give ``node`` an empty cache replica: at power-on, and again
        whenever a crash loses its NIC memory.  Always a fresh object —
        an update the DMA engine was mid-way through applying finishes
        on the dead replica, never in the new one."""
        node.cache = NetworkCache(self.sim, node.node_id)
        for spec in self.regions:
            node.cache.define_region(spec, announce=False)

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Boot every node (they self-organize into a ring)."""
        for node in self.nodes.values():
            node.boot()

    def run(self, until=None):
        return self.sim.run(until=until)

    def run_until_ring_up(self, beyond_round: Optional[int] = None) -> int:
        """Advance until every live node is ring-operational; returns now.

        ``beyond_round`` waits for a roster *newer* than the given round —
        use it after injecting a fault so the call does not return on the
        pre-fault ring that is still momentarily standing.

        Raises ``SimulationError`` if the horizon passes first.
        """
        # The horizon covers both slow-fibre topologies (many tours) and
        # the fixed millisecond heartbeat backstop that node-crash
        # detection rides on.
        return self.sim.run_until(
            lambda: self.all_rings_up(beyond_round=beyond_round),
            max(200 * self.tour_estimate_ns, 20_000_000),
            step_ns=max(self.tour_estimate_ns // 4, 1_000),
            what="ring did not come up",
        )

    def run_until_reroster(self) -> int:
        """Advance until a roster newer than the current one is installed."""
        current = self.current_roster()
        beyond = current.round_no if current is not None else None
        return self.run_until_ring_up(beyond_round=beyond)

    def all_rings_up(self, beyond_round: Optional[int] = None) -> bool:
        live = [n for n in self.nodes.values() if not n.failed]
        if not live:
            return False
        if not all(n.ring_up and n.roster is not None for n in live):
            return False
        rounds = {n.roster.round_no for n in live}
        if len(rounds) != 1:
            return False
        if beyond_round is not None and rounds == {beyond_round}:
            return False
        return True

    # -------------------------------------------------------- control plane
    def _configure_switches(
        self, maps: Dict[int, Dict[int, int]], roster: Roster
    ) -> None:
        """Install crossconnects for a new roster (master control path).

        Only switches the new ring actually uses are touched.  Resetting
        the others (as this used to do) let a partitioned segment's
        master wipe the *other* side's crossconnects every round — the
        two rings tore each other down forever.  A stale map on an
        unused switch is harmless: no roster hop sends into it, and the
        next ring that threads it reprograms it via its own ``maps``.
        """
        for sw_id, ring_map in maps.items():
            sw = self.topology.switches[sw_id]
            if sw.failed:
                continue
            sw.configure_ring(ring_map)
            sw.reset_flood_cache()

    # -------------------------------------------------------------- faults
    def crash_node(self, node_id: int) -> None:
        """Power-fail a node: software stops, NIC memory (and with it
        the local cache replica) is lost, lasers go dark."""
        self.nodes[node_id].crash()
        self.topology.node_dark(node_id)

    def recover_node(self, node_id: int) -> None:
        """Power the node back on and have it seek assimilation."""
        self.topology.node_lit(node_id)
        self.nodes[node_id].recover()

    def _cross_links(self, nodes, switches):
        """The ``(node, switch)`` fibres crossing a partition in which
        ``nodes`` keep only ``switches`` and everyone else keeps only
        the remaining switches — those of dark nodes included."""
        side_a = set(nodes)
        switches_a = set(switches)
        return [
            (node_id, sw)
            for node_id in self.nodes
            for sw in range(len(self.topology.switches))
            if (node_id in side_a) != (sw in switches_a)
        ]

    def partition(self, nodes, switches) -> None:
        """Split the segment: ``nodes`` keep only ``switches``; everyone
        else keeps only the remaining switches.  Both sides re-roster
        into their own smaller rings.

        Every cross-side fibre is cut, including those of dark nodes
        (cut is idempotent): a node that recovers mid-partition must
        wake up *inside* the partition, not straddling it.
        """
        for node_id, sw in self._cross_links(nodes, switches):
            self.topology.cut_link(node_id, sw)

    def heal_partition(self, nodes, switches) -> None:
        """Restore the fibres :meth:`partition` cut (same arguments).

        Crashed nodes get their fibres un-cut too: cut state and dark
        state are independent on a :class:`~repro.phys.link.Fiber`, so
        the fibre stays down until the node powers back on — but when it
        does, it must come back with its full redundancy, not with the
        partition's cuts silently still in place.
        """
        for node_id, sw in self._cross_links(nodes, switches):
            self.topology.restore_link(node_id, sw)

    # -------------------------------------------------------- applications
    def create_control_group(
        self,
        config: ControlGroupConfig,
        app_factory,
    ) -> Dict[int, ControlGroup]:
        """Instantiate a control group on every member node."""
        members: Dict[int, ControlGroup] = {}
        for node_id in config.members:
            members[node_id] = ControlGroup(self.nodes[node_id], config, app_factory)
        self.control_groups[config.name] = members
        return members

    def cut_link(self, node_id: int, switch_id: int) -> None:
        self.topology.cut_link(node_id, switch_id)

    def restore_link(self, node_id: int, switch_id: int) -> None:
        self.topology.restore_link(node_id, switch_id)

    def fail_switch(self, switch_id: int) -> None:
        self.topology.fail_switch(switch_id)

    def repair_switch(self, switch_id: int) -> None:
        self.topology.repair_switch(switch_id)

    # ------------------------------------------------------------- queries
    def current_roster(self) -> Optional[Roster]:
        for node in self.nodes.values():
            if not node.failed and node.roster is not None and node.ring_up:
                return node.roster
        return None

    def roster_mismatch(self, expected_live) -> str:
        """"" when the installed roster matches ``expected_live`` ids;
        otherwise a human-readable description of the difference."""
        roster = self.current_roster()
        members = set(roster.members) if roster is not None else set()
        expected = set(expected_live)
        if members == expected:
            return ""
        return f"roster {sorted(members)} != expected {sorted(expected)}"

    def live_nodes(self) -> List[AmpNode]:
        return [n for n in self.nodes.values() if not n.failed]

    def ring_drop_count(self) -> int:
        """Frames dropped in the ring data plane: transit overflows and
        switch misroutes (see :func:`repro.analysis.ring_drop_count`)."""
        return sum(
            node.mac.counters["transit_overflow_drop"]
            for node in self.nodes.values()
        ) + sum(
            sw.counters["no_route_drop"] for sw in self.topology.switches
        )

    def router_counter_totals(self) -> Dict[str, int]:
        """No routers, so no router counters."""
        return {}

    # ---------------------------------------------------------- membership
    def membership_converged(self, dead=frozenset()) -> bool:
        """True when every live node's gossip view matches reality: each
        node in ``dead`` is marked DEAD and no live node is."""
        if not self.membership:
            raise SimulationError("cluster built without membership=True")
        dead = set(dead)
        live = [n for n in self.live_nodes() if n.membership is not None]
        for node in live:
            view = node.membership.view
            for victim in dead:
                if victim == node.node_id:
                    continue
                if victim not in set(view.dead_ids()):
                    return False
            for other in live:
                if other.node_id != node.node_id and not view.considers_live(other.node_id):
                    return False
        return True

    def run_until_membership_converged(self, dead=frozenset()) -> int:
        """Advance until :meth:`membership_converged`; returns now.

        The horizon covers staleness + suspicion windows plus several
        dissemination periods.  Raises ``SimulationError`` on timeout.
        """
        cfg = self._membership_cfg
        return self.sim.run_until(
            lambda: self.membership_converged(dead),
            cfg.stale_after_ns + cfg.suspicion_window_ns + 40 * cfg.period_ns,
            step_ns=cfg.period_ns,
            what="membership did not converge",
        )

    def membership_overhead(self) -> Dict[str, float]:
        """Gossip message/byte counters across live nodes."""
        return gossip_overhead(self.live_nodes())
