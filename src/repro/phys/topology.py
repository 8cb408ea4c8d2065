"""Redundant physical topologies (slides 14-15).

AmpNet's availability comes from wiring every node to *every* switch of a
segment: a dual-redundant segment has two switches, the quad-redundant
segment of slide 14 has four.  Any single switch that survives can carry a
full logical ring; the rostering algorithm picks the best surviving
configuration (possibly threading through several switches when no single
switch reaches every node).

The builders here create the ports, switches and fibres, and expose fault
handles plus a *ground-truth* connectivity view that the tests use to
check what rostering discovers against what is physically true.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..sim import Simulator, Tracer
from .constants import (
    NODE_TRANSIT_NS,
    SWITCH_LATENCY_NS,
    propagation_ns,
    serialization_ns,
)
from ..micropacket import BROADCAST, frame_wire_bits, FIXED_WIRE_BYTES
from .frame import IDLE_GAP_SYMBOLS
from .link import Fiber
from .port import Port
from .switch import Switch

__all__ = [
    "PhysicalTopology",
    "build_switched",
    "check_ring_shape",
    "ring_tour_estimate_ns",
]


@dataclass
class PhysicalTopology:
    """A set of nodes fully wired to a set of switches.

    ``node_ports[i][k]`` is node *i*'s port on switch *k*; the matching
    fibre is ``fibers[(i, k)]``.  Node objects themselves live a layer up
    (:mod:`repro.node`); the topology only knows attachment points.
    """

    sim: Simulator
    n_nodes: int
    n_switches: int
    fiber_m: float
    switches: List[Switch] = field(default_factory=list)
    node_ports: Dict[int, List[Port]] = field(default_factory=dict)
    fibers: Dict[Tuple[int, int], Fiber] = field(default_factory=dict)
    #: per-node "the node is dark" bookkeeping for node power faults
    _dark_nodes: Set[int] = field(default_factory=set)

    # ------------------------------------------------------------- queries
    @property
    def node_ids(self) -> List[int]:
        return list(range(self.n_nodes))

    def ports_of(self, node_id: int) -> List[Port]:
        return self.node_ports[node_id]

    def live_attachment(self) -> Dict[int, Set[int]]:
        """Ground truth: switch id -> set of node ids with a live fibre.

        A switch that failed contributes an empty set.  Used by tests and
        the F6 survivability bench as the oracle against which rostering's
        discovered roster is checked.
        """
        out: Dict[int, Set[int]] = {}
        for sw in self.switches:
            members: Set[int] = set()
            if not sw.failed:
                for node in self.node_ids:
                    if node in self._dark_nodes:
                        continue
                    if self.fibers[(node, sw.switch_id)].is_up:
                        members.add(node)
            out[sw.switch_id] = members
        return out

    # -------------------------------------------------------------- faults
    def cut_link(self, node_id: int, switch_id: int) -> None:
        self.fibers[(node_id, switch_id)].cut()

    def restore_link(self, node_id: int, switch_id: int) -> None:
        self.fibers[(node_id, switch_id)].restore()

    def fail_switch(self, switch_id: int) -> None:
        self.switches[switch_id].fail()

    def repair_switch(self, switch_id: int) -> None:
        self.switches[switch_id].repair()

    def node_dark(self, node_id: int) -> None:
        """Node powered off: all its transceivers stop lasing."""
        if node_id in self._dark_nodes:
            return
        self._dark_nodes.add(node_id)
        for k in range(self.n_switches):
            self.fibers[(node_id, k)].endpoint_dark()

    def node_lit(self, node_id: int) -> None:
        if node_id not in self._dark_nodes:
            return
        self._dark_nodes.discard(node_id)
        for k in range(self.n_switches):
            self.fibers[(node_id, k)].endpoint_lit()


def check_ring_shape(n_nodes: int, n_switches: int, fiber_m: float) -> None:
    """Raise ``ValueError``, naming the field, unless one ring can have
    this shape.  Every class that declares a ring's shape calls this
    when it is constructed, and :func:`build_switched` when it wires
    one, so a shape that cannot run is refused where it is written."""
    if not 2 <= n_nodes <= BROADCAST:
        raise ValueError(
            f"n_nodes={n_nodes}: a ring has 2..{BROADCAST} members (8-bit "
            f"address, {BROADCAST} is broadcast); join rings with routers "
            "to go further"
        )
    if not 1 <= n_switches <= 4:
        raise ValueError(
            f"n_switches={n_switches}: AmpNet NICs have one to four ports "
            "(slide 15)"
        )
    if fiber_m < 0:
        raise ValueError(f"fiber_m={fiber_m}: a fibre has no negative length")


def build_switched(
    sim: Simulator,
    n_nodes: int,
    n_switches: int,
    fiber_m: float = 50.0,
    tracer: Optional[Tracer] = None,
) -> PhysicalTopology:
    """Wire ``n_nodes`` nodes to ``n_switches`` switches, full bipartite.

    Node *i*'s port *k* attaches to port *i* of switch *k* over a fibre of
    ``fiber_m`` metres — the wiring drawn on slide 14.
    """
    check_ring_shape(n_nodes, n_switches, fiber_m)
    topo = PhysicalTopology(sim, n_nodes, n_switches, fiber_m)
    topo.switches = [
        Switch(sim, k, n_ports=n_nodes, tracer=tracer)
        for k in range(n_switches)
    ]
    for i in range(n_nodes):
        ports = [Port(f"node-{i}.p{k}") for k in range(n_switches)]
        topo.node_ports[i] = ports
        for k, sw in enumerate(topo.switches):
            fiber = Fiber(sim, ports[k], sw.ports[i], fiber_m)
            topo.fibers[(i, k)] = fiber
            sw.attach_fiber(fiber)
    return topo


def ring_tour_estimate_ns(n_nodes: int, fiber_m: float) -> int:
    """Upper-bound estimate of one ring-tour time for a fixed cell.

    Each of the ``n_nodes`` hops costs: node transit logic + cell
    serialization + fibre to the switch + switch latency + fibre onward.
    The rostering protocol uses this as its report-collection window, so
    rostering completes in roughly *two* of these tours — the slide-16
    claim that bench F7 measures.
    """
    per_hop = (
        NODE_TRANSIT_NS
        + serialization_ns(frame_wire_bits(FIXED_WIRE_BYTES) + 10 * IDLE_GAP_SYMBOLS)
        + 2 * propagation_ns(fiber_m)
        + SWITCH_LATENCY_NS
    )
    return n_nodes * per_hop
