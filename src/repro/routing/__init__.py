"""Router-joined multi-ring clusters: scaling past the 255-node ceiling.

A single AmpNet segment tops out at 255 addressable nodes — the 8-bit
MicroPacket address space, with id 255 reserved for broadcast (scenario
``large_ring_256`` pins that ceiling).  Slide 15 of the paper scales
further by joining independently-rostered segments through a router.
This package is that architecture step:

* :class:`SegmentRouter` — a store-and-forward bridge holding one port
  (a gateway node) per attached segment.  Each segment keeps its own
  8-bit MAC space, ring MAC and rostering master; the router captures
  frames whose global address names another segment, reassembles them,
  and re-originates them on the next ring.  Egress is governed by
  bounded per-segment queues whose backpressure reuses
  :class:`repro.ring.flow_control.InsertionController`.
* :class:`TopologySpec` / :class:`SegmentSpec` / :class:`RouterConfig`
  — the one description of a cluster's shape: rings of at most 255
  members joined by routers.  A shape that cannot run does not
  construct.
* :class:`RoutedCluster` — the multi-segment counterpart of
  :class:`repro.cluster.AmpNetCluster`: the topology's segments on one
  simulator and one tracer, joined by its routers, addressed by
  ``(segment, node)`` :data:`~repro.transport.GlobalAddress` pairs::

      cluster = RoutedCluster(TopologySpec.star_mesh(2, 128), seed=7)

The wire-level global address rides in reserved bits of the MicroPacket
DMA control block (see :class:`repro.micropacket.DmaControl`); routers
learn their forwarding tables from membership/roster liveness crossing
the router as periodic route advertisements on ``Channel.ROUTING`` —
and *age* them: a route that stops being refreshed is withdrawn.

Router graphs may be cyclic: redundant routers joining the same
segments run a spanning-tree election over the same advertisements
(deterministic ``(priority, router_id)`` bridge ids), blocking surplus
ports while they keep listening.  A dead router's silence past the miss
deadline re-converges the tree, the backup's shadow-parked crossings
are promoted, and origin-keyed duplicate suppression in the messenger
makes the failover exactly-once.  See ``docs/architecture.md`` for the
layer diagram and the failover walk-through.
"""

from ..caching import CacheConfig
from ..resilience import ResilienceConfig
from .cluster import RoutedCluster, SegmentSpec, TopologySpec, mesh_layout
from .router import PortRole, RouterConfig, SegmentRouter

__all__ = [
    "CacheConfig",
    "PortRole",
    "ResilienceConfig",
    "RoutedCluster",
    "RouterConfig",
    "SegmentRouter",
    "SegmentSpec",
    "TopologySpec",
    "mesh_layout",
]
