"""repro — full-system reproduction of AmpNet (Apon & Wilbur, IPPS 2003).

AmpNet is a highly available cluster interconnection network: a gigabit
register-insertion ring over Fibre Channel physics, with a replicated
*network cache* at every node, a flooding *rostering* algorithm that
rebuilds the largest possible logical ring within two ring-tour times of
any failure, and millisecond application failover with no data loss.

Quick start::

    from repro import AmpNetCluster

    cluster = AmpNetCluster(n_nodes=6, n_switches=4)
    cluster.start()
    cluster.run_until_ring_up()

Membership & failure detection
------------------------------

Two liveness mechanisms coexist, answering different questions:

* **Roster-driven** (always on): the rostering flood plus the AmpDK
  heartbeat backstop decide *who is on the ring right now*.  It is
  authoritative for the data plane, but every failure costs a global,
  coordinated re-roster.
* **Gossip-driven** (``AmpNetCluster(membership=True)``): every node
  runs a :mod:`repro.membership` endpoint — periodic digest push to a
  few random partners plus a SWIM direct probe, with
  ALIVE -> SUSPECT -> DEAD verdicts guarded by incarnation numbers.
  O(fanout) messages per node per period, O(log N) periods to converge,
  no coordinator; it expresses states rostering cannot (suspected,
  partitioned-but-alive, rejoined under a fresh incarnation).

Use the roster for "can I send to X now", gossip for scalable health
knowledge (churn experiments, partition detection, placement).  With
``membership_liveness=True`` the roster consumes gossip verdicts and
will not re-admit a node the epidemic layer has declared dead.  See
``examples/README.md`` for the full guidance and
``benchmarks/bench_f10_gossip_convergence.py`` for the numbers.

Scaling past 255 nodes
----------------------

One ring tops out at 255 addressable nodes (8-bit MicroPacket address
space; id 255 is broadcast).  :mod:`repro.routing` joins several rings
through segment routers into one cluster addressed by
``(segment, node)`` pairs::

    from repro import RoutedCluster, RouterConfig, SegmentSpec, TopologySpec

    cluster = RoutedCluster(TopologySpec(
        segments=[SegmentSpec(n_nodes=128)] * 2,
        routers=[RouterConfig(segments=(0, 1))],
    ))

See ``docs/architecture.md`` for the module map and layer diagrams.
"""

from .cluster import AmpNetCluster
from .membership import GossipProtocol
from .node import AmpNode
from .routing import (
    RoutedCluster,
    RouterConfig,
    SegmentRouter,
    SegmentSpec,
    TopologySpec,
)

__version__ = "1.2.0"

__all__ = [
    "AmpNetCluster",
    "AmpNode",
    "GossipProtocol",
    "RoutedCluster",
    "RouterConfig",
    "SegmentRouter",
    "SegmentSpec",
    "TopologySpec",
    "__version__",
]
