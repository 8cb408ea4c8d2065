"""Cluster-level metric extraction used by benches and tests."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import AmpNetCluster

__all__ = [
    "total_mac_counter",
    "ring_drop_count",
]


def total_mac_counter(cluster: "AmpNetCluster", name: str) -> int:
    """Sum one MAC counter over every node."""
    return sum(node.mac.counters[name] for node in cluster.nodes.values())


def ring_drop_count(cluster: "AmpNetCluster") -> int:
    """Frames dropped anywhere in the ring data plane.

    The no-drop claim covers the operating ring: transit overflows and
    switch misroutes.  (Frames in flight during a failure are not drops —
    they are retransmitted by the messenger and counted separately.)

    Each cluster flavour counts its own: a
    :class:`~repro.routing.RoutedCluster` sums its segments and adds
    messages the routing layer lost (egress overflow, unroutable).
    """
    return cluster.ring_drop_count()
