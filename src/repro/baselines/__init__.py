"""Baseline comparators: conventional switched LAN, timeout-based
failover, and a token-ring MAC ablation."""

from .ethernet import EthFrame, EthNode, EthernetFabric
from .tcp_failover import FailoverReport, TcpFailoverPair
from .token_ring import TokenRing

__all__ = [
    "EthFrame",
    "EthNode",
    "EthernetFabric",
    "FailoverReport",
    "TcpFailoverPair",
    "TokenRing",
]
