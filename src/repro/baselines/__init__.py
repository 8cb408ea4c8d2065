"""Baseline comparators: conventional switched LAN, timeout-based
failover, and a token-ring MAC ablation."""

from .ethernet import EthConfig, EthFrame, EthNode, EthernetFabric
from .tcp_failover import FailoverReport, TcpFailoverPair
from .token_ring import TokenRing, TokenRingConfig

__all__ = [
    "EthConfig",
    "EthFrame",
    "EthNode",
    "EthernetFabric",
    "FailoverReport",
    "TcpFailoverPair",
    "TokenRing",
    "TokenRingConfig",
]
