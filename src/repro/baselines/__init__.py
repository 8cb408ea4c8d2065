"""Baseline comparators: conventional switched LAN, TCP-style transport,
timeout-based failover, and a token-ring MAC ablation."""

from .ethernet import EthConfig, EthFrame, EthNode, EthernetFabric
from .tcp import TcpConnection, TcpHost
from .tcp_failover import FailoverReport, TcpFailoverPair
from .token_ring import TokenRing, TokenRingConfig

__all__ = [
    "EthConfig",
    "EthFrame",
    "EthNode",
    "EthernetFabric",
    "FailoverReport",
    "TcpConnection",
    "TcpFailoverPair",
    "TcpHost",
    "TokenRing",
    "TokenRingConfig",
]
