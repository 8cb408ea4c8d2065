"""Physical layer: fibres, ports, switches, redundant topologies."""

from .constants import (
    CARRIER_DETECT_NS,
    LINE_RATE_BITS_PER_NS,
    NODE_TRANSIT_NS,
    PROPAGATION_NS_PER_M,
    SWITCH_LATENCY_NS,
    propagation_ns,
    serialization_ns,
)
from .frame import Frame, IDLE_GAP_SYMBOLS, frame_for
from .link import Fiber, SerialLink
from .port import Port
from .switch import Switch
from .topology import (
    PhysicalTopology,
    build_switched,
    check_ring_shape,
    ring_tour_estimate_ns,
)

__all__ = [
    "CARRIER_DETECT_NS",
    "Fiber",
    "Frame",
    "IDLE_GAP_SYMBOLS",
    "LINE_RATE_BITS_PER_NS",
    "NODE_TRANSIT_NS",
    "PROPAGATION_NS_PER_M",
    "PhysicalTopology",
    "Port",
    "SWITCH_LATENCY_NS",
    "SerialLink",
    "Switch",
    "build_switched",
    "check_ring_shape",
    "frame_for",
    "propagation_ns",
    "ring_tour_estimate_ns",
    "serialization_ns",
]
