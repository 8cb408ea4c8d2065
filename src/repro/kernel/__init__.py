"""AmpDK: the distributed kernel (heartbeats, certification, assimilation,
control groups) — slides 17-19."""

from .ampdk import AmpDK, CERTIFY_CHANNEL, HEARTBEAT_CHANNEL, heartbeat_schedule
from .assimilation import AssimilationTracker
from .control_group import ControlGroup, ControlGroupConfig, GroupApp

__all__ = [
    "AmpDK",
    "AssimilationTracker",
    "CERTIFY_CHANNEL",
    "ControlGroup",
    "ControlGroupConfig",
    "GroupApp",
    "HEARTBEAT_CHANNEL",
    "heartbeat_schedule",
]
