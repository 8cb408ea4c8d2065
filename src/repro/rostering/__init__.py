"""Rostering: failure detection, flooding exploration, roster computation.

The self-healing heart of AmpNet (slides 13-16).
"""

from .agent import AgentState, RosterAgent
from .roster import Roster, RosterError, compute_roster
from .wire import (
    CommitAssembler,
    PAD,
    Phase,
    RosterMessage,
    decode,
    encode_commit_chunks,
    encode_explore,
    encode_join,
    encode_report,
    flood_key,
)

__all__ = [
    "AgentState",
    "CommitAssembler",
    "PAD",
    "Phase",
    "Roster",
    "RosterAgent",
    "RosterError",
    "RosterMessage",
    "compute_roster",
    "decode",
    "encode_commit_chunks",
    "encode_explore",
    "encode_join",
    "encode_report",
    "flood_key",
]
