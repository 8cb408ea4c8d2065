"""Reliable messaging and signalling over the ring MAC.

The :class:`Messenger` turns the ring's tour-as-ack primitive into
reliable, fragmenting message delivery (plus single-cell INTERRUPT
signals) on sixteen channels; on router-joined clusters it also resolves
``(segment, node)`` :data:`GlobalAddress` destinations (see
:mod:`repro.routing`).
"""

from .messaging import (
    Channel, GlobalAddress, MessageHandle, Messenger, TransferTable,
)

__all__ = [
    "Channel", "GlobalAddress", "MessageHandle", "Messenger", "TransferTable",
]
