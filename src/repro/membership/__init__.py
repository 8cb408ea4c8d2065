"""Gossip-based membership & SWIM-style failure detection.

Decentralized liveness for AmpNet: every node runs a
:class:`GossipProtocol` that pushes its :class:`PeerView` digest to a few
random partners each period and direct-probes one peer SWIM-style.
Verdicts (ALIVE → SUSPECT → DEAD, guarded by incarnation numbers) spread
epidemically in O(log N) periods with no coordinator — the scalable
alternative to waiting for the centralized rostering flood to notice.

Enable per cluster (there is nothing to tune: the period and the
detector windows follow from the ring's size and tour time, see
:func:`gossip_timing`)::

    from repro import AmpNetCluster

    cluster = AmpNetCluster(n_nodes=16, n_switches=2, membership=True)

On router-joined clusters (:mod:`repro.routing`) gossip stays
per-segment, but each verdict also fires the gateway's
``transition_listeners`` — an observation hook segment routers tap to
audit gossip crossing their ports; the liveness they advertise is read
from the gateway's :class:`PeerView` when each advertisement is built.

See :mod:`repro.membership.state` for the merge semilattice and
``examples/gossip_membership.py`` for the full tour.
"""

from .gossip import GossipProtocol, gossip_timing
from .state import PeerState, PeerStatus, PeerView, merge_states, state_key
from .wire import decode_digest, encode_digest

__all__ = [
    "GossipProtocol",
    "PeerState",
    "PeerStatus",
    "PeerView",
    "decode_digest",
    "encode_digest",
    "gossip_timing",
    "merge_states",
    "state_key",
]
