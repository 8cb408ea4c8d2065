"""Content-popularity request streams: stationary Zipf demand.

The caching story needs skewed demand: real content workloads
concentrate most requests on a small head of the catalog, classically
modelled as a Zipf law — the rank-``k`` content drawing probability
proportional to ``1 / (k + 1) ** alpha``.  :class:`ZipfStream` samples
content ids from exactly that law, seeded through the same
named-``sim.rng``-stream discipline as :mod:`repro.workloads.stochastic`
(the draw stream is ``workload.<name>``, so two streams never perturb
each other and every run replays bit-identically under the master
seed).

It is a *request/response* stream speaking the content protocol of
:mod:`repro.caching`: a request carries a sequence number and a content
id, and ``delivered`` counts the matching RESPONSE arriving back at the
**requester** — not the request reaching its destination — because with
caching in the path the responder may be a segment cache or a gateway
router rather than the addressed origin.  ``all_delivered`` therefore
reads "every request was answered", whoever answered it, and the
latency statistic is the full request -> response round trip.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Callable, List, Optional, TYPE_CHECKING

from ..caching.wire import OP_RESPONSE, decode, encode_request, request_key
from ..caching.config import DEFAULT_CONTENT_CHANNEL
from .generators import MessageStream

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import AmpNetCluster

__all__ = ["ZipfStream", "zipf_sampler", "zipf_weights"]

#: every REQUEST frame is padded out to this many bytes
_REQUEST_BYTES = 24


def zipf_weights(alpha: float, catalog_size: int) -> List[float]:
    """Normalised Zipf probabilities over ranks ``0..catalog_size-1``:
    rank ``k`` gets weight proportional to ``1 / (k + 1) ** alpha``."""
    if alpha < 0:
        raise ValueError("zipf alpha must be >= 0")
    if catalog_size < 1:
        raise ValueError("catalog_size must be >= 1")
    raw = [1.0 / (k + 1) ** alpha for k in range(catalog_size)]
    total = sum(raw)
    return [w / total for w in raw]


def zipf_sampler(rng, alpha: float, catalog_size: int) -> Callable[[], int]:
    """A draw function returning Zipf-distributed ranks from ``rng`` by
    inverse-CDF lookup (binary search over cumulative weights) — one
    uniform draw per sample, so replay identity only depends on the rng
    stream, never on the catalog layout in memory."""
    cumulative = list(accumulate(zipf_weights(alpha, catalog_size)))
    cumulative[-1] = 1.0  # seal float round-off; random() < 1.0 always lands
    top = catalog_size - 1

    def draw() -> int:
        return min(top, bisect_right(cumulative, rng.random()))

    return draw


class ZipfStream(MessageStream):
    """Stationary-Zipf content requests at a constant offered rate.

    Arrival instants are deterministic (every ``interval_ns``); only the
    *content id* of each request is random, drawn from the
    ``workload.<name>`` rng stream, so the skew knob ``alpha`` and the
    ``catalog_size`` fully determine the popularity law: ``alpha = 0``
    is uniform demand, larger ``alpha`` concentrates requests on the
    head of the catalog (and drives cache hit ratio up — the C1 bench's
    x-axis).

    Each offered packet is a REQUEST frame for the drawn id.  The
    response handler lives on the **source** node (responses travel
    back to the requester), so unlike the base class this stream never
    claims a channel on ``dst`` — the destination's handler is the
    cache/origin service itself.  The stream is always reliable
    (messenger-carried): content frames exceed one ring cell and must
    survive ring churn for ``all_delivered`` to mean anything.
    """

    def __init__(
        self,
        cluster: "AmpNetCluster",
        src,
        dst,
        interval_ns: int,
        count: int,
        alpha: float = 0.9,
        catalog_size: int = 64,
        channel: int = DEFAULT_CONTENT_CHANNEL,
        name: Optional[str] = None,
    ):
        if src == dst:
            raise ValueError("content streams need src != dst "
                             "(the destination runs the content service)")
        self.alpha = alpha
        self.catalog_size = catalog_size
        name = name or f"zipf-{src}->{dst}.ch{channel}"
        self._rng = cluster.sim.rng.stream(f"workload.{name}")
        self._draw = zipf_sampler(self._rng, alpha, catalog_size)
        #: content id of every offered request, in offer order (the
        #: property suite asserts replay identity on this)
        self.content_ids: List[int] = []
        super().__init__(
            cluster, src, dst, interval_ns=interval_ns, count=count,
            channel=channel, name=name, reliable=True,
        )

    # ------------------------------------------------------------ receive
    def _install_rx(self) -> None:
        # Responses come back to the requester: listen on src, not dst.
        self.cluster.nodes[self.src].messenger.on_message(
            self.channel, self._rx_response
        )

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.cluster.nodes[self.src].messenger.off_message(self.channel)

    def _rx_response(self, src, payload: bytes, channel: int) -> None:
        frame = decode(payload)
        if frame is None or frame.op != OP_RESPONSE:
            return
        start = self._sent_at.pop(request_key(frame.seq), None)
        if start is None:
            # Unknown or already-answered seq (duplicate response after a
            # retransmit race) — exactly-once accounting ignores it.
            return
        self.stats.delivered += 1
        self.stats.bytes_delivered += len(payload)
        self.stats.latency.add(self.cluster.sim.now - start)

    # ----------------------------------------------------------- transmit
    def _payload_for(self, seq: int) -> bytes:
        content_id = self._draw()
        self.content_ids.append(content_id)
        return encode_request(seq, content_id, pad_to=_REQUEST_BYTES)
