"""Content-popularity request streams: stationary Zipf and trace replay.

The caching story needs skewed demand: real content workloads
concentrate most requests on a small head of the catalog, classically
modelled as a Zipf law — the rank-``k`` content drawing probability
proportional to ``1 / (k + 1) ** alpha``.  :class:`ZipfStream` samples
content ids from exactly that law, seeded through the same
named-``sim.rng``-stream discipline as :mod:`repro.workloads.stochastic`
(the draw stream is ``workload.<name>``, so two streams never perturb
each other and every run replays bit-identically under the master
seed).  :class:`TraceReplayStream` replays a recorded ``(time_ns,
content_id)`` trace instead — request instants and content ids exactly
as logged, with **no** randomness at all: it is seed-*invariant* by
design, which its property suite pins.

Both are *request/response* streams speaking the content protocol of
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
from typing import Callable, List, Optional, Sequence, Tuple, TYPE_CHECKING, Union

from ..caching.wire import OP_RESPONSE, decode, encode_request, request_key
from ..caching.config import DEFAULT_CONTENT_CHANNEL
from .generators import MessageStream

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import AmpNetCluster

__all__ = [
    "ContentStream",
    "TraceReplayStream",
    "ZipfStream",
    "load_trace",
    "zipf_sampler",
    "zipf_weights",
]

#: ``(time_ns, content_id)`` pairs, or a path to a whitespace-separated
#: two-column trace file (``#`` comments and blank lines ignored).
Trace = Union[str, Sequence[Tuple[int, int]]]

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


def load_trace(path: str) -> List[Tuple[int, int]]:
    """Parse a two-column ``time_ns content_id`` trace file."""
    records: List[Tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            fields = body.split()
            if len(fields) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 'time_ns content_id', "
                    f"got {body!r}"
                )
            records.append((int(fields[0]), int(fields[1])))
    return records


class ContentStream(MessageStream):
    """Base request/response stream over the content protocol.

    Each offered packet is a REQUEST frame for the content id that
    :meth:`_content_for` picks; the response handler lives on the
    **source** node (responses travel back to the requester), so unlike
    the base class this stream never claims a channel on ``dst`` — the
    destination's handler is the cache/origin service itself.  Streams
    are always reliable (messenger-carried): content frames exceed one
    ring cell and must survive ring churn for ``all_delivered`` to mean
    anything.
    """

    def __init__(
        self,
        cluster: "AmpNetCluster",
        src,
        dst,
        interval_ns: int,
        count: int,
        channel: int = DEFAULT_CONTENT_CHANNEL,
        name: Optional[str] = None,
    ):
        if src == dst:
            raise ValueError("content streams need src != dst "
                             "(the destination runs the content service)")
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
    def _content_for(self, seq: int) -> int:
        raise NotImplementedError

    def _payload_for(self, seq: int) -> bytes:
        content_id = self._content_for(seq)
        self.content_ids.append(content_id)
        return encode_request(seq, content_id, pad_to=_REQUEST_BYTES)


class ZipfStream(ContentStream):
    """Stationary-Zipf content requests at a constant offered rate.

    Arrival instants are deterministic (every ``interval_ns``); only the
    *content id* of each request is random, drawn from the
    ``workload.<name>`` rng stream, so the skew knob ``alpha`` and the
    ``catalog_size`` fully determine the popularity law: ``alpha = 0``
    is uniform demand, larger ``alpha`` concentrates requests on the
    head of the catalog (and drives cache hit ratio up — the C1 bench's
    x-axis).
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
        self.alpha = alpha
        self.catalog_size = catalog_size
        name = name or f"zipf-{src}->{dst}.ch{channel}"
        self._rng = cluster.sim.rng.stream(f"workload.{name}")
        self._draw = zipf_sampler(self._rng, alpha, catalog_size)
        super().__init__(
            cluster, src, dst, interval_ns=interval_ns, count=count,
            channel=channel, name=name,
        )

    def _content_for(self, seq: int) -> int:
        return self._draw()


class TraceReplayStream(ContentStream):
    """Replay a recorded ``(time_ns, content_id)`` request trace.

    Times are offsets from the stream's start instant and must be
    non-decreasing; both the request instants and the content sequence
    are honoured exactly, and nothing is drawn from any rng — two runs
    under *different* seeds offer the identical request sequence (only
    delivery timing may differ through the transport).  The trace sets
    the request count; a caller that declares one (``count=``) has it
    checked against the trace length.
    """

    def __init__(
        self,
        cluster: "AmpNetCluster",
        src,
        dst,
        trace: Trace,
        channel: int = DEFAULT_CONTENT_CHANNEL,
        name: Optional[str] = None,
        count: Optional[int] = None,
    ):
        if isinstance(trace, str):
            trace = load_trace(trace)
        records = [(int(t), int(cid)) for t, cid in trace]
        if not records:
            raise ValueError("trace replay needs at least one record")
        if count is not None and count != len(records):
            raise ValueError(
                f"trace replay {name!r} declares count={count} but its "
                f"trace has {len(records)} records"
            )
        for i, (t, cid) in enumerate(records):
            if t < 0 or cid < 0:
                raise ValueError(
                    f"trace record {i}: time and content id must be >= 0"
                )
            if i and t < records[i - 1][0]:
                raise ValueError(
                    f"trace record {i}: times must be non-decreasing"
                )
        self.trace = records
        name = name or f"trace-{src}->{dst}.ch{channel}"
        super().__init__(
            cluster, src, dst, interval_ns=0, count=len(records),
            channel=channel, name=name,
        )

    def _content_for(self, seq: int) -> int:
        return self.trace[seq][1]

    def _gap_ns(self, seq: int) -> int:
        if seq + 1 >= len(self.trace):
            return 0
        return self.trace[seq + 1][0] - self.trace[seq][0]

    def _first_ns(self) -> int:
        # The first record's offset; the gaps cover the rest.
        return self.trace[0][0]
