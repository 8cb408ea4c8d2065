"""Wire format of the content protocol.

Every frame on the content channel is ``op (1) | seq (8 LE) | content
id (8 LE) | body``, where ``seq`` is the requester's (or the cache's,
for origin fetches) private sequence number — responses are matched to
requests by it, never by source address, because with on-path caching a
request may be answered by a gateway router the client never addressed.

The sixteen-byte ``seq``/``content id`` pair is deliberately wider than
any realistic run needs: a fixed-width header keeps encode/decode
branch-free and the request frame a single ring cell.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

__all__ = [
    "OP_REQUEST",
    "OP_RESPONSE",
    "OP_WRITE",
    "OP_WRITE_ACK",
    "HEADER_BYTES",
    "ContentFrame",
    "encode_request",
    "encode_response",
    "encode_write",
    "encode_write_ack",
    "decode",
    "request_key",
]

#: a client (or a cache fetching through to the origin) wants content
OP_REQUEST = 1
#: content body coming back; ``seq`` echoes the request's
OP_RESPONSE = 2
#: a client updates content; body is the new value
OP_WRITE = 3
#: write accepted (by the cache for write-behind, before the flush)
OP_WRITE_ACK = 4

_OPS = (OP_REQUEST, OP_RESPONSE, OP_WRITE, OP_WRITE_ACK)

#: op byte + 8-byte seq + 8-byte content id
HEADER_BYTES = 17


class ContentFrame(NamedTuple):
    """One decoded content-protocol frame."""

    op: int
    seq: int
    content_id: int
    body: bytes


def _frame(op: int, seq: int, content_id: int, body: bytes = b"") -> bytes:
    return (
        bytes([op])
        + seq.to_bytes(8, "little")
        + content_id.to_bytes(8, "little")
        + body
    )


def encode_request(seq: int, content_id: int, pad_to: int = 0) -> bytes:
    """A REQUEST frame, padded out to ``pad_to`` bytes (deterministic
    filler) so benches can model request sizes above the bare header."""
    frame = _frame(OP_REQUEST, seq, content_id)
    if pad_to > len(frame):
        frame += bytes((content_id + i) % 256 for i in range(pad_to - len(frame)))
    return frame


def encode_response(seq: int, content_id: int, body: bytes) -> bytes:
    return _frame(OP_RESPONSE, seq, content_id, body)


def encode_write(seq: int, content_id: int, body: bytes) -> bytes:
    return _frame(OP_WRITE, seq, content_id, body)


def encode_write_ack(seq: int, content_id: int) -> bytes:
    return _frame(OP_WRITE_ACK, seq, content_id)


def decode(payload: bytes) -> Optional[ContentFrame]:
    """Parse a frame; None when it is not content protocol (short frame
    or unknown op) — services simply ignore such traffic."""
    if len(payload) < HEADER_BYTES:
        return None
    op = payload[0]
    if op not in _OPS:
        return None
    return ContentFrame(
        op=op,
        seq=int.from_bytes(payload[1:9], "little"),
        content_id=int.from_bytes(payload[9:17], "little"),
        body=payload[HEADER_BYTES:],
    )


def request_key(seq: int) -> bytes:
    """First eight bytes of the REQUEST frame carrying ``seq`` — the key
    :class:`~repro.workloads.popularity.ZipfStream` latency tracking
    shares with the base stream's ``_sent_at`` map."""
    return bytes([OP_REQUEST]) + seq.to_bytes(8, "little")[:7]
