"""Routing advertisement wire format: pure ``encode``/``decode``.

One advertisement is a spanning-tree header plus reachability rows.
Two layouts share ``Channel.ROUTING``:

* **v2 (flat)** — header, then one row per reachable segment::

      router_id priority root_id root_priority root_cost
      period:u16le root_age:u16le n_entries
      n_entries x (segment metric n_live [live ids...])

  ``n_live == 0xFF`` marks an elided live list ("assume the whole
  segment live"); encoders elide any list past :data:`LIVE_LIST_CAP`, so
  ad bytes never scale with ring size.
* **v3 (summarized)** — the escape byte ``0xFF`` (router ids stop at
  0xFE, so it cannot collide with a v2 header), the same header, the
  sender's area, the flat rows, then ``n_summaries`` rows of
  ``area lo hi metric period:u16le``.

Times travel in :data:`AGE_UNIT_NS` units, saturating at ``u16``:
periods round *up* (a refresh cadence must never be under-reported),
ages round *down*.  Metrics and costs saturate at one byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, NamedTuple, Optional, Tuple

__all__ = [
    "AGE_UNIT_NS",
    "LIVE_LIST_CAP",
    "AdDecodeError",
    "Advertisement",
    "Entry",
    "SummaryRow",
    "decode",
    "encode",
]

#: Wire resolution of period / root-age fields (u16 each -> 655 ms range
#: at 10 us per unit, far past any advertise period).
AGE_UNIT_NS = 10_000

#: Largest per-node live list a row carries verbatim.
LIVE_LIST_CAP = 16

_LIVE_ELIDED = 0xFF
_V3_ESCAPE = 0xFF
_U16 = 0xFFFF


class AdDecodeError(ValueError):
    """The payload is not exactly one well-formed advertisement."""


class Entry(NamedTuple):
    """One reachable segment; ``live`` None = elided ("assume all")."""

    segment: int
    metric: int
    live: Optional[AbstractSet[int]]


class SummaryRow(NamedTuple):
    """One area compressed to a segment range, with the worst refresh
    cadence along its relay path."""

    area: int
    lo: int
    hi: int
    metric: int
    period_ns: int


@dataclass(frozen=True)
class Advertisement:
    router_id: int
    priority: int
    #: the root bridge id ``(priority, router_id)`` the sender claims
    root: Tuple[int, int]
    root_cost: int
    #: the sender's own advertise period
    period_ns: int
    root_age_ns: int
    entries: Tuple[Entry, ...] = ()
    version: int = 2
    area: int = 0
    summaries: Tuple[SummaryRow, ...] = ()

    def __post_init__(self) -> None:
        if self.version not in (2, 3):
            raise ValueError(f"unknown ad version {self.version}")
        if self.version == 2 and (self.area or self.summaries):
            raise ValueError("a v2 ad carries no area and no summaries")


def _period_units(period_ns: int) -> int:
    return min(_U16, -(-period_ns // AGE_UNIT_NS))


def encode(ad: Advertisement) -> bytes:
    v3 = ad.version == 3
    out = bytearray()
    if v3:
        out.append(_V3_ESCAPE)
    root_priority, root_id = ad.root
    out += bytes([
        ad.router_id, ad.priority, root_id, root_priority,
        min(ad.root_cost, 0xFF),
    ])
    out += _period_units(ad.period_ns).to_bytes(2, "little")
    out += min(_U16, ad.root_age_ns // AGE_UNIT_NS).to_bytes(2, "little")
    if v3:
        out.append(ad.area)
    out.append(len(ad.entries))
    for segment, metric, live in ad.entries:
        out += bytes([segment, min(metric, 0xFF)])
        if live is None or len(live) > LIVE_LIST_CAP:
            out.append(_LIVE_ELIDED)
        else:
            out.append(len(live))
            out += bytes(sorted(live))
    if v3:
        out.append(len(ad.summaries))
        for area, lo, hi, metric, period_ns in ad.summaries:
            out += bytes([area, lo, hi, min(metric, 0xFF)])
            out += _period_units(period_ns).to_bytes(2, "little")
    return bytes(out)


def decode(payload: bytes) -> Advertisement:
    """Parse exactly one advertisement (either layout).

    Raises :class:`AdDecodeError` — and nothing else — when the payload
    is truncated, a count overruns it, or bytes trail the last row.
    """
    v3 = payload[:1] == bytes([_V3_ESCAPE])
    pos = 1 if v3 else 0

    def take(n: int) -> bytes:
        nonlocal pos
        chunk = payload[pos:pos + n]
        if len(chunk) != n:
            raise AdDecodeError(
                f"truncated: need {n} bytes at offset {pos}, "
                f"payload is {len(payload)}"
            )
        pos += n
        return chunk

    def take_ns() -> int:
        return int.from_bytes(take(2), "little") * AGE_UNIT_NS

    router_id, priority, root_id, root_priority, root_cost = take(5)
    period_ns = take_ns()
    root_age_ns = take_ns()
    area = take(1)[0] if v3 else 0
    entries = []
    for _ in range(take(1)[0]):
        segment, metric, n_live = take(3)
        live = None if n_live == _LIVE_ELIDED else frozenset(take(n_live))
        entries.append(Entry(segment, metric, live))
    summaries = []
    if v3:
        for _ in range(take(1)[0]):
            s_area, lo, hi, metric = take(4)
            summaries.append(SummaryRow(s_area, lo, hi, metric, take_ns()))
    if pos != len(payload):
        raise AdDecodeError(
            f"{len(payload) - pos} trailing bytes after the last row"
        )
    return Advertisement(
        router_id=router_id, priority=priority,
        root=(root_priority, root_id), root_cost=root_cost,
        period_ns=period_ns, root_age_ns=root_age_ns,
        entries=tuple(entries), version=3 if v3 else 2, area=area,
        summaries=tuple(summaries),
    )
