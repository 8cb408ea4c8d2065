"""The forwarding table: learned specifics, area summaries, lookup.

Distance vector with split horizon.  *Specific* routes name one remote
segment (with the live node ids last advertised behind it) and are
installed only from same-area senders; every other area is one
*summary* — a ``lo..hi`` segment range — so the table is O(own area +
areas), not O(segments).  Every entry remembers the refresh cadence it
must be aged against: a route its advertiser's period, a summary the
worst period along its relay path as carried on the wire (a slow origin
area must not flap, and must not stretch the expiry of a fast peer's
specifics).

Mutators return the :class:`Change` list they caused, in order; the
router owns counters and trace records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet, Any, Callable, Collection, Dict, List, NamedTuple, Optional,
    Tuple,
)

from .ads import Advertisement, Entry, SummaryRow

__all__ = ["NOT_OURS", "Change", "Route", "RouteTable", "Summary"]

#: :meth:`RouteTable.egress_for` verdict: the route points back out the
#: ingress port, so another router on that ring serves the crossing.
#: Declining is normal operation, not a loss.
NOT_OURS = -1


@dataclass
class Route:
    """A learned (not directly attached) destination segment."""

    via: int          # port segment id the advertisement arrived on
    metric: int       # hops to the destination segment
    router: int       # advertising router id (freshness tie-break)
    last_heard: int = 0
    period_ns: int = 0
    #: live node ids behind the segment as last advertised; None = the
    #: advertiser elided the list ("assume all live")
    live: Optional[AbstractSet[int]] = frozenset()


@dataclass
class Summary:
    """A learned per-area segment-range route (v3 ads)."""

    area: int
    lo: int
    hi: int
    metric: int       # hops to the area's border router
    via: int
    router: int
    last_heard: int = 0
    period_ns: int = 0

    def covers(self, segment: int) -> bool:
        return self.lo <= segment <= self.hi


class Change(NamedTuple):
    """One table mutation: ``kind`` route|summary, ``what`` learned|
    widened|withdrawn|expired, ``fields`` the trace payload."""

    kind: str
    what: str
    fields: Dict[str, Any]


class RouteTable:
    def __init__(self, attached: Collection[int], area: int = 0):
        #: directly attached segments: implicit metric-0 routes
        self.attached = frozenset(attached)
        self.area = area
        self.routes: Dict[int, Route] = {}
        #: area -> summary; empty in single-area mode
        self.summaries: Dict[int, Summary] = {}

    def clear(self) -> None:
        self.routes.clear()
        self.summaries.clear()

    # -------------------------------------------------------------- lookup
    def egress_for(self, ingress: int, dst_segment: int) -> Optional[int]:
        """Next-hop port (segment id) for ``dst_segment``; :data:`NOT_OURS`
        when the route points back out ``ingress``; None when no route
        exists.  Attached beats specific beats summary, so an in-range
        but locally-known segment is never detoured."""
        if dst_segment in self.attached:
            return dst_segment if dst_segment != ingress else NOT_OURS
        route = self.routes.get(dst_segment)
        if route is not None:
            return route.via if route.via != ingress else NOT_OURS
        # Summary ranges may overlap (a border router's own-area summary
        # spans its foreign ports too), so the best-metric summary can
        # point back out the ingress while a worse one offers a real
        # detour: take the best *forwardable* one, and decline only when
        # every covering summary points back where the frame came from.
        covering = [
            s for s in self.summaries.values() if s.covers(dst_segment)
        ]
        forwardable = [s for s in covering if s.via != ingress]
        if forwardable:
            return min(forwardable, key=lambda s: s.metric).via
        return NOT_OURS if covering else None

    # ------------------------------------------------------------ learning
    def learn(self, ad: Advertisement, ingress: int, now: int) -> List[Change]:
        """Fold one advertisement heard on port ``ingress`` into the
        table (the caller gates on the port forwarding: a blocked port
        must not learn routes it cannot carry)."""
        changes: List[Change] = []
        # Specifics are intra-area only: an out-of-area sender's rows
        # are covered by its summary.
        entries = ad.entries if ad.area == self.area else ()
        for seg, metric, live in entries:
            if seg in self.attached:
                continue  # directly attached beats any advertisement
            cost = metric + 1
            route = self.routes.get(seg)
            # New, strictly better, or a refresh from the router we
            # already route through (whose metric may move either way).
            if (route is None or cost < route.metric
                    or (route.via, route.router) == (ingress, ad.router_id)):
                self.routes[seg] = Route(ingress, cost, ad.router_id, now,
                                         ad.period_ns, live)
                if route is None:
                    changes.append(Change("route", "learned", dict(
                        segment=seg, via=ingress, metric=cost)))
        for area, lo, hi, metric, period_ns in ad.summaries:
            if area == self.area:
                continue  # we hold this area's specifics ourselves
            cost = metric + 1
            fresh = Summary(area, lo, hi, cost, ingress, ad.router_id, now,
                            period_ns)
            held = self.summaries.get(area)
            if held is None or cost < held.metric:
                self.summaries[area] = fresh
                if held is None:
                    changes.append(Change("summary", "learned", dict(
                        area=area, lo=lo, hi=hi, via=ingress, metric=cost)))
            elif held.via == ingress and cost == held.metric:
                # Same ring, same cost: same-area peers advertise
                # complementary ranges (each omits its blocked ports and
                # the segment it advertises onto), and the one keyed
                # slot must cover their union or the capture contest on
                # this ring parks traffic into the gap.  Bounds only
                # shrink by expiry or withdrawal.
                if lo < held.lo or hi > held.hi:
                    changes.append(Change("summary", "widened", dict(
                        area=area, lo=lo, hi=hi)))
                held.lo = min(held.lo, lo)
                held.hi = max(held.hi, hi)
                held.last_heard = now
                held.period_ns = max(held.period_ns, period_ns)
            elif held.router == ad.router_id and held.via == ingress:
                # The path we already use got worse: track the advertiser.
                self.summaries[area] = fresh
        return changes

    # ---------------------------------------------------------- forgetting
    def withdraw_via(
        self, segment: int, router: Optional[int] = None
    ) -> List[Change]:
        """Drop everything learned out port ``segment`` (optionally only
        what one router advertised)."""
        return self._drop(
            "withdrawn",
            lambda e: e.via == segment
            and (router is None or e.router == router),
        )

    def expire(
        self, now: int, period_ns: int, miss_deadline_periods: int
    ) -> List[Change]:
        """Drop entries not refreshed within the miss deadline, each
        judged on the slower of our cadence and its own."""
        return self._drop(
            "expired",
            lambda e: now - e.last_heard
            > miss_deadline_periods * max(period_ns, e.period_ns),
        )

    def _drop(self, what: str, doomed: Callable[[Any], bool]) -> List[Change]:
        changes: List[Change] = []
        for kind, key_name, entries in (
            ("route", "segment", self.routes),
            ("summary", "area", self.summaries),
        ):
            for key in [k for k, e in entries.items() if doomed(e)]:
                via = entries.pop(key).via
                changes.append(Change(kind, what, {key_name: key, "via": via}))
        return changes

    # --------------------------------------------------------- advertising
    def advertised(
        self,
        out_segment: int,
        forwarding: Collection[int],
        period_ns: int,
        summarize: bool,
    ) -> Tuple[List[Entry], List[SummaryRow]]:
        """Learned rows worth advertising onto ``out_segment`` given the
        attached segments whose ports are ``forwarding``.

        Split horizon (never echo a row back where it was learned) and
        only what a forwarding port could actually carry.  With
        ``summarize``, additionally the own-area summary — the range of
        everything reachable by specifics from ``out_segment``'s point
        of view, excluding it and anything behind a blocked port, so a
        border whose only path into its area is tree-blocked never
        advertises an attractive dead range — and the foreign summaries
        relayed onward with the worse of their cadence and ours.
        """
        def carried(entry: Any) -> bool:
            return entry.via != out_segment and entry.via in forwarding

        entries = [
            Entry(seg, route.metric, route.live)
            for seg, route in self.routes.items() if carried(route)
        ]
        summaries: List[SummaryRow] = []
        if summarize:
            covered = {seg for seg in forwarding if seg != out_segment}
            covered.update(entry.segment for entry in entries)
            if covered:
                summaries.append(SummaryRow(
                    self.area, min(covered), max(covered), 0, period_ns))
            summaries.extend(
                SummaryRow(s.area, s.lo, s.hi, s.metric,
                           max(s.period_ns, period_ns))
                for s in self.summaries.values() if carried(s)
            )
        return entries, summaries
