"""Availability timelines: human-readable event histories from traces.

Operators of a high-availability system live and die by "what happened,
in order".  This module folds a cluster's trace into a single annotated
timeline of availability-relevant events — faults, rostering triggers,
roster installs, certifications, cache refreshes, control-group
takeovers — with per-event deltas, which is how the examples and the
EXPERIMENTS narrative show a failover at a glance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, TYPE_CHECKING

from .report import fmt_ns

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import AmpNetCluster

__all__ = ["TimelineEvent", "availability_timeline", "render_timeline"]

#: trace categories that matter to an availability story, with labels
_CATEGORIES = {
    "fault": "FAULT",
    "roster_trigger": "DETECT",
    "ring_down": "RING DOWN",
    "roster_commit": "COMMIT",
    "roster_installed": "RING UP",
    "ring_certified": "CERTIFIED",
    "cache_refreshed": "REFRESH",
    "cg_primary": "TAKEOVER",
    "membership": "MEMBER",
}


@dataclass(frozen=True)
class TimelineEvent:
    time: int
    label: str
    source: str
    detail: str


def _detail(category: str, data: dict) -> str:
    if category == "fault":
        target = data.get("target")
        switch = data.get("switch")
        if data.get("group") is not None:
            where = (
                f"nodes {list(data['group'])} keep switches "
                f"{list(data.get('switch_group') or ())}"
            )
        elif switch is None:
            where = f"node {target}"
        else:
            where = f"node {target}/sw {switch}"
        return f"{data.get('kind')} ({where})"
    if category == "roster_trigger":
        return str(data.get("reason", ""))
    if category == "roster_installed":
        return (
            f"round {data.get('round')}, {data.get('size')} members, "
            f"{fmt_ns(data.get('elapsed_ns', 0))} after trigger"
        )
    if category == "roster_commit":
        return f"round {data.get('round')}: members {list(data.get('members', ()))}"
    if category == "ring_certified":
        return f"round {data.get('round')}"
    if category == "cache_refreshed":
        return (
            f"{data.get('records')} records ({data.get('bytes')} B) "
            f"from node {data.get('provider')}"
        )
    if category == "cg_primary":
        verb = "promoted" if data.get("promoted") else "initial primary"
        return f"group {data.get('group')}: {verb}"
    if category == "ring_down":
        return str(data.get("reason", ""))
    if category == "membership":
        return (
            f"peer {data.get('peer')} -> {data.get('status')} "
            f"(inc {data.get('incarnation')}, {data.get('why', '')})"
        )
    return ""  # pragma: no cover


def availability_timeline(
    cluster: "AmpNetCluster", since: int = 0
) -> List[TimelineEvent]:
    """Extract the ordered availability events from the cluster trace.

    Only the first RING UP / COMMIT per round is kept (every node
    records one; the timeline wants the moment, not the chorus).
    """
    events: List[TimelineEvent] = []
    seen_rounds = {"roster_installed": set(), "roster_commit": set(),
                   "ring_certified": set(), "ring_down": set()}
    for record in cluster.tracer.records:
        if record.time < since or record.category not in _CATEGORIES:
            continue
        if record.category in seen_rounds:
            key = record.data.get("round", record.data.get("reason"))
            if key in seen_rounds[record.category]:
                continue
            seen_rounds[record.category].add(key)
        events.append(
            TimelineEvent(
                time=record.time,
                label=_CATEGORIES[record.category],
                source=record.source,
                detail=_detail(record.category, record.data),
            )
        )
    events.sort(key=lambda e: e.time)
    return events


def render_timeline(
    events: List[TimelineEvent], title: str = "Availability timeline"
) -> str:
    """Fixed-width rendering with absolute times and inter-event deltas."""
    lines = [title, "=" * len(title)]
    prev: Optional[int] = None
    for ev in events:
        delta = "" if prev is None else f"(+{fmt_ns(ev.time - prev)})"
        lines.append(
            f"{fmt_ns(ev.time):>12}  {delta:>12}  {ev.label:<10} "
            f"{ev.source:<12} {ev.detail}"
        )
        prev = ev.time
    if not events:
        lines.append("(no availability events)")
    return "\n".join(lines)
