"""Metric extraction and text table/series rendering."""

from .metrics import ring_drop_count, total_mac_counter
from .report import fmt_ns, render_table
from .timeline import TimelineEvent, availability_timeline, render_timeline

__all__ = [
    "TimelineEvent",
    "availability_timeline",
    "fmt_ns",
    "render_table",
    "render_timeline",
    "ring_drop_count",
    "total_mac_counter",
]
