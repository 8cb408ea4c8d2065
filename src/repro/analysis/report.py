"""Plain-text table/series rendering for the benchmark harness.

Every bench's ``results/<exp>.txt`` is its ``<exp>.json`` rendered
through these helpers (``benchmarks/harness.py``).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

__all__ = ["render_table", "fmt_ns"]


def render_table(
    title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Fixed-width table with a title rule, ready for stdout."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [title, "=" * len(title)]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def fmt_ns(ns: float) -> str:
    """Human-friendly time: ns / us / ms / s."""
    if ns != ns:  # NaN
        return "n/a"
    if ns < 1_000:
        return f"{ns:.0f} ns"
    if ns < 1_000_000:
        return f"{ns / 1_000:.1f} us"
    if ns < 1_000_000_000:
        return f"{ns / 1_000_000:.2f} ms"
    return f"{ns / 1_000_000_000:.2f} s"
