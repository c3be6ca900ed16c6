"""Plain-text rendering of experiment results (tables and timeline sparklines).

``repro figure`` and the examples print the reproduced rows next to the
paper's published values; these helpers keep that output readable without any
plotting dependency.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.metrics.timeline import LatencyPoint, RatePoint


def format_value(value: object) -> str:
    """Render one table cell."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def format_table(rows: Sequence[Dict[str, object]], columns: Optional[Sequence[str]] = None, title: str = "") -> str:
    """Render a list of dict rows as an aligned plain-text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(columns) if columns is not None else list(rows[0].keys())
    rendered = [[format_value(row.get(col)) for col in columns] for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render a sequence of values as a unicode sparkline of at most ``width`` chars."""
    if not values:
        return ""
    blocks = "▁▂▃▄▅▆▇█"
    if len(values) > width:
        # Downsample by averaging consecutive chunks.
        chunk = len(values) / width
        values = [
            sum(values[int(i * chunk): max(int(i * chunk) + 1, int((i + 1) * chunk))])
            / max(1, len(values[int(i * chunk): max(int(i * chunk) + 1, int((i + 1) * chunk))]))
            for i in range(width)
        ]
    low = min(values)
    high = max(values)
    span = high - low or 1.0
    return "".join(blocks[min(len(blocks) - 1, int((v - low) / span * (len(blocks) - 1)))] for v in values)


def format_rate_series(name: str, points: Sequence[RatePoint], width: int = 60) -> str:
    """Render a throughput timeline as a labelled sparkline with its range."""
    if not points:
        return f"{name}: (no data)"
    rates = [p.rate for p in points]
    return (
        f"{name:18s} [{points[0].time:7.1f}s .. {points[-1].time:7.1f}s] "
        f"min={min(rates):5.1f} max={max(rates):5.1f} ev/s  {sparkline(rates, width)}"
    )


def format_latency_series(name: str, points: Sequence[LatencyPoint], width: int = 60) -> str:
    """Render a latency timeline as a labelled sparkline with its range."""
    if not points:
        return f"{name}: (no data)"
    values = [p.latency_s * 1000.0 for p in points]
    return (
        f"{name:18s} [{points[0].time:7.1f}s .. {points[-1].time:7.1f}s] "
        f"min={min(values):6.0f} max={max(values):6.0f} ms  {sparkline(values, width)}"
    )
