"""Unified telemetry layer: metrics registry, span tracer, trace exporters.

A trace is read from a finished run by one reader, :meth:`Telemetry.from_run`
(a single fleet, or the tenants of a shared one): nothing here is called
while a simulation runs, and the engine hot paths pay nothing beyond the
plain integer tallies they always kept.
"""

from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .telemetry import Telemetry
from .trace import TRACE_SCHEMA, Span, SpanTracer
from .export import (
    canonical_trace_text,
    chrome_trace,
    summarize,
    trace_lines,
    validate_trace_jsonl,
    write_chrome_trace,
    write_trace_jsonl,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Telemetry",
    "TRACE_SCHEMA",
    "Span",
    "SpanTracer",
    "canonical_trace_text",
    "chrome_trace",
    "summarize",
    "trace_lines",
    "validate_trace_jsonl",
    "write_chrome_trace",
    "write_trace_jsonl",
]
