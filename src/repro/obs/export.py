"""Trace exporters: schema-versioned JSONL, Chrome trace-event JSON, text.

Three views of one :class:`~repro.obs.telemetry.Telemetry`:

* :func:`write_trace_jsonl` -- the machine-readable record (header line,
  then one line per span, then one line per metric).  Span lines carry the
  wall-clock stamps *in addition to* the canonical simulated-time content;
  :func:`canonical_trace_text` is the wall-clock-free rendering that the
  same-seed byte-identity tests compare.
* :func:`write_chrome_trace` -- Chrome trace-event JSON ("X" complete
  events over simulated microseconds) loadable in Perfetto / chrome://tracing.
* :func:`summarize` -- a terminal-friendly digest.

:func:`validate_trace_jsonl` is a hand-rolled structural validator (the
container has no jsonschema package) used by tests and the CI smoke job.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from .telemetry import Telemetry
from .trace import TRACE_SCHEMA

#: Span fields every JSONL span line must carry (validator contract).
_SPAN_FIELDS = ("span_id", "parent_id", "name", "category", "start_s", "end_s", "args")
_METRIC_KINDS = {"counter", "gauge", "histogram"}


def _dumps(record: Dict[str, object]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def trace_header(telemetry: Telemetry, **meta: object) -> Dict[str, object]:
    """The header record: schema version plus run metadata."""
    header: Dict[str, object] = {"type": "header", "schema": TRACE_SCHEMA}
    header.update(telemetry.meta)
    header.update(meta)
    return header


def trace_lines(telemetry: Telemetry, canonical: bool = False, **meta: object) -> List[str]:
    """All JSONL lines for a telemetry object, in deterministic order.

    With ``canonical=True`` wall-clock span stamps are dropped, which is the
    content covered by the same-seed byte-identity contract.
    """
    lines = [_dumps(trace_header(telemetry, **meta))]
    for span in telemetry.tracer.spans:
        record = span.canonical() if canonical else span.as_dict()
        lines.append(_dumps(record))
    for metric in telemetry.registry.snapshot():
        record = {"type": "metric"}
        record.update(metric)
        lines.append(_dumps(record))
    return lines


def canonical_trace_text(telemetry: Telemetry, **meta: object) -> str:
    """Wall-clock-free trace rendering; byte-identical across same-seed runs."""
    return "\n".join(trace_lines(telemetry, canonical=True, **meta)) + "\n"


def write_trace_jsonl(telemetry: Telemetry, path: str, **meta: object) -> str:
    """Write the schema-versioned JSONL trace; returns ``path``."""
    parent = os.path.dirname(str(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as handle:
        for line in trace_lines(telemetry, canonical=False, **meta):
            handle.write(line + "\n")
    return path


def validate_trace_jsonl(path: str) -> List[Dict[str, object]]:
    """Structurally validate a JSONL trace; returns the parsed records.

    Raises ``ValueError`` on the first violation: missing/odd header,
    malformed span (missing fields, dangling parent, end before start) or
    metric record, or an unknown record type.
    """
    with open(path) as handle:
        raw_lines = [line for line in handle.read().splitlines() if line]
    if not raw_lines:
        raise ValueError(f"{path}: empty trace")
    records = []
    for lineno, line in enumerate(raw_lines, start=1):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
    header = records[0]
    if header.get("type") != "header":
        raise ValueError(f"{path}: first record must be the header, got {header.get('type')!r}")
    if header.get("schema") != TRACE_SCHEMA:
        raise ValueError(f"{path}: schema {header.get('schema')!r} != {TRACE_SCHEMA!r}")
    span_ids = set()
    for lineno, record in enumerate(records[1:], start=2):
        kind = record.get("type")
        if kind == "span":
            for field in _SPAN_FIELDS:
                if field not in record:
                    raise ValueError(f"{path}:{lineno}: span missing {field!r}")
            if not isinstance(record["args"], dict):
                raise ValueError(f"{path}:{lineno}: span args must be an object")
            if record["end_s"] is not None and record["end_s"] < record["start_s"]:
                raise ValueError(f"{path}:{lineno}: span ends before it starts")
            parent = record["parent_id"]
            if parent is not None and parent not in span_ids:
                raise ValueError(f"{path}:{lineno}: dangling parent_id {parent}")
            span_ids.add(record["span_id"])
        elif kind == "metric":
            if record.get("kind") not in _METRIC_KINDS:
                raise ValueError(f"{path}:{lineno}: unknown metric kind {record.get('kind')!r}")
            for field in ("subsystem", "name", "labels"):
                if field not in record:
                    raise ValueError(f"{path}:{lineno}: metric missing {field!r}")
        elif kind == "header":
            raise ValueError(f"{path}:{lineno}: duplicate header")
        else:
            raise ValueError(f"{path}:{lineno}: unknown record type {kind!r}")
    return records


#: Stable thread-id assignment per span category in the Chrome export:
#: Perfetto renders one named track per tid.
_CATEGORY_TIDS = {
    "control": 1,
    "control.stage": 2,
    "migration": 3,
    "migration.phase": 4,
    "checkpoint": 5,
    "recovery": 6,
    "evacuation": 7,
    "chaos": 8,
    "arbiter": 9,
    "plan": 10,
}


def chrome_trace(telemetry: Telemetry, **meta: object) -> Dict[str, object]:
    """Chrome trace-event JSON: "X" complete events over simulated µs."""
    events: List[Dict[str, object]] = []
    next_tid = max(_CATEGORY_TIDS.values()) + 1
    tids = dict(_CATEGORY_TIDS)
    for span in telemetry.tracer.spans:
        tid = tids.get(span.category)
        if tid is None:
            tid = tids[span.category] = next_tid
            next_tid += 1
        end_s = span.end_s if span.end_s is not None else span.start_s
        args = {"span_id": span.span_id, "parent_id": span.parent_id}
        args.update(span.args)
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.category,
                "pid": 0,
                "tid": tid,
                "ts": span.start_s * 1e6,
                "dur": (end_s - span.start_s) * 1e6,
                "args": args,
            }
        )
    thread_meta = [
        {
            "ph": "M",
            "name": "thread_name",
            "pid": 0,
            "tid": tid,
            "args": {"name": category},
        }
        for category, tid in sorted(tids.items(), key=lambda item: item[1])
    ]
    header = trace_header(telemetry, **meta)
    header.pop("type", None)
    return {"traceEvents": thread_meta + events, "otherData": header}


def write_chrome_trace(telemetry: Telemetry, path: str, **meta: object) -> str:
    """Write the Perfetto-loadable Chrome trace JSON; returns ``path``."""
    parent = os.path.dirname(str(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(chrome_trace(telemetry, **meta), handle, sort_keys=True)
        handle.write("\n")
    return path


def summarize(telemetry: Telemetry) -> str:
    """Terminal-friendly digest: span counts per category, headline metrics."""
    lines = ["trace summary"]
    by_category: Dict[str, int] = {}
    for span in telemetry.tracer.spans:
        by_category[span.category] = by_category.get(span.category, 0) + 1
    lines.append(f"  spans: {len(telemetry.tracer.spans)}")
    for category in sorted(by_category):
        lines.append(f"    {category:<16} {by_category[category]}")
    snapshot = telemetry.registry.snapshot()
    lines.append(f"  metrics: {len(snapshot)}")
    for metric in snapshot:
        labels = metric["labels"]
        label_text = (
            "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}" if labels else ""
        )
        name = f"{metric['subsystem']}.{metric['name']}{label_text}"
        if metric["kind"] == "histogram":
            mean = metric["mean"]
            mean_text = f"{mean:.3f}" if mean is not None else "-"
            lines.append(f"    {name:<48} n={metric['count']} mean={mean_text}")
        elif metric["kind"] == "gauge":
            lines.append(
                f"    {name:<48} {metric['value']:.6g} (high {metric['high_water']:.6g})"
            )
        else:
            lines.append(f"    {name:<48} {metric['value']:.6g}")
    return "\n".join(lines)
