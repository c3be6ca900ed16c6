"""Shared run-metadata helper for the ``results/`` JSON writers.

Every headline artifact (``BENCH_chaos.json``, ``BENCH_predictive.json``,
trace files) wants the same preamble -- schema name, seed, a digest of the
configuration that produced the numbers, and a caller-injected timestamp --
but each writer used to assemble it by hand.  :func:`run_metadata`
centralizes the shape, so a reader need not special-case each schema.

Timestamps are always injected by the caller (or omitted): nothing in this
module reads the wall clock, keeping every artifact byte-reproducible for
the determinism tests unless the caller opts into stamping.
"""

from __future__ import annotations

import hashlib
import json
import platform
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Dict, Optional, Union


def config_digest(config: object) -> str:
    """Short stable digest of a configuration object.

    Accepts dataclasses, dicts, or anything JSON-representable; unknown
    objects fall back to ``repr``.  The digest changes iff the configuration
    content changes, independent of dict insertion order.
    """
    if is_dataclass(config) and not isinstance(config, type):
        payload = asdict(config)
    else:
        payload = config
    try:
        text = json.dumps(payload, sort_keys=True, default=repr)
    except TypeError:
        text = repr(payload)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_metadata(
    schema: str,
    seed: Optional[int] = None,
    config: Optional[object] = None,
    timestamp: Optional[str] = None,
    **extra: object,
) -> Dict[str, object]:
    """The shared metadata preamble for a ``results/`` JSON artifact.

    ``schema`` is the versioned schema name (``"repro-bench-engine/1"``,
    ...); ``config`` is digested via :func:`config_digest`; ``timestamp`` is
    caller-injected (ISO-8601 by convention) and omitted when ``None`` so
    deterministic artifacts stay byte-identical run to run.
    """
    metadata: Dict[str, object] = {
        "schema": schema,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    if seed is not None:
        metadata["seed"] = seed
    if config is not None:
        metadata["config_digest"] = config_digest(config)
    if timestamp is not None:
        metadata["timestamp"] = timestamp
    metadata.update(extra)
    return metadata


def write_headline_json(
    path: Union[str, Path], schema: str, timestamp: Optional[str] = None, **fields: object
) -> Path:
    """Write a comparison's headline artifact: :func:`run_metadata` plus ``fields``.

    By convention ``fields`` carries ``benchmarks={name: value}``, the unit
    in the name.  Creates the parent directory; returns the path written.
    """
    payload = run_metadata(schema, timestamp=timestamp, **fields)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path
