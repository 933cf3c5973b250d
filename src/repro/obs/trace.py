"""JSONL trace export and schema validation (zero-dependency).

A trace file is one JSON object per line.  The first line is a ``meta``
header; then every buffered trace event in order; then one ``counter``
line per counter and one ``timer`` line per timer aggregate, so the
file is self-contained — a consumer can cross-check that the spans it
saw sum to the totals the engine reported.

The schema is enforced by hand (no ``jsonschema`` dependency): each
``kind`` declares required fields and their JSON types, unknown extra
fields are allowed (spans carry free-form annotations like ``chip`` or
``policy``), unknown kinds are rejected.
"""

from __future__ import annotations

import json

from repro.obs.core import MetricsSnapshot


class TraceSchemaError(ValueError):
    """A trace line violated the schema."""


_NUMBER = (int, float)

#: Required fields (and their JSON types) per event kind.  Extra fields
#: are allowed; missing or mistyped required fields are errors.
TRACE_SCHEMA: dict = {
    "meta": {"version": _NUMBER, "counters": int, "timers": int, "events": int},
    "span": {"t": _NUMBER, "name": str, "dur_s": _NUMBER, "depth": int},
    "event": {"t": _NUMBER, "name": str},
    "counter": {"name": str, "value": _NUMBER},
    "timer": {
        "name": str,
        "count": int,
        "total_s": _NUMBER,
        "max_s": _NUMBER,
    },
}

#: Version 2: timer lines are named by span path
#: (``sim.epoch/sim.decision/aging.walk``), not by bare span name.
TRACE_VERSION = 2


def validate_trace_line(obj) -> list:
    """Validate one decoded trace line; returns a list of error strings
    (empty = valid)."""
    if not isinstance(obj, dict):
        return [f"trace line must be an object, got {type(obj).__name__}"]
    kind = obj.get("kind")
    if not isinstance(kind, str):
        return ["trace line lacks a string 'kind' field"]
    spec = TRACE_SCHEMA.get(kind)
    if spec is None:
        return [f"unknown trace kind {kind!r}"]
    errors = []
    for name, types in spec.items():
        if name not in obj:
            errors.append(f"{kind} line missing required field {name!r}")
        elif not isinstance(obj[name], types) or isinstance(obj[name], bool):
            errors.append(
                f"{kind} field {name!r} has wrong type "
                f"{type(obj[name]).__name__}"
            )
    return errors


def _trace_lines(snapshot: MetricsSnapshot):
    yield {
        "kind": "meta",
        "version": TRACE_VERSION,
        "counters": len(snapshot.counters),
        "timers": len(snapshot.timers),
        "events": len(snapshot.events),
        "dropped_events": snapshot.dropped_events,
    }
    for event in snapshot.events:
        line = dict(event)
        if "kind" not in line:
            line["kind"] = "event"
        yield line
    for name in sorted(snapshot.counters):
        yield {"kind": "counter", "name": name, "value": snapshot.counters[name]}
    for name in sorted(snapshot.timers):
        stats = snapshot.timers[name]
        yield {
            "kind": "timer",
            "name": name,
            "count": stats.count,
            "total_s": stats.total_s,
            "max_s": stats.max_s,
            "mean_s": stats.mean_s,
        }
    for name in sorted(snapshot.gauges):
        yield {
            "kind": "event",
            "t": 0.0,
            "name": f"gauge.{name}",
            "value": snapshot.gauges[name],
        }


def write_trace_jsonl(snapshot: MetricsSnapshot, path: str) -> int:
    """Write a snapshot as a JSONL trace file; returns lines written."""
    count = 0
    with open(path, "w") as handle:
        for line in _trace_lines(snapshot):
            handle.write(json.dumps(line) + "\n")
            count += 1
    return count


def load_trace_jsonl(path: str, validate: bool = True) -> list:
    """Read a JSONL trace back into a list of dicts.

    With ``validate`` (the default) every line is schema-checked and the
    first violation raises :class:`TraceSchemaError`.
    """
    lines = []
    with open(path) as handle:
        for number, raw in enumerate(handle, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as error:
                raise TraceSchemaError(
                    f"{path}:{number}: not valid JSON ({error})"
                ) from None
            if validate:
                errors = validate_trace_line(obj)
                if errors:
                    raise TraceSchemaError(
                        f"{path}:{number}: " + "; ".join(errors)
                    )
            lines.append(obj)
    return lines


def validate_trace_file(path: str) -> int:
    """Schema-check every line of a trace file; returns the line count."""
    return len(load_trace_jsonl(path, validate=True))
