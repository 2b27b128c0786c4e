"""Span tracing for the unit lifecycle, exported as Chrome trace events.

A :class:`Tracer` collects *complete* spans (``ph == "X"``) and
*instant* events (``ph == "i"``) with microsecond timestamps relative
to the tracer's creation.  :meth:`Tracer.to_dict` emits the Chrome
trace-event JSON object format, so a written file opens directly in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.

Span identity is deterministic: names, categories, and args derive from
logical-unit digests (``repro.yieldsim.resilience.unit_digest``, which
the chaos lane's fault schedules also key on), point indices, and fold
counters — never from wall-clock values.  :func:`span_signature` strips
the volatile fields (timestamps, durations, pids, tids) from
:meth:`Tracer.to_dict` and returns the canonical event sequence, which
is byte-for-byte reproducible for a fixed seed on a deterministic
executor; ``tests/test_obs.py`` pins that.

Tracers are cheap and thread-safe; an unused tracer costs one lock and
a list.  Every call site treats ``tracer=None`` as "off" with zero
overhead.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["TRACE_SCHEMA", "Tracer", "span_signature", "validate_trace"]

TRACE_SCHEMA = 1

# Volatile per-event fields excluded from the canonical span tree.
_VOLATILE = ("ts", "dur", "pid", "tid")


class Tracer:
    """Collects Chrome trace events with deterministic identities."""

    def __init__(self, *, pid: Optional[int] = None) -> None:
        self._t0 = time.perf_counter()
        self._pid = os.getpid() if pid is None else int(pid)
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []

    def now_us(self) -> float:
        """Microseconds since this tracer was created."""
        return (time.perf_counter() - self._t0) * 1e6

    def _append(self, event: Dict[str, Any]) -> None:
        with self._lock:
            self._events.append(event)

    def complete(
        self,
        name: str,
        start_us: float,
        duration_us: float,
        *,
        cat: str = "engine",
        **args: Any,
    ) -> None:
        """Record a complete span (``ph == "X"``)."""
        self._append({
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": round(float(start_us), 3),
            "dur": round(max(float(duration_us), 0.0), 3),
            "pid": self._pid,
            "tid": threading.get_ident() & 0x7FFFFFFF,
            "args": dict(args),
        })

    def instant(self, name: str, *, cat: str = "engine", **args: Any) -> None:
        """Record an instant event (``ph == "i"``, thread scope)."""
        self._append({
            "name": name,
            "cat": cat,
            "ph": "i",
            "ts": round(self.now_us(), 3),
            "s": "t",
            "pid": self._pid,
            "tid": threading.get_ident() & 0x7FFFFFFF,
            "args": dict(args),
        })

    @contextmanager
    def span(self, name: str, *, cat: str = "engine",
             **args: Any) -> Iterator[None]:
        start = self.now_us()
        try:
            yield
        finally:
            self.complete(name, start, self.now_us() - start,
                          cat=cat, **args)

    def extend(self, events: List[Dict[str, Any]]) -> None:
        """Merge events recorded elsewhere (e.g. a worker's tracer)."""
        with self._lock:
            self._events.extend(events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            events = [dict(ev) for ev in self._events]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"schema": TRACE_SCHEMA, "producer": "repro.obs"},
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=None,
                      separators=(",", ":"), sort_keys=True)
            fh.write("\n")


def span_signature(trace: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Strip volatile fields from a trace dict's events.

    Returns the events in recorded (program) order with only their
    deterministic identity: name, category, phase, and args.  Two runs
    of the same seed on a deterministic executor produce equal
    signatures.
    """
    out = []
    for ev in trace.get("traceEvents", []):
        keep = {k: v for k, v in ev.items()
                if k not in _VOLATILE and k != "s"}
        out.append(keep)
    return out


def validate_trace(trace: Any) -> List[Dict[str, Any]]:
    """Validate Chrome trace-event object-format structure.

    Raises ``ValueError`` on the first malformed field; returns the
    event list on success so callers can chain checks.
    """
    if not isinstance(trace, dict):
        raise ValueError("trace must be a JSON object")
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace.traceEvents must be a list")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        for field, types in (
            ("name", str), ("cat", str), ("ph", str),
            ("ts", (int, float)), ("pid", int), ("tid", int),
        ):
            if not isinstance(ev.get(field), types):
                raise ValueError(
                    f"traceEvents[{i}].{field} missing or mistyped: "
                    f"{ev.get(field)!r}"
                )
        if ev["ph"] not in ("X", "i", "B", "E", "M"):
            raise ValueError(f"traceEvents[{i}].ph unknown: {ev['ph']!r}")
        if ev["ph"] == "X" and not isinstance(ev.get("dur"), (int, float)):
            raise ValueError(f"traceEvents[{i}] X-span missing dur")
        if ev["ts"] < 0 or (ev["ph"] == "X" and ev["dur"] < 0):
            raise ValueError(f"traceEvents[{i}] negative timestamp")
        if "args" in ev and not isinstance(ev["args"], dict):
            raise ValueError(f"traceEvents[{i}].args must be an object")
    return events
