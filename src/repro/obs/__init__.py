"""Unified observability layer: metrics, tracing, events, profiling.

Everything in this package is **out-of-band** telemetry: nothing here may
influence Monte-Carlo results, cache keys, stable digests, or artifact
bytes.  Fixed-seed bundles must stay byte-identical with telemetry off,
armed, or crashing — the tests in ``tests/test_obs.py`` enforce that.

Modules
-------
``counters``
    The one counter type: :class:`~repro.obs.counters.Counters` and the
    field lists of every per-layer tally (``ScreenStats``,
    ``CriterionStats``, ``ResilienceStats``, ``StoreStats``).
``metrics``
    Prometheus text exposition rendered at scrape time straight from the
    live stats objects (the engine's ``Counters`` tallies, the serve
    request and coalescing tallies), plus the one stateful instrument,
    the request-latency :class:`~repro.obs.metrics.Histogram`.
``trace``
    Span tracer for the unit lifecycle, exported as Chrome trace-event
    JSON (open in Perfetto / ``chrome://tracing``).
``events``
    Structured NDJSON event log on top of stdlib ``logging`` under the
    ``repro.*`` hierarchy.
``profile``
    Thread-local phase timers (wall + CPU) used by compute workers and
    the functional funnel.
"""

from . import counters, events, metrics, profile, trace
from .events import configure_logging, get_logger, log_event
from .trace import Tracer, validate_trace

__all__ = [
    "Tracer",
    "configure_logging",
    "counters",
    "events",
    "get_logger",
    "log_event",
    "metrics",
    "profile",
    "trace",
    "validate_trace",
]
