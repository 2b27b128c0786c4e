"""Prometheus text exposition rendered from the live stats objects.

There is no registry.  ``GET /metrics`` builds its metric families at
scrape time straight from the objects ``GET /stats`` reads — the engine's
counters and :class:`~repro.obs.counters.Counters` tallies
(``ResilienceStats``, ``StoreStats``, ``ScreenStats``) and the server's
request and coalescing tallies — so the two surfaces render one source of
truth and cannot drift.  The one stateful instrument is the request-
latency :class:`Histogram`, whose observations exist nowhere else.

:func:`engine_families` and :func:`server_families` duck-type over the
objects they read; this module imports nothing from the rest of ``repro``
so low-level modules may import it freely.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Family",
    "Histogram",
    "counters_family",
    "engine_families",
    "render",
    "server_families",
]

_VALID_FIRST = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_VALID_REST = _VALID_FIRST | set("0123456789")


def _check_name(name: str) -> str:
    if not name or name[0] not in _VALID_FIRST or any(
        c not in _VALID_REST for c in name
    ):
        raise ValueError(f"invalid metric name: {name!r}")
    return name


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


@dataclass(frozen=True)
class Family:
    """One metric family: ``samples`` are ``(name{labels}, value)`` pairs."""

    name: str
    kind: str
    help: str
    samples: Sequence[Tuple[str, float]]

    def __post_init__(self) -> None:
        _check_name(self.name)


def _scalar(name: str, kind: str, help: str, value: float) -> Family:
    return Family(name, kind, help, [(name, float(value))])


def _labelled(
    name: str, kind: str, help: str, label: str, values: Mapping[str, float]
) -> Family:
    return Family(name, kind, help, [
        (f'{name}{{{label}="{_escape_label(key)}"}}', float(value))
        for key, value in sorted(values.items())
    ])


class Histogram:
    """Fixed-bucket histogram (cumulative ``le`` buckets, Prometheus style)."""

    DEFAULT_BUCKETS = (
        0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
    )

    def __init__(
        self, name: str, help: str, buckets: Optional[Sequence[float]] = None
    ):
        self.name = _check_name(name)
        self.help = help
        edges = tuple(sorted(buckets if buckets is not None
                             else self.DEFAULT_BUCKETS))
        if not edges:
            raise ValueError(f"{name}: histogram needs at least one bucket")
        self.buckets = edges
        self._lock = threading.Lock()
        #: per-bucket (non-cumulative) counts; the last slot is +Inf
        self._counts = [0] * (len(edges) + 1)
        self._sum = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += float(value)
            for i, edge in enumerate(self.buckets):
                if value <= edge:
                    self._counts[i] += 1
                    return
            self._counts[-1] += 1

    def count(self) -> int:
        with self._lock:
            return sum(self._counts)

    def sum(self) -> float:
        with self._lock:
            return self._sum

    def family(self) -> Family:
        with self._lock:
            counts = list(self._counts)
            total = self._sum
        samples: List[Tuple[str, float]] = []
        cumulative = 0
        for edge, n in zip(self.buckets + (float("inf"),), counts):
            cumulative += n
            samples.append(
                (f'{self.name}_bucket{{le="{_format_value(edge)}"}}',
                 float(cumulative))
            )
        samples.append((f"{self.name}_sum", total))
        samples.append((f"{self.name}_count", float(cumulative)))
        return Family(self.name, "histogram", self.help, samples)


def render(families: Iterable[Family]) -> str:
    """Prometheus text exposition format 0.0.4, families sorted by name."""
    lines: List[str] = []
    for family in sorted(families, key=lambda f: f.name):
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for sample, value in family.samples:
            lines.append(f"{sample} {_format_value(value)}")
    return "\n".join(lines) + "\n"


def counters_family(prefix: str, help: str, counters: object) -> List[Family]:
    """One ``{prefix}_{field}_total`` counter per field of a ``Counters``."""
    return [
        _scalar(
            f"{prefix}_{field.name}_total", "counter", f"{help} {field.name} count",
            getattr(counters, field.name),
        )
        for field in dataclasses.fields(counters)
    ]


def engine_families(engine) -> List[Family]:
    """The families of a ``SweepEngine``'s live stats.

    Reads (duck-typed): ``cache_hits`` / ``cache_misses`` /
    ``runs_requested`` / ``runs_effective``, ``resilience``
    (``ResilienceStats``), ``store_stats`` (``StoreStats``), and
    ``screen_stats`` (``ScreenStats``).
    """
    return [
        _scalar("repro_engine_cache_hits_total", "counter",
                "Point-cache hits across the engine lifetime",
                engine.cache_hits),
        _scalar("repro_engine_cache_misses_total", "counter",
                "Point-cache misses across the engine lifetime",
                engine.cache_misses),
        _scalar("repro_engine_runs_requested_total", "counter",
                "Monte-Carlo runs requested from the engine",
                engine.runs_requested),
        _scalar("repro_engine_runs_effective_total", "counter",
                "Monte-Carlo runs actually spent (adaptive stops may save runs)",
                engine.runs_effective),
        *counters_family(
            "repro_resilience", "Resilience incident", engine.resilience
        ),
        *counters_family(
            "repro_cachestore", "Cache transport", engine.store_stats
        ),
        *counters_family(
            "repro_screen", "Screening-funnel", engine.screen_stats
        ),
    ]


def server_families(server) -> List[Family]:
    """The families of a ``ReproServer``'s request and coalescing tallies.

    Reads (duck-typed): ``requests`` / ``errors`` / ``rejected`` /
    ``active``, the ``request_seconds`` :class:`Histogram`, and the
    ``points`` / ``bundles`` ``CoalescingMap`` tallies (``leaders`` /
    ``followers`` / ``promotions`` / ``len()``).
    """
    maps = {"points": server.points, "bundles": server.bundles}

    def per_map(name: str, kind: str, help: str, read) -> Family:
        return _labelled(name, kind, help, "map", {
            label: read(cmap) for label, cmap in maps.items()
        })

    return [
        _scalar("repro_http_requests_total", "counter",
                "HTTP requests accepted", server.requests),
        _scalar("repro_http_errors_total", "counter",
                "HTTP requests that returned 5xx", server.errors),
        _scalar("repro_http_rejected_total", "counter",
                "HTTP requests rejected with 503 (saturation or drain)",
                server.rejected),
        _scalar("repro_http_active_requests", "gauge",
                "Requests currently in flight", server.active),
        server.request_seconds.family(),
        per_map("repro_coalesce_computed_total", "counter",
                "Computations led (single-flight leaders)",
                lambda cmap: cmap.leaders),
        per_map("repro_coalesce_followers_total", "counter",
                "Requests served by joining an in-flight computation",
                lambda cmap: cmap.followers),
        per_map("repro_coalesce_promotions_total", "counter",
                "Follower promotions after a leader died",
                lambda cmap: cmap.promotions),
        per_map("repro_coalesce_inflight", "gauge",
                "In-flight coalesced computations", len),
    ]
