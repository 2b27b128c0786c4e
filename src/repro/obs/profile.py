"""Thread-local phase timers (wall + CPU) for compute workers.

Compute units arm a :func:`capture` around the whole computation;
interior code marks phases with :func:`phase`.  When no capture is
armed on the thread, :func:`phase` is a no-op costing one attribute
lookup — the functional funnel keeps its hooks in place permanently
and pays nothing on the plain matching path.

The scheduler's unit functions arm one capture per point, so captured
timings are each point's own: they travel back beside the point's
success count as a plain dict, are folded by the scheduler's fold loop
into the point's ``PointRecord.timings`` (with :func:`merge_into` for
the shards of a batched point), and are
summed over points into the manifest's ``engine.timings`` block — sums
that never count one second twice.  Like every other telemetry channel
they are manifest-only: timings never enter results, cache keys, or
stable digests.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

__all__ = ["capture", "phase", "merge_into"]

_tls = threading.local()


@contextmanager
def capture() -> Iterator[Dict[str, float]]:
    """Collect phase timings on this thread; nested captures shadow."""
    acc: Dict[str, float] = {}
    prev = getattr(_tls, "acc", None)
    _tls.acc = acc
    try:
        yield acc
    finally:
        _tls.acc = prev


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Accumulate wall and CPU seconds for ``name`` into the active
    capture (no-op when none is armed)."""
    acc: Optional[Dict[str, float]] = getattr(_tls, "acc", None)
    if acc is None:
        yield
        return
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    try:
        yield
    finally:
        wall_key = f"{name}_wall_s"
        cpu_key = f"{name}_cpu_s"
        acc[wall_key] = acc.get(wall_key, 0.0) + (time.perf_counter() - wall0)
        acc[cpu_key] = acc.get(cpu_key, 0.0) + (time.process_time() - cpu0)


def merge_into(total: Dict[str, float], part: Dict[str, float]) -> None:
    """Sum ``part`` into ``total`` key-wise (both are phase dicts)."""
    for key, value in part.items():
        total[key] = total.get(key, 0.0) + float(value)
