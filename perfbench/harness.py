"""Span recording around the program's public entry points.

The benchmark measures each layer from outside: :func:`instrument` swaps
the public functions of the chosen layers for thin wrappers that record
one span per call (name, start, end, parent from a per-thread stack) into
a :class:`Recorder`, and puts every original back on exit.  A span's self
time is its duration minus the time its direct child spans cover, so
``funnel.self`` excludes the repair plans and schedules it drives.

Wrappers live in the process that installs them.  Pool workers forked
while they are installed carry copies that record into the worker's own
memory, which is discarded, so a process-pool run reports parent-side
layers only.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import resource
import signal
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Span names whose self time is compute work; their sum over a traced
#: serial pass should account for nearly all of its wall time.
COMPUTE_SPANS = (
    "defects.sample",
    "kernel.classify",
    "funnel.evaluate",
    "reconfig.plan",
    "fluidics.schedule",
    "fluidics.concurrent",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s")

    def __init__(self, name: str, parent: Optional["Span"]):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Recorder:
    """In-memory spans plus counters noted at the same call boundaries."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             note: Optional[Callable]) -> object:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        span = Span(name, parent)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_s += span.duration
            with self._lock:
                self.spans.append(span)
        if note is not None:
            with self._lock:
                note(self.counts, args, kwargs, result)
        return result

    def summary(self) -> Dict[str, object]:
        """Per-name busy/self/calls plus the counters (JSON-ready)."""
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            agg = out.setdefault(span.name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
            agg["busy_s"] += span.duration
            agg["self_s"] += span.self_s
            agg["calls"] += 1
        return {"spans": out, "counts": dict(self.counts)}

    def write_chrome_trace(self, path: str) -> None:
        """All spans as Chrome trace-event JSON (viewable in Perfetto)."""
        if not self.spans:
            return
        t0 = min(s.start for s in self.spans)
        events = [
            {"name": s.name, "ph": "X", "pid": os.getpid(), "tid": 0,
             "ts": round((s.start - t0) * 1e6, 3),
             "dur": round(s.duration * 1e6, 3)}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events}, fh)


# -- counters noted at call boundaries ----------------------------------------

def _note_rows(counts, args, kwargs, result) -> None:
    # DefectModel.sample_batch(self, geometry, n_runs, rng, dtype=...)
    counts["defects.rows"] += args[2] if len(args) > 2 else kwargs["n_runs"]


def _note_cache_load(counts, args, kwargs, result) -> None:
    counts["cache.loads"] += 1
    if result is not None:
        counts["cache.hits"] += 1


def _note_pool_start(counts, args, kwargs, result) -> None:
    # A pool executor only spawns workers when it ends up with capacity > 1.
    if args[0].capacity > 1:
        counts["executors.pools"] += 1


def _note_scheduler_run(counts, args, kwargs, result) -> None:
    counts["scheduler.units"] += len(args[1])
    for timing in kwargs.get("timings_out") or ():
        if timing:
            counts["obs.timings_wall_s"] += float(timing.get("wall_s", 0.0))


# -- wrapper installation -----------------------------------------------------

Target = Tuple[object, str, str, Optional[Callable]]


def _compute_targets() -> List[Target]:
    """Sampler, kernel, funnel, repair-plan and fluidics entry points.

    ``repro.functional.funnel`` binds ``classify_repairable`` and
    ``plan_local_repair`` by name, so both bindings are wrapped; the
    samplers live on each concrete ``DefectModel`` class.
    """
    from repro.fluidics.concurrent_routing import ConcurrentRouter
    from repro.fluidics.scheduler import Scheduler
    from repro.functional import funnel
    from repro.reconfig import local
    from repro.yieldsim import defects, kernel

    targets: List[Target] = []
    for value in vars(defects).values():
        if (isinstance(value, type) and "sample_batch" in vars(value)
                and value is not defects.DefectModel):
            targets.append((value, "sample_batch", "defects.sample", _note_rows))
    targets += [
        (kernel, "classify_repairable", "kernel.classify", None),
        (funnel, "classify_repairable", "kernel.classify", None),
        (funnel, "evaluate_functional", "funnel.evaluate", None),
        (funnel, "plan_local_repair", "reconfig.plan", None),
        (local, "plan_local_repair", "reconfig.plan", None),
        (Scheduler, "run", "fluidics.schedule", None),
        (ConcurrentRouter, "plan", "fluidics.concurrent", None),
    ]
    return targets


def _engine_targets() -> List[Target]:
    """Scheduler, executor and point-cache entry points (parent side)."""
    from repro.yieldsim import executors
    from repro.yieldsim.scheduler import PointCache, PointScheduler

    targets: List[Target] = [
        (PointScheduler, "run", "scheduler.run", _note_scheduler_run),
        (PointCache, "load", "cache.load", _note_cache_load),
        (PointCache, "store", "cache.store", None),
    ]
    for cls in (executors.SerialExecutor, executors.PoolExecutor,
                executors.InlineExecutor):
        note = _note_pool_start if cls is executors.PoolExecutor else None
        targets += [
            (cls, "start", "executors.start", note),
            (cls, "shutdown", "executors.start", None),
            (cls, "submit", "executors.submit", None),
            (cls, "wait_any", "executors.wait", None),
        ]
    return targets


def _pipeline_targets() -> List[Target]:
    """Registry dispatch and artifact writing."""
    from repro.experiments import registry
    from repro.experiments.artifacts import ArtifactRun

    return [
        (registry, "execute", "registry.execute", None),
        (ArtifactRun, "add", "artifacts.write", None),
        (ArtifactRun, "finalize", "artifacts.write", None),
    ]


LAYERS = {
    "compute": _compute_targets,
    "engine": _engine_targets,
    "pipeline": _pipeline_targets,
}


def _wrap(recorder: Recorder, original: Callable, name: str,
          note: Optional[Callable]) -> Callable:
    if name == "registry.execute":
        # One span name per experiment: the first argument is a name or an
        # Experiment record.
        def namer(args: tuple) -> str:
            return f"{name}:{getattr(args[0], 'name', args[0])}"
    else:
        def namer(args: tuple) -> str:
            return name

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return recorder.call(namer(args), original, args, kwargs, note)

    return wrapper


@contextmanager
def instrument(layers: Sequence[str]) -> Iterator[Recorder]:
    """Wrap the named layers' public entry points; restore them on exit."""
    recorder = Recorder()
    saved: List[Tuple[object, str, object]] = []
    try:
        for layer in layers:
            for owner, attr, name, note in LAYERS[layer]():
                original = (
                    vars(owner)[attr] if isinstance(owner, type)
                    else getattr(owner, attr)
                )
                saved.append((owner, attr, original))
                setattr(owner, attr, _wrap(recorder, original, name, note))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        for owner, attr, original in saved:
            current = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                raise RuntimeError(f"wrapper on {owner!r}.{attr} was not restored")


# -- machine speed ------------------------------------------------------------
#
# The host is shared: the same fixed loop runs up to ~1.7x slower while a
# neighbour is busy, and that state changes from one second to the next and
# from one run to the next.  Raw wall times therefore spread far more across
# runs than any bound could tolerate.  So every timed segment of a pass is
# bracketed by a fixed calibration burst, and its wall time is rescaled by
# how slow the bursts around it ran compared with the reference machine.
# A timing reported "at reference speed" is what the segment would have
# taken had the machine run the burst in CAL_REF_S.

#: seconds one burst takes on the reference machine (2 vCPUs, "Intel(R)
#: Xeon(R) Processor", Python 3.11.7, numpy 2.4.6) when uncontended
CAL_REF_S = 0.015

_CAL_TABLE = tuple(range(64))
_CAL_RNG_SEED = 12345


def burst() -> float:
    """Seconds one fixed mix of interpreter and numpy work takes now.

    The mix resembles the program's own: dict and list updates in a loop
    (the funnel and schedulers) and boolean sampling, reductions and a sort
    on small arrays (the defect sampler and matching kernel).
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    seen: Dict[int, int] = {}
    for k in range(90_000):
        acc += _CAL_TABLE[k & 63] * (k % 7)
        seen[k & 255] = acc
    rng = np.random.default_rng(_CAL_RNG_SEED)
    for _ in range(24):
        faults = rng.random((128, 256)) < 0.05
        np.sort(faults.sum(axis=1))
        np.flatnonzero(faults[:, ::2].any(axis=0))
    return time.perf_counter() - t0


def burst_all_cpus() -> float:
    """Mean :func:`burst` over every CPU this process may use, pinned to
    each in turn: the speed of the machine rather than of one core."""
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(burst())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


class SpeedClock:
    """Wall time of a pass's segments, raw and at reference speed.

    Each :meth:`segment` is timed alone, and its slowdown is the mean burst
    time around it: the bursts just before and just after it (shared with
    the neighbouring segments) and, with ``sample_s``, a burst every
    ``sample_s`` seconds inside it.  Those come from a timer signal that
    interrupts the segment's own thread, so they run on the core the work
    runs on, and their time is taken out of the segment.  Burst time is
    never part of a segment.
    """

    def __init__(self, settle_s: float = 0.0, all_cpus: bool = False,
                 sample_s: Optional[float] = None) -> None:
        #: idle seconds before each closing burst, so that work a segment
        #: leaves behind in other processes (a server closing connections,
        #: pool workers exiting) does not share the machine with the burst
        self.settle_s = settle_s
        #: time the bursts on every CPU, for work spread over processes;
        #: a serial segment is best judged by the core it ran on
        self._burst = burst_all_cpus if all_cpus else burst
        #: seconds between bursts inside a segment (main thread only)
        self.sample_s = sample_s
        self.raw_s = 0.0
        self.ref_s = 0.0
        #: reference-speed seconds of each segment, in order
        self.segments: List[float] = []
        self._before = self._burst()
        self._samples: List[float] = []
        self._paused = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._samples.append(burst())
        self._paused += time.perf_counter() - t0

    @contextmanager
    def segment(self) -> Iterator[None]:
        self._samples, self._paused = [], 0.0
        if self.sample_s:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.sample_s, self.sample_s)
        start = time.perf_counter()
        try:
            yield
        finally:
            if self.sample_s:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            elapsed = time.perf_counter() - start - self._paused
            if self.settle_s:
                time.sleep(self.settle_s)
            after = self._burst()
            bursts = [self._before, *self._samples, after]
            ref = elapsed * CAL_REF_S * len(bursts) / sum(bursts)
            self.raw_s += elapsed
            self.ref_s += ref
            self.segments.append(ref)
            self._before = after


# -- process facts ------------------------------------------------------------

def peak_rss_mb() -> float:
    """The larger peak RSS of this process and its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def machine_facts() -> Dict[str, object]:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return float(ordered[rank - 1])
