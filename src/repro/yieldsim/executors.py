"""Pluggable execution backends for the sweep scheduler.

The :class:`~repro.yieldsim.scheduler.PointScheduler` decides *what* to
compute (cache keys, chunking, shard plans, fold order, stop-rule
speculation); an :class:`Executor` decides *where* each compute unit runs.
The scheduler drives every backend through the same four-call protocol —
``start``/``submit``/``wait_any``/``shutdown`` — and folds results in a
fixed order, so the engine's bit-identity contract (serial == parallel ==
sharded) holds for any backend by construction: an executor can change
wall-clock time and speculation, never a number.

Backends
--------
:class:`SerialExecutor`
    Runs every unit inline at ``submit`` time, one at a time.  The
    scheduler degenerates to a strict in-order fold — the reference
    semantics every other backend must reproduce.
:class:`PoolExecutor`
    ``concurrent.futures.ProcessPoolExecutor``-backed.  One pool, sized
    ``jobs``, serves every run: it is created lazily by the first
    ``start`` whose run holds more than one unit and kept until
    ``close``; a one-unit run behaves exactly like
    :class:`SerialExecutor`.
:class:`InlineExecutor`
    Immediate in-process execution like :class:`SerialExecutor`, but
    with a configurable ``capacity`` so the scheduler exercises its
    speculative submit/discard logic deterministically without
    processes, and with cumulative ``submitted``/``completed``/``cancelled``
    counters so the test suite and perfbench can count exactly how many
    compute units a request cost.

The chaos lane's fault-injecting wrapper, which makes units of any of
these backends crash, hang or kill their worker, is test code and lives
in ``tests/chaos.py``.

Executors are reusable: ``start``/``shutdown`` bracket one scheduler run,
and a fresh run may follow on the same workers (``PoolExecutor`` keeps
its pool across runs; the inline backends keep their counters).
``close`` releases whatever workers an executor holds; it is idempotent,
and a run after it starts fresh workers.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, Optional, Protocol, Set, runtime_checkable

from repro.errors import SimulationError

__all__ = [
    "Executor",
    "UnitFuture",
    "ImmediateFuture",
    "SerialExecutor",
    "InlineExecutor",
    "PoolExecutor",
    "default_executor",
]


@runtime_checkable
class UnitFuture(Protocol):
    """What the scheduler needs from a submitted compute unit."""

    def result(self) -> Any: ...

    def cancel(self) -> bool: ...

    def done(self) -> bool: ...


class ImmediateFuture:
    """A unit future whose work already ran at ``submit`` time."""

    __slots__ = ("_result",)

    def __init__(self, result: Any):
        self._result = result

    def result(self) -> Any:
        return self._result

    def cancel(self) -> bool:
        return False

    def done(self) -> bool:
        return True


@runtime_checkable
class Executor(Protocol):
    """Where the scheduler's compute units run.

    ``capacity`` is the number of units worth keeping in flight: the
    scheduler submits up to ``capacity`` units before waiting, which is
    also how far it speculates past a possible adaptive stop point.
    """

    name: str

    @property
    def capacity(self) -> int: ...

    def start(self, units_hint: int) -> None:
        """Begin one scheduler run expected to hold ``units_hint`` units."""

    def submit(self, fn: Callable[..., Any], *args: Any) -> UnitFuture: ...

    def wait_any(
        self, futures: Set[UnitFuture], timeout: Optional[float] = None
    ) -> Set[UnitFuture]:
        """Block until at least one of ``futures`` is done; return those.

        With a ``timeout`` (seconds), may return an empty set once it
        elapses — how the retry layer notices hung units.
        """

    def shutdown(self) -> None:
        """End the current run; workers stay for the next one."""

    def close(self) -> None:
        """Release any workers (idempotent; a later run starts fresh ones)."""


class SerialExecutor:
    """Immediate in-process execution, one unit at a time."""

    name = "serial"

    @property
    def capacity(self) -> int:
        return 1

    def start(self, units_hint: int) -> None:
        pass

    def submit(self, fn: Callable[..., Any], *args: Any) -> ImmediateFuture:
        return ImmediateFuture(fn(*args))

    def wait_any(
        self, futures: Set[UnitFuture], timeout: Optional[float] = None
    ) -> Set[UnitFuture]:
        return set(futures)

    def shutdown(self) -> None:
        pass

    def close(self) -> None:
        pass


class InlineExecutor:
    """In-process execution with pool-like speculation, for tests.

    With ``capacity=1`` this is :class:`SerialExecutor` plus counters;
    with ``capacity>1`` the scheduler speculates exactly as it would over
    a process pool — submitting (and computing) units past a potential
    stop point, then discarding them — but deterministically and in one
    process, so the speculative path is testable without workers.
    """

    name = "inline"

    def __init__(self, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        #: cumulative units actually computed via submit()
        self.submitted = 0
        #: cumulative results consumed by the scheduler
        self.completed = 0
        #: cumulative cancel() calls (speculative units discarded unqueued)
        self.cancelled = 0
        #: start()/shutdown() brackets, for lifecycle tests
        self.runs_started = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def start(self, units_hint: int) -> None:
        self.runs_started += 1

    def submit(self, fn: Callable[..., Any], *args: Any) -> ImmediateFuture:
        self.submitted += 1
        return ImmediateFuture(fn(*args))

    def wait_any(
        self, futures: Set[UnitFuture], timeout: Optional[float] = None
    ) -> Set[UnitFuture]:
        done = set(futures)
        self.completed += len(done)
        return done

    def shutdown(self) -> None:
        pass

    def close(self) -> None:
        pass


class PoolExecutor:
    """``ProcessPoolExecutor``-backed execution across worker processes.

    One pool of ``jobs`` workers lives as long as the executor: the first
    run that holds more than one unit creates it at :meth:`start`, and
    every later such run reuses its workers, so a long-lived engine
    (``repro serve``, one ``--jobs`` experiment's many sweeps) forks once
    and each worker keeps the per-chip repair structures it has built.  A
    single-unit run (or ``jobs=1``) executes inline, exactly like
    :class:`SerialExecutor`, so tiny requests never touch the pool.
    :meth:`shutdown` ends a run — it cancels the run's still-queued units
    and keeps the workers — and :meth:`close` releases them.

    A broken pool (a worker died hard enough to poison it —
    ``BrokenProcessPool``) is recoverable: :meth:`rebuild` discards the
    poisoned pool and spawns a fresh one at the same size, and the retry
    layer resubmits whatever was in flight.  ``rebuilds`` counts how many
    times that happened over the executor's lifetime.  A pool that is
    still broken when its run ends, or whose run gave up on a hung unit
    (:meth:`retire`), is released at :meth:`shutdown` without waiting, so
    the next run starts on fresh workers rather than a poisoned or
    half-occupied pool.
    """

    name = "pool"

    def __init__(self, jobs: int):
        if jobs < 1:
            raise SimulationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._pool: Optional[ProcessPoolExecutor] = None
        #: whether the current run sends its units to the pool
        self._active = False
        #: the current run's submissions to the current pool
        self._futures: List[Future] = []
        self._retired = False
        #: lifetime count of broken pools replaced via rebuild()
        self.rebuilds = 0

    @property
    def capacity(self) -> int:
        return self.jobs if self._active else 1

    def start(self, units_hint: int) -> None:
        self._active = self.jobs > 1 and units_hint > 1
        if self._active and self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)

    def submit(self, fn: Callable[..., Any], *args: Any) -> UnitFuture:
        if not self._active:
            return ImmediateFuture(fn(*args))
        future = self._pool.submit(fn, *args)
        self._futures.append(future)
        return future

    def wait_any(
        self, futures: Set[UnitFuture], timeout: Optional[float] = None
    ) -> Set[UnitFuture]:
        done = {fut for fut in futures if isinstance(fut, ImmediateFuture)}
        if done:
            return done
        finished, _ = wait(futures, timeout=timeout, return_when=FIRST_COMPLETED)
        return set(finished)

    def rebuild(self) -> None:
        """Replace a poisoned pool with a fresh one at the same size."""
        if self._pool is None:
            raise SimulationError("no process pool to rebuild")
        self._release(wait=False)
        self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        self.rebuilds += 1

    def retire(self) -> None:
        """Release the pool without waiting once the current run ends.

        The retry layer calls this when it abandons a unit past its
        deadline: the worker running it may stay stuck, and a pool kept
        for later runs would quietly lose that worker's capacity.
        """
        self._retired = True

    def shutdown(self) -> None:
        broken = False
        for future in self._futures:
            future.cancel()
            broken = broken or (
                future.done() and not future.cancelled()
                and isinstance(future.exception(), BrokenProcessPool)
            )
        self._futures.clear()
        if broken or self._retired:
            self._release(wait=False)
        self._active = False
        self._retired = False

    def close(self) -> None:
        self.shutdown()
        self._release(wait=True)

    def _release(self, wait: bool) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=True)
            self._pool = None
        self._futures.clear()


def default_executor(jobs: int = 1) -> Executor:
    """The backend ``SweepEngine(jobs=...)`` historically implies."""
    if jobs < 1:
        raise SimulationError(f"jobs must be >= 1, got {jobs}")
    return SerialExecutor() if jobs == 1 else PoolExecutor(jobs)
