"""Fault-injection doubles for the chaos lane (``pytest -m chaos``).

None of this ships: the CLI and ``repro serve`` never inject faults.
The doubles wrap the real executors and cache stores and break them on
a deterministic schedule, so a chaos test can assert that a recovered
run is bit-identical to a clean one:

:class:`FaultInjectingExecutor` / :class:`FaultSchedule`
    Make chosen compute units crash, hang past the timeout, return
    corrupted payloads, kill their worker process, or preempt the whole
    run mid-flight.
:class:`FaultInjectingStore`
    Injects failed calls, garbage bodies, truncated uploads and slow
    reads into any :class:`~repro.yieldsim.cachestore.CacheStore`.

``_run_with_fault`` is module-level so process pools can pickle it; the
pool-kill drills run it in workers.  The module is not named
``test_*``, so pytest imports it only through the tests that use it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.errors import SimulationError, StoreError
from repro.yieldsim.cachestore import CacheStore
from repro.yieldsim.resilience import unit_digest


class InjectedFault(RuntimeError):
    """The failure a :class:`FaultInjectingExecutor` crash-mode unit raises.

    Deliberately *not* a :class:`~repro.errors.ReproError`: an injected
    crash stands in for arbitrary worker failure (OOM kill, segfault,
    preempted VM), which the retry machinery must handle without knowing
    anything about it.
    """


class Preemption(BaseException):
    """The whole run was preempted (simulated SIGKILL mid-sweep).

    Raised by a :class:`FaultSchedule` with ``preempt_after`` set once
    enough units have been submitted.  A ``BaseException``, like the
    ``KeyboardInterrupt`` it stands in for, so no ``except Exception``
    in the retry machinery treats it as a unit failure: it propagates
    out of the scheduler run exactly as a real eviction would, leaving
    any fold checkpoints on disk for the next run to resume from.
    """


#: Offset applied by corrupt-mode faults: large enough that any success
#: count is pushed far out of its [0, runs] bounds, so result validation
#: must catch it.
_CORRUPT_OFFSET = 1_000_000_007


def _corrupt_payload(value: Any) -> Any:
    """A plausible-shaped but wrong unit payload (what bit-rot returns)."""
    if isinstance(value, tuple) and value:
        head = value[0]
        if isinstance(head, bool) or head is None:
            return ("__corrupted__",) + value[1:]
        if isinstance(head, int):
            return (head + _CORRUPT_OFFSET,) + value[1:]
        if isinstance(head, list):
            return (
                [
                    v + _CORRUPT_OFFSET if isinstance(v, int) else v
                    for v in head
                ],
            ) + value[1:]
    return ("__corrupted__", value)


def _run_with_fault(
    mode: str, hang_seconds: float, fn: Callable[..., Any], *args: Any
) -> Any:
    """Execute one faulted unit (module-level so process pools can pickle it)."""
    if mode == "crash":
        raise InjectedFault("injected unit crash")
    if mode == "kill":
        # Kill the hosting process without cleanup: in a worker this
        # breaks the whole pool (the BrokenProcessPool drill).
        os._exit(3)
    if mode == "hang":
        time.sleep(hang_seconds)
        return fn(*args)
    if mode == "corrupt":
        return _corrupt_payload(fn(*args))
    raise SimulationError(f"unknown fault mode {mode!r}")


@dataclass(frozen=True)
class FaultSchedule:
    """Which units fault, how, and for how many attempts — deterministically.

    Periodic rules (``crash_every=3`` faults every 3rd logical unit) give
    the exact grids the chaos lane asserts on.  Faults apply to the first
    ``fault_attempts`` attempts of a unit, so with the default of 1 every
    retry succeeds; raise it to test attempt exhaustion.
    ``preempt_after`` simulates eviction: once that many submissions
    have happened, every further submit raises :class:`Preemption`,
    killing the run mid-flight (checkpoints stay on disk for the
    resume-path tests).
    """

    crash_every: Optional[int] = None
    hang_every: Optional[int] = None
    corrupt_every: Optional[int] = None
    kill_every: Optional[int] = None
    fault_attempts: int = 1
    preempt_after: Optional[int] = None

    def fault_for(self, ordinal: int, attempt: int) -> Optional[str]:
        """The fault mode for attempt ``attempt`` of logical unit ``ordinal``."""
        if attempt > self.fault_attempts:
            return None
        periodic = (
            ("crash", self.crash_every),
            ("hang", self.hang_every),
            ("corrupt", self.corrupt_every),
            ("kill", self.kill_every),
        )
        for mode, every in periodic:
            if every is not None and every > 0 and (ordinal + 1) % every == 0:
                return mode
        return None


class FaultInjectingExecutor:
    """Wraps any executor and injects scheduled faults into its units.

    Logical units are identified by :func:`~repro.yieldsim.resilience.unit_digest`
    of their (function, args) payload — the digest the tracer stamps on
    unit spans — so a *retried* unit keeps its ordinal and attempt count,
    which is what lets a schedule fault "the first attempt of every 3rd
    unit" and the chaos lane assert that the retried run's numbers equal
    the clean run's bit for bit.  ``injected`` counts faults by mode;
    ``rebuild``, ``retire`` and ``close`` pass through to the inner
    executor so pool-kill and hang drills recover exactly as an
    unwrapped pool does.
    """

    def __init__(
        self,
        inner: Any,
        schedule: FaultSchedule,
        hang_seconds: float = 0.05,
    ):
        self.inner = inner
        self.schedule = schedule
        self.hang_seconds = hang_seconds
        #: logical-unit digest -> [ordinal, attempts seen]
        self._units: Dict[str, List[int]] = {}
        self._submissions = 0
        self.injected: Dict[str, int] = {}

    @property
    def name(self) -> str:
        return f"fault({self.inner.name})"

    @property
    def capacity(self) -> int:
        return self.inner.capacity

    def start(self, units_hint: int) -> None:
        self.inner.start(units_hint)

    def submit(self, fn: Callable[..., Any], *args: Any) -> Any:
        if (
            self.schedule.preempt_after is not None
            and self._submissions >= self.schedule.preempt_after
        ):
            raise Preemption(
                f"simulated preemption after {self._submissions} submissions"
            )
        self._submissions += 1
        state = self._units.setdefault(unit_digest(fn, args), [len(self._units), 0])
        state[1] += 1
        mode = self.schedule.fault_for(state[0], state[1])
        if mode is None:
            return self.inner.submit(fn, *args)
        self.injected[mode] = self.injected.get(mode, 0) + 1
        return self.inner.submit(_run_with_fault, mode, self.hang_seconds, fn, *args)

    def wait_any(self, futures: Any, timeout: Optional[float] = None) -> Any:
        return self.inner.wait_any(futures, timeout=timeout)

    def shutdown(self) -> None:
        self.inner.shutdown()

    def close(self) -> None:
        self.inner.close()

    def retire(self) -> None:
        retire = getattr(self.inner, "retire", None)
        if retire is not None:
            retire()

    def rebuild(self) -> None:
        rebuild = getattr(self.inner, "rebuild", None)
        if rebuild is None:
            raise SimulationError(
                f"executor {self.inner.name!r} cannot rebuild"
            )
        rebuild()


class FaultInjectingStore:
    """Deterministic transport-fault wrapper for the cache chaos tests.

    Mirrors :class:`FaultSchedule`: every fault fires on a fixed cadence
    of calls, so a chaos test is exactly reproducible.  ``*_every=n``
    fires on the n-th, 2n-th, ... call of that operation:

    * ``get_error_every`` — the read raises :class:`~repro.errors.StoreError`
      (connection refused, 500, timeout — the transport died).
    * ``get_garbage_every`` — the read returns a garbage body (a proxy
      mangled it; digests must catch it downstream).
    * ``get_slow_every`` — the read sleeps ``slow_seconds`` first (a
      saturated remote; correctness must not depend on latency).
    * ``put_error_every`` — the upload raises ``StoreError``.
    * ``put_truncate_every`` — only a prefix of the payload is uploaded
      (a dropped connection mid-PUT).

    ``injected`` counts fired faults by mode.
    """

    name = "faulty"

    def __init__(
        self,
        inner: CacheStore,
        *,
        get_error_every: Optional[int] = None,
        get_garbage_every: Optional[int] = None,
        get_slow_every: Optional[int] = None,
        put_error_every: Optional[int] = None,
        put_truncate_every: Optional[int] = None,
        slow_seconds: float = 0.01,
    ) -> None:
        self.inner = inner
        self.get_error_every = get_error_every
        self.get_garbage_every = get_garbage_every
        self.get_slow_every = get_slow_every
        self.put_error_every = put_error_every
        self.put_truncate_every = put_truncate_every
        self.slow_seconds = slow_seconds
        self.gets = 0
        self.puts = 0
        self.injected: Dict[str, int] = {
            "get_error": 0, "get_garbage": 0, "get_slow": 0,
            "put_error": 0, "put_truncate": 0,
        }

    @staticmethod
    def _fires(every: Optional[int], count: int) -> bool:
        return every is not None and every > 0 and count % every == 0

    def get(self, key: str) -> Optional[bytes]:
        self.gets += 1
        if self._fires(self.get_slow_every, self.gets):
            self.injected["get_slow"] += 1
            time.sleep(self.slow_seconds)
        if self._fires(self.get_error_every, self.gets):
            self.injected["get_error"] += 1
            raise StoreError("injected transport failure on get")
        if self._fires(self.get_garbage_every, self.gets):
            self.injected["get_garbage"] += 1
            return b"\x00\xffinjected garbage body\x00"
        return self.inner.get(key)

    def put(self, key: str, data: bytes) -> bool:
        self.puts += 1
        if self._fires(self.put_error_every, self.puts):
            self.injected["put_error"] += 1
            raise StoreError("injected transport failure on put")
        if self._fires(self.put_truncate_every, self.puts):
            self.injected["put_truncate"] += 1
            data = data[: max(1, len(data) // 2)]
        return self.inner.put(key, data)
