"""Fault tolerance for the execution stack: retries, timeouts, fault injection.

The engine's seed-derivation contract makes recovery *free of semantics*:
every compute unit — a chunk of flat points or one fold of a batched
point — is a pure function of its arguments (chip payload, spec, fold
seed), so a crashed, hung, corrupted or preempted unit can simply be
executed again and must produce the identical result.  This module turns
that property into an execution policy:

:class:`RetryPolicy`
    Bounded attempts with deterministic exponential backoff and an
    optional per-unit wall-clock timeout.  "Deterministic" matters: the
    backoff schedule is a pure function of the attempt number, so two
    runs that hit the same faults sleep the same — no jitter, no clock
    reads in the decision path, nothing for a reproduction to diverge on.
:class:`UnitRunner`
    The scheduler's submit/collect loop over any
    :class:`~repro.yieldsim.executors.Executor`, with the retry policy
    applied to failed, timed-out and corrupted units, and
    ``BrokenProcessPool`` survival (rebuild the pool, resubmit every unit
    that was in flight).  Because a resubmitted unit recomputes the
    identical value, a run that survived any number of incidents is
    **bit-identical** to an uninterrupted one — the property the chaos
    test lane (``pytest -m chaos``) enforces.
:class:`FaultInjectingExecutor` / :class:`FaultSchedule`
    The test harness for everything above: wraps any executor and, from
    a deterministic fault schedule, makes chosen units crash, hang past
    the timeout, return corrupted payloads, kill their worker process,
    or preempt the whole run mid-flight.
:class:`ResilienceStats`
    Incident counters (retries, timeouts, corrupt payloads, pool
    rebuilds, checkpoint resumes, quarantined cache entries) shared by
    the scheduler, the point cache and the engine; the registry folds a
    per-dispatch delta into the manifest provenance.  The field list
    lives with the other counter types in :mod:`repro.obs.counters`.

Checkpointing itself — the journaled partial-fold state that lets an
adaptive point resume at fold *k* — lives with the cache it extends, in
:class:`~repro.yieldsim.scheduler.PointCache`; this module only accounts
for it.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Tuple,
)

from repro.errors import SimulationError, UnitFailure
from repro.obs.counters import ResilienceStats
from repro.obs.events import get_logger, log_event
from repro.obs.trace import Tracer

__all__ = [
    "RetryPolicy",
    "ResilienceStats",
    "UnitRunner",
    "FaultSchedule",
    "FaultInjectingExecutor",
    "InjectedFault",
    "Preemption",
    "DEFAULT_RETRY_POLICY",
    "unit_digest",
]

_log = get_logger("resilience")


def unit_digest(fn: Callable[..., Any], args: Tuple[Any, ...]) -> str:
    """Content digest identifying a logical compute unit.

    A pure function of the unit's (function, args) payload — the same
    identity a :class:`FaultSchedule` keys on and the tracer stamps on
    unit spans, so a chaos-lane incident and its trace span name the
    same unit.
    """
    blob = pickle.dumps(
        (getattr(fn, "__module__", ""), getattr(fn, "__qualname__", ""), args)
    )
    return hashlib.sha256(blob).hexdigest()


class InjectedFault(RuntimeError):
    """The failure a :class:`FaultInjectingExecutor` crash-mode unit raises.

    Deliberately *not* a :class:`~repro.errors.ReproError`: an injected
    crash stands in for arbitrary worker failure (OOM kill, segfault,
    preempted VM), which the retry machinery must handle without knowing
    anything about it.
    """


class Preemption(Exception):
    """The whole run was preempted (simulated SIGKILL mid-sweep).

    Raised by a :class:`FaultSchedule` with ``preempt_after`` set once
    enough units have been submitted.  It is never retried — preemption
    kills the process, not a unit — so it propagates out of
    :meth:`UnitRunner.collect` and the scheduler run dies exactly as a
    real eviction would, leaving any fold checkpoints on disk for the
    next run to resume from.
    """


# -- the retry policy ---------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff.

    ``attempts`` is the *total* number of times a unit may execute (so
    ``attempts=3`` means one try plus two retries).  ``delay(n)`` after
    the ``n``-th failure is ``backoff_base * backoff_factor**(n-1)``
    capped at ``backoff_max`` — a pure function of ``n``, so recovery
    timing is reproducible.  ``unit_timeout`` (seconds of wall clock per
    unit execution) turns a hung unit into a retryable incident; ``None``
    waits forever.  ``pool_rebuilds`` bounds how many times a broken
    process pool is rebuilt within one scheduler run.
    """

    attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    unit_timeout: Optional[float] = None
    pool_rebuilds: int = 2

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise SimulationError(f"attempts must be >= 1, got {self.attempts}")
        if self.backoff_base < 0:
            raise SimulationError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.backoff_factor < 1:
            raise SimulationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.backoff_max < 0:
            raise SimulationError(
                f"backoff_max must be >= 0, got {self.backoff_max}"
            )
        if self.unit_timeout is not None and not self.unit_timeout > 0:
            raise SimulationError(
                f"unit_timeout must be > 0, got {self.unit_timeout}"
            )
        if self.pool_rebuilds < 0:
            raise SimulationError(
                f"pool_rebuilds must be >= 0, got {self.pool_rebuilds}"
            )

    def delay(self, failures: int) -> float:
        """Seconds to back off after the ``failures``-th failure (1-based)."""
        if failures < 1:
            return 0.0
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (failures - 1),
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "attempts": self.attempts,
            "backoff_base": self.backoff_base,
            "backoff_factor": self.backoff_factor,
            "backoff_max": self.backoff_max,
            "unit_timeout": self.unit_timeout,
            "pool_rebuilds": self.pool_rebuilds,
        }


#: The policy ``--retries``/``--unit-timeout`` re-shape.
DEFAULT_RETRY_POLICY = RetryPolicy()


# -- the resilient submit/collect loop ---------------------------------------

class _Unit:
    """One logical compute unit across its (possibly many) attempts."""

    __slots__ = (
        "token", "fn", "args", "validator", "attempts", "started",
        "trace_start", "digest",
    )

    def __init__(
        self,
        token: Hashable,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        validator: Optional[Callable[[Any], bool]],
    ):
        self.token = token
        self.fn = fn
        self.args = args
        self.validator = validator
        self.attempts = 0
        self.started = 0.0
        self.trace_start = 0.0
        self.digest = ""


class UnitRunner:
    """Submit/collect compute units with the retry policy applied.

    The scheduler drives its one submit/fold loop through one runner per
    :meth:`~repro.yieldsim.scheduler.PointScheduler.run` call.
    ``submit`` launches a unit under an opaque ``token``; ``collect``
    blocks until at least one unit *definitively* completes — retrying
    crashed, timed-out and corrupted attempts internally, with
    deterministic backoff — and returns ``(token, value)`` pairs.  A unit
    that exhausts its attempts raises :class:`~repro.errors.UnitFailure`;
    with no policy, the first failure propagates unwrapped (the
    historical behaviour).

    ``BrokenProcessPool`` is survived whether or not a policy is set
    (resubmission is always safe under the engine's purity contract):
    the pool is rebuilt via the executor's ``rebuild()`` hook and every
    in-flight unit is resubmitted, bounded by the policy's
    ``pool_rebuilds`` (default 2 without a policy).  A unit cancelled
    past its deadline also calls the executor's ``retire()`` hook (where
    it has one), so a long-lived pool does not carry a stuck worker into
    later runs.

    Per-token incident counts accumulate in :attr:`incidents` so the
    engine can attribute recovery work to individual sweep points.
    """

    def __init__(
        self,
        executor: Any,
        policy: Optional[RetryPolicy],
        stats: Optional[ResilienceStats] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        tracer: Optional[Tracer] = None,
    ):
        self.executor = executor
        self.policy = policy
        self.stats = stats if stats is not None else ResilienceStats()
        self.clock = clock
        self.sleep = sleep
        self.tracer = tracer
        self._inflight: Dict[Any, _Unit] = {}
        self._rebuilds = 0
        #: token -> {incident kind: count} for units that needed recovery
        self.incidents: Dict[Hashable, Dict[str, int]] = {}

    def __len__(self) -> int:
        return len(self._inflight)

    @property
    def free_slots(self) -> int:
        return max(0, int(self.executor.capacity) - len(self._inflight))

    def _note(self, token: Hashable, kind: str) -> None:
        bucket = self.incidents.setdefault(token, {})
        bucket[kind] = bucket.get(kind, 0) + 1

    def _incident(
        self,
        name: str,
        unit: _Unit,
        *,
        level: int = logging.INFO,
        **fields: Any,
    ) -> None:
        """Record one incident as a trace instant and a structured event.

        Trace args stay deterministic (token, unit digest, attempt);
        volatile detail (exception text) goes only to the event log.
        """
        if self.tracer is not None:
            self.tracer.instant(
                name, cat="incident", token=str(unit.token),
                unit=unit.digest, attempt=unit.attempts,
            )
        log_event(
            _log, name, level=level, token=str(unit.token),
            unit=unit.digest, attempt=unit.attempts, **fields,
        )

    # -- submission ------------------------------------------------------------
    def submit(
        self,
        token: Hashable,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        validator: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        unit = _Unit(token, fn, tuple(args), validator)
        if self.tracer is not None:
            unit.digest = unit_digest(fn, unit.args)[:16]
            unit.trace_start = self.tracer.now_us()
        self._launch(unit)

    def _launch(self, unit: _Unit) -> None:
        """Execute one attempt of ``unit`` (retrying inline failures)."""
        while True:
            unit.attempts += 1
            unit.started = self.clock()
            try:
                future = self.executor.submit(unit.fn, *unit.args)
            except Preemption:
                raise
            except BrokenExecutor as exc:
                self._rebuild_or_raise(unit, exc)
                continue
            except Exception as exc:
                # Immediate executors run the unit inside submit(), so a
                # unit crash surfaces here rather than from result().
                self._retry_or_raise(unit, exc, "retries")
                continue
            self._inflight[future] = unit
            return

    def cancel_where(self, predicate: Callable[[Hashable], bool]) -> None:
        """Drop (and cancel) in-flight units whose token matches."""
        for future, unit in list(self._inflight.items()):
            if predicate(unit.token):
                future.cancel()
                del self._inflight[future]

    # -- recovery decisions ----------------------------------------------------
    def _retry_or_raise(self, unit: _Unit, exc: BaseException, kind: str) -> None:
        """Account one failed attempt; back off for a retry or give up."""
        if self.policy is None:
            if isinstance(exc, Exception):
                raise exc
            raise UnitFailure(f"unit {unit.token!r} failed: {exc!r}") from exc
        if unit.attempts >= self.policy.attempts:
            raise UnitFailure(
                f"unit {unit.token!r} failed after {unit.attempts} "
                f"attempts: {exc!r}"
            ) from (exc if isinstance(exc, BaseException) else None)
        self.stats.retries += 1
        self._note(unit.token, kind)
        self._incident("unit_retry", unit, kind=kind, error=repr(exc))
        self.sleep(self.policy.delay(unit.attempts))

    def _rebuild_or_raise(self, unit: _Unit, exc: BaseException) -> None:
        """Rebuild a broken pool (bounded), or give the run up."""
        limit = self.policy.pool_rebuilds if self.policy is not None else 2
        rebuild = getattr(self.executor, "rebuild", None)
        if rebuild is None or self._rebuilds >= limit:
            raise UnitFailure(
                f"process pool broke and cannot be rebuilt "
                f"(rebuilds used: {self._rebuilds}/{limit}): {exc!r}"
            ) from exc
        self._rebuilds += 1
        self.stats.pool_rebuilds += 1
        self._incident(
            "pool_rebuild", unit, level=logging.WARNING,
            rebuilds=self._rebuilds, error=repr(exc),
        )
        rebuild()
        if self.policy is not None:
            self.sleep(self.policy.delay(self._rebuilds))

    def _drain_pool_break(self, first: _Unit, exc: BaseException) -> List[_Unit]:
        """A broken pool dooms *every* in-flight future: rebuild once and
        resubmit them all (each counts one failed attempt — the killer is
        indistinguishable from its victims)."""
        doomed = [first] + list(self._inflight.values())
        self._inflight.clear()
        self._rebuild_or_raise(first, exc)
        for unit in doomed:
            self._note(unit.token, "pool_rebuilds")
            if self.policy is not None and unit.attempts >= self.policy.attempts:
                raise UnitFailure(
                    f"unit {unit.token!r} failed after {unit.attempts} "
                    f"attempts: pool broke repeatedly"
                ) from exc
        return doomed

    # -- collection ------------------------------------------------------------
    def _next_timeout(self) -> Optional[float]:
        if self.policy is None or self.policy.unit_timeout is None:
            return None
        now = self.clock()
        deadlines = [
            unit.started + self.policy.unit_timeout
            for unit in self._inflight.values()
        ]
        return max(0.001, min(deadlines) - now) if deadlines else None

    def _validate(self, unit: _Unit, value: Any) -> bool:
        if unit.validator is None:
            return True
        try:
            return bool(unit.validator(value))
        except Exception:
            return False

    def collect(self) -> List[Tuple[Hashable, Any]]:
        """Block until >=1 unit definitively completes; return its results.

        Internally loops over ``wait_any``, funnelling every failure mode
        through the policy: a crashed unit retries, a corrupted payload
        (validator says no) retries, a unit that missed its deadline
        without completing is cancelled and retried, and a broken pool is
        rebuilt with all in-flight units resubmitted.  A unit that
        completed *late* is counted as a timeout incident but its value
        is kept — by the purity contract it equals what the retry would
        recompute, so discarding it would only waste the work.
        """
        out: List[Tuple[Hashable, Any]] = []
        while self._inflight and not out:
            done = self.executor.wait_any(
                set(self._inflight), timeout=self._next_timeout()
            )
            now = self.clock()
            to_retry: List[_Unit] = []
            for future in done:
                unit = self._inflight.pop(future, None)
                if unit is None:
                    continue  # drained by an earlier pool break this round
                try:
                    value = future.result()
                except Preemption:
                    raise
                except BrokenExecutor as exc:
                    to_retry.extend(self._drain_pool_break(unit, exc))
                    continue
                except Exception as exc:
                    self._retry_or_raise(unit, exc, "retries")
                    to_retry.append(unit)
                    continue
                if not self._validate(unit, value):
                    self.stats.corrupt_units += 1
                    self._note(unit.token, "corrupt_units")
                    self._incident("unit_corrupt", unit)
                    self._retry_or_raise(
                        unit,
                        SimulationError(
                            f"unit {unit.token!r} returned a corrupt payload"
                        ),
                        "retries",
                    )
                    to_retry.append(unit)
                    continue
                if (
                    self.policy is not None
                    and self.policy.unit_timeout is not None
                    and now - unit.started > self.policy.unit_timeout
                ):
                    # Completed, but past its deadline: count the incident,
                    # keep the (bit-identical-by-contract) value.
                    self.stats.timeouts += 1
                    self._note(unit.token, "timeouts")
                    self._incident("unit_timeout", unit, late=True)
                out.append((unit.token, value))
                if self.tracer is not None:
                    end = self.tracer.now_us()
                    self.tracer.complete(
                        "unit", unit.trace_start,
                        end - unit.trace_start, cat="unit",
                        token=str(unit.token), unit=unit.digest,
                        attempts=unit.attempts,
                    )
            if self.policy is not None and self.policy.unit_timeout is not None:
                for future, unit in list(self._inflight.items()):
                    if now - unit.started > self.policy.unit_timeout:
                        future.cancel()
                        del self._inflight[future]
                        # Its worker may stay stuck: let the executor
                        # retire that pool once the run ends.
                        retire = getattr(self.executor, "retire", None)
                        if retire is not None:
                            retire()
                        self.stats.timeouts += 1
                        self._note(unit.token, "timeouts")
                        self._incident("unit_timeout", unit, late=False)
                        self._retry_or_raise(
                            unit,
                            SimulationError(
                                f"unit {unit.token!r} exceeded its "
                                f"{self.policy.unit_timeout}s timeout"
                            ),
                            "timeouts",
                        )
                        to_retry.append(unit)
            for unit in to_retry:
                self._launch(unit)
        return out


# -- fault injection ----------------------------------------------------------

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


def _hash_draw(seed: int, ordinal: int) -> Tuple[float, int]:
    """A deterministic (uniform in [0,1), pick) pair per (seed, unit)."""
    digest = hashlib.sha256(f"fault:{seed}:{ordinal}".encode("ascii")).digest()
    u = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return u, int.from_bytes(digest[8:12], "big")


@dataclass(frozen=True)
class FaultSchedule:
    """Which units fault, how, and for how many attempts — deterministically.

    Periodic rules (``crash_every=3`` faults every 3rd logical unit) give
    the exact grids the chaos lane asserts on; ``rate`` + ``seed`` draw
    seeded random faults over ``modes`` for soak-style tests.  Faults
    apply to the first ``fault_attempts`` attempts of a unit, so with the
    default of 1 every retry succeeds; raise it to test attempt
    exhaustion.  ``preempt_after`` simulates eviction: once that many
    submissions have happened, every further submit raises
    :class:`Preemption`, killing the run mid-flight (checkpoints stay on
    disk for the resume-path tests).
    """

    crash_every: Optional[int] = None
    hang_every: Optional[int] = None
    corrupt_every: Optional[int] = None
    kill_every: Optional[int] = None
    rate: float = 0.0
    seed: int = 0
    modes: Tuple[str, ...] = ("crash", "corrupt")
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
        if self.rate > 0:
            u, pick = _hash_draw(self.seed, ordinal)
            if u < self.rate:
                return self.modes[pick % len(self.modes)]
        return None


class FaultInjectingExecutor:
    """Wraps any executor and injects scheduled faults into its units.

    Logical units are identified by a digest of their (function, args)
    payload, so a *retried* unit keeps its ordinal and attempt count —
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

    def _unit_key(self, fn: Callable[..., Any], args: Tuple[Any, ...]) -> str:
        return unit_digest(fn, args)

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
        state = self._units.setdefault(
            self._unit_key(fn, args), [len(self._units), 0]
        )
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
