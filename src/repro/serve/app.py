"""The ``repro serve`` asyncio HTTP application.

Stdlib only: ``asyncio.start_server`` plus a deliberately minimal
HTTP/1.1 handler (request line, headers, Content-Length body; one request
per connection, ``Connection: close``).  Endpoints::

    GET  /                      service info + endpoint index
    GET  /health                liveness probe
    GET  /experiments           machine-readable registry (repro list --json)
    GET  /experiments/{name}    one experiment descriptor
    POST /experiments/{name}    run a full experiment -> artifact bundle
    POST /points                compute/fetch one sweep point
    GET  /stats                 coalescing + engine cache/budget counters
    GET  /metrics               the same counters in Prometheus text format

Request coalescing
------------------
A ``POST /points`` body resolves to an :class:`~repro.yieldsim.scheduler.
EnginePoint` whose engine point-cache key is its content identity.  The
:class:`~repro.serve.coalesce.CoalescingMap` single-flights concurrent
identical requests on that key *before any compute is scheduled*: one
leader computes (through the shared engine, so the on-disk point cache
and all bit-identity guarantees apply), every concurrent duplicate awaits
the same future.  Full-experiment requests coalesce the same way on a
digest of their canonical parameters.

Points with ``"stream": true`` respond as NDJSON: an ``accepted`` line,
one ``fold`` line per in-order fold (driven by the scheduler's fold
hook; a flat point folds once, an adaptive or sharded point once per
batch), then a final ``result`` line identical to the non-streaming
body.

Compute runs on a worker thread (`asyncio.to_thread`) under a process-wide
lock: the engine itself parallelizes across its executor, and the lock
keeps the shared engine's accounting coherent.  The event loop stays free
to accept, coalesce and stream while a computation is running.  The one
exception is a plain point request whose entry sits in the local cache
tier while the lock is free: it is answered on the loop, through the same
engine load and counters, because two thread hand-offs cost about as much
as the hit itself (perfbench ``serve`` on a shared 2-vCPU host: median hit
1.8 ms, against 2.8 ms through a worker thread).  A hit that finds the
lock held, a remote-only entry and every computation keep the worker
thread.  With ``--jobs N`` the engine's worker pool is forked at the first
request that needs it and serves every later one; it is closed after the
drain.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import logging
import signal
import threading
import time
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, Iterator, Optional, Tuple

from repro.chip.biochip import Biochip
from repro.designs.catalog import ALL_DESIGNS
from repro.designs.interstitial import build_with_primary_count
from repro.errors import ExperimentError, ReproError, ServeError
from repro.experiments import registry
from repro.experiments.artifacts import ArtifactRun, bundle_payload
from repro.obs.events import ensure_configured, get_logger, log_event
from repro.obs.metrics import Histogram, engine_families, render, server_families
from repro.obs.trace import Tracer
from repro.serve.coalesce import CoalescingMap, InflightEntry
from repro.serve.protocol import (
    PROTOCOL_SCHEMA,
    BundleRequest,
    PointRequest,
    error_payload,
    experiment_listing,
)
from repro.yieldsim.cachestore import (
    SharedFSStore,
    content_digest,
    valid_key,
)
from repro.yieldsim.defects import family_from_spec
from repro.yieldsim.engine import SweepEngine
from repro.yieldsim.kernel import PointSpec
from repro.yieldsim.scheduler import EnginePoint, chip_identity
from repro.yieldsim.stats import YieldEstimate, wilson_half_width

__all__ = ["ServeConfig", "ReproServer", "BackgroundServer", "serve_forever"]

_log = get_logger("serve")

#: Retry-After hint (seconds) sent with every 503
RETRY_AFTER_S = 1.0

_HTTP_REASONS = {
    200: "OK",
    201: "Created",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass(frozen=True)
class ServeConfig:
    """HTTP settings; the engine is passed to the server separately."""

    host: str = "127.0.0.1"
    port: int = 8765
    #: artifact directory full-experiment bundles are persisted into
    #: (None serves bundles without writing them)
    out_dir: Optional[str] = None
    #: hard per-request Monte-Carlo ceiling (a public server must bound
    #: what one request can spend)
    max_runs: int = 1_000_000
    max_body_bytes: int = 1 << 20
    #: deadline in seconds for a non-streaming compute request; on expiry
    #: the client gets 503 + Retry-After while the computation keeps
    #: running (a later identical request hits the cache).  None = wait.
    request_timeout: Optional[float] = None
    #: saturation bound: a request that would *start* a new computation
    #: while this many are already in flight is refused with 503 +
    #: Retry-After (joining an existing computation is always allowed).
    max_inflight: int = 32
    #: how long shutdown waits for in-flight requests to finish draining
    drain_timeout: float = 10.0
    #: directory of a content-addressed object tree this server *serves*
    #: under ``/cache/objects/{digest}`` (the ``repro cache-serve``
    #: entry point; also mountable on a full ``repro serve``)
    cache_objects: Optional[str] = None

    def __post_init__(self) -> None:
        # Each of these would start a server that cannot do its job, e.g.
        # max_inflight=0 refuses every new computation with 503 forever.
        if self.max_runs < 1:
            raise ServeError(f"max_runs must be >= 1, got {self.max_runs}")
        if self.max_body_bytes < 1:
            raise ServeError(
                f"max_body_bytes must be >= 1, got {self.max_body_bytes}"
            )
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise ServeError(
                f"request_timeout must be > 0, got {self.request_timeout}"
            )
        if self.max_inflight < 1:
            raise ServeError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.drain_timeout < 0:
            raise ServeError(
                f"drain_timeout must be >= 0, got {self.drain_timeout}"
            )


def _normalize_design(name: str) -> str:
    return "".join(ch for ch in name.lower() if ch.isalnum())


#: catalog lookup tolerant of CLI-ish spellings: "DTMB(2,6)", "dtmb-2-6",
#: "dtmb26" all resolve to the same design.
_DESIGNS_NORMALIZED = {_normalize_design(d.name): d for d in ALL_DESIGNS}


class ReproServer:
    """Routing + request handling over one shared engine.

    ``engine`` is what the server computes with (``repro serve`` builds
    it from the engine flags); tests inject one to count compute units
    with an :class:`~repro.yieldsim.executors.InlineExecutor` or to
    pre-warm a cache.  The default is a serial, uncached engine.
    """

    #: how many times a dead leader's computation is re-led by a follower
    #: before the failure is answered as-is
    MAX_PROMOTIONS = 2

    def __init__(self, config: ServeConfig, engine: Optional[SweepEngine] = None):
        self.config = config
        self.engine = engine if engine is not None else SweepEngine()
        #: the object tree served under /cache/objects (None = not mounted)
        self.object_store: Optional[SharedFSStore] = (
            SharedFSStore(config.cache_objects)
            if config.cache_objects is not None
            else None
        )
        #: serializes engine compute; the engine parallelizes internally
        self._compute_lock = threading.Lock()
        self.points = CoalescingMap()
        self.bundles = CoalescingMap()
        #: (normalized design, n) -> built chip, and payload digest -> chip
        self._chips: Dict[Tuple[str, int], Tuple[Biochip, str]] = {}
        self._chips_by_digest: Dict[str, Biochip] = {}
        self.requests = 0
        self.errors = 0
        #: requests refused with 503 (saturation) or expired (deadline)
        self.rejected = 0
        #: connections currently inside a handler (shutdown drains these)
        self.active = 0
        #: the one stateful metric; every other /metrics family is read
        #: from the live objects /stats reads, at scrape time
        self.request_seconds = Histogram(
            "repro_http_request_seconds",
            "Wall seconds spent answering one HTTP request",
        )

    # -- request resolution ----------------------------------------------------
    def _chip_for(self, request: PointRequest) -> Tuple[Biochip, str]:
        """The (chip, payload digest) a point request addresses."""
        if request.chip_digest is not None:
            chip = self._chips_by_digest.get(request.chip_digest)
            if chip is None:
                raise ServeError(
                    f"unknown chip_digest {request.chip_digest!r}: this "
                    "server has not built that chip yet (address it by "
                    "design + n first; every point response includes the "
                    "digest)"
                )
            return chip, request.chip_digest
        key = (_normalize_design(request.design), int(request.n))
        built = self._chips.get(key)
        if built is None:
            spec = _DESIGNS_NORMALIZED.get(key[0])
            if spec is None:
                known = ", ".join(d.name for d in ALL_DESIGNS)
                raise ServeError(
                    f"unknown design {request.design!r}; catalog has: {known}"
                )
            chip = build_with_primary_count(spec, request.n).build()
            _, digest = chip_identity(chip)
            built = (chip, digest)
            self._chips[key] = built
            self._chips_by_digest[digest] = chip
        return built

    def _check_runs(self, runs: int) -> None:
        if runs > self.config.max_runs:
            raise ServeError(
                f"runs {runs} exceeds this server's ceiling "
                f"({self.config.max_runs})"
            )

    def _task_for(self, request: PointRequest) -> Tuple[EnginePoint, str]:
        """Resolve a validated request into an engine task + chip digest."""
        self._check_runs(request.runs)
        chip, digest = self._chip_for(request)
        criterion = None
        if request.criterion is not None:
            from repro.functional import criterion_from_spec

            criterion = criterion_from_spec(request.criterion)
        if request.defect_model is not None:
            family = family_from_spec(request.defect_model)
            model = family(chip, request.param)
            spec = PointSpec.from_model(
                model, request.runs, request.seed, param=request.param,
                criterion=criterion,
            )
        else:
            spec = PointSpec(
                request.kind, request.param, request.runs, request.seed,
                criterion=criterion,
            )
        task = EnginePoint(chip, spec, None, request.stop_rule())
        task.spec.validate(len(chip))
        return task, digest

    def _knobs_for(
        self, experiment: registry.Experiment, request: BundleRequest
    ) -> Dict[str, object]:
        """The experiment knobs a bundle request sets, gated per experiment."""
        knobs: Dict[str, object] = {}
        if request.defect_model is not None:
            knobs["model"] = family_from_spec(request.defect_model)
            if not experiment.model_knob:
                raise ServeError(
                    f"{experiment.name} does not accept defect_model "
                    "(its fault regime is part of the experiment definition)"
                )
        if request.criterion is not None:
            from repro.functional import criterion_from_spec

            knobs["criterion"] = criterion_from_spec(request.criterion)
            if not experiment.criterion_knob:
                raise ServeError(
                    f"{experiment.name} does not accept criterion "
                    "(its success predicate is part of the experiment "
                    "definition)"
                )
        return knobs

    # -- compute (leader side) -------------------------------------------------
    @contextlib.contextmanager
    def _computing(self, held: bool = False) -> Iterator[None]:
        """Hold the compute lock; drop the point records the turn appended.

        Every request appends to ``engine.point_log`` (``registry.execute``
        reads its own slice of it), and the server reads none of it once
        the request is answered, so a long-running server keeps none.
        ``held=True`` takes over a lock the caller already acquired.
        """
        if not held:
            self._compute_lock.acquire()
        try:
            log0 = len(self.engine.point_log)
            try:
                yield
            finally:
                del self.engine.point_log[log0:]
        finally:
            self._compute_lock.release()

    def _hit_inline(
        self, task: EnginePoint, key: str
    ) -> Optional[YieldEstimate]:
        """Answer a local cache hit on the event loop; ``None`` = not one.

        Only when no computation holds the compute lock, and only from
        the local tier: a remote store is never read on the loop.  A valid
        entry then loads through ``run_points`` like any hit — counters,
        ``points.computed`` included, move exactly as on the thread path,
        and no compute unit runs: the peek and the load run back to back
        under the lock, and nothing in the server deletes a point entry.
        Anything else (lock busy, local miss, corrupt file) is left to
        the caller's thread path.
        """
        if not self._compute_lock.acquire(blocking=False):
            return None
        with self._computing(held=True):
            batched = self.engine.scheduler.task_batch(task) is not None
            if self.engine.cache.peek_local(key, task.spec, batched) is None:
                return None
            entry, _ = self.points.join(key)
            try:
                [estimate] = self.engine.run_points([task])
            except BaseException as exc:
                self.points.leave(entry)  # no waiter: fail() cancels
                self.points.fail(entry, exc)
                raise
        self.points.resolve(entry, (estimate, None))
        return estimate

    async def _lead(
        self, cmap: CoalescingMap, entry: InflightEntry,
        work: Callable[[], object],
    ) -> None:
        """Run ``work`` on a worker thread and settle ``entry`` with it."""
        try:
            result = await asyncio.to_thread(work)
        except BaseException as exc:  # noqa: BLE001 - leader must settle the future
            cmap.fail(entry, exc)
        else:
            cmap.resolve(entry, result)

    def _point_work(
        self, entry: InflightEntry, task: EnginePoint, trace: bool
    ) -> Callable[[], Tuple[YieldEstimate, Optional[Dict[str, object]]]]:
        """Compute ``task``, yielding ``(estimate, trace)``; folds stream to ``entry``.

        When the leading request asked for a trace, a fresh
        :class:`~repro.obs.trace.Tracer` is attached to the shared engine
        for the duration of the computation — safe because engine compute
        is serialized under ``_compute_lock`` — and its Chrome-trace dict
        rides the resolved value (``None`` otherwise).  Telemetry is
        out-of-band: the estimate is bit-identical either way.
        """
        def on_fold(_index: int, successes: int, trials: int) -> None:
            entry.publish_threadsafe(
                {
                    "event": "fold",
                    "successes": successes,
                    "trials": trials,
                    "value": successes / trials,
                    "half_width": wilson_half_width(successes, trials),
                }
            )

        def work() -> Tuple[YieldEstimate, Optional[Dict[str, object]]]:
            with self._computing():
                tracer = Tracer() if trace else None
                previous = self.engine.tracer
                if tracer is not None:
                    self.engine.tracer = tracer
                try:
                    estimate = self.engine.run_points([task], on_fold=on_fold)[0]
                finally:
                    if tracer is not None:
                        self.engine.tracer = previous
                return estimate, (
                    tracer.to_dict() if tracer is not None else None
                )

        return work

    def _bundle_work(
        self,
        experiment: registry.Experiment,
        request: BundleRequest,
        knobs: Dict[str, object],
    ) -> Dict[str, object]:
        """Run one experiment and build its bundle (persisted with --out)."""
        with self._computing():
            result = registry.execute(
                experiment,
                runs=request.runs,
                seed=request.seed,
                engine=self.engine,
                options={
                    "adaptive": bool(request.adaptive or request.target_ci),
                    "target_ci": request.target_ci,
                },
                knobs=knobs or None,
            )
        payload = bundle_payload(result)
        payload["schema"] = PROTOCOL_SCHEMA
        payload["artifacts"] = None
        if self.config.out_dir is not None:
            run = ArtifactRun(
                self.config.out_dir,
                runs=request.runs,
                seed=request.seed,
                jobs=self.engine.jobs,
                cache_dir=self.engine.cache_dir,
            )
            files = run.add(result)["files"]
            run.finalize()
            payload["artifacts"] = {"dir": self.config.out_dir, "files": files}
        return payload

    # -- endpoint bodies -------------------------------------------------------
    def _point_payload(
        self,
        request: PointRequest,
        key: str,
        chip_digest: str,
        task: EnginePoint,
        estimate: YieldEstimate,
        coalesced: bool,
    ) -> Dict[str, object]:
        lo, hi = estimate.interval
        criterion = task.spec.criterion
        return {
            "schema": PROTOCOL_SCHEMA,
            "key": key,
            "chip_digest": chip_digest,
            "design": request.design,
            "n": request.n,
            "kind": request.kind,
            "param": request.param,
            "seed": request.seed,
            "defect_model": request.defect_model,
            "criterion": criterion.spec() if criterion is not None else None,
            "criterion_digest": (
                criterion.digest() if criterion is not None else None
            ),
            "adaptive": task.stop is not None,
            "runs_requested": task.spec.runs,
            "successes": estimate.successes,
            "trials": estimate.trials,
            "value": estimate.value,
            "lo": lo,
            "hi": hi,
            "coalesced": coalesced,
        }

    def stats_payload(self) -> Dict[str, object]:
        return {
            "schema": PROTOCOL_SCHEMA,
            "requests": self.requests,
            "errors": self.errors,
            "rejected": self.rejected,
            "points": {
                "computed": self.points.leaders,
                "coalesced": self.points.followers,
                "promoted": self.points.promotions,
                "inflight": len(self.points),
            },
            "bundles": {
                "computed": self.bundles.leaders,
                "coalesced": self.bundles.followers,
                "promoted": self.bundles.promotions,
                "inflight": len(self.bundles),
            },
            "engine": {
                "jobs": self.engine.jobs,
                "cache_dir": self.engine.cache_dir,
                "cache_hits": self.engine.cache_hits,
                "cache_misses": self.engine.cache_misses,
                "runs_requested": self.engine.runs_requested,
                "runs_effective": self.engine.runs_effective,
                **(
                    {"cache": self.engine.store_stats.as_dict()}
                    if self.engine.cache_store is not None
                    else {}
                ),
            },
            "resilience": self.engine.resilience.as_dict(),
            **(
                {
                    "cache_objects": {
                        "dir": self.config.cache_objects,
                        "count": len(self.object_store.list_keys()),
                        "corrupt": self.object_store.corrupt,
                    }
                }
                if self.object_store is not None
                else {}
            ),
        }

    def health_payload(self) -> Dict[str, object]:
        """Liveness plus the executor/retry/checkpoint state of the stack."""
        inflight = len(self.points) + len(self.bundles)
        executor = self.engine.executor
        retry = self.engine.retry
        return {
            "status": "ok",
            "schema": PROTOCOL_SCHEMA,
            "inflight": inflight,
            "saturated": inflight >= self.config.max_inflight,
            "executor": {
                "name": executor.name if executor is not None else (
                    "serial" if self.engine.jobs == 1 else "pool"
                ),
                "jobs": self.engine.jobs,
            },
            "retry": retry.as_dict() if retry is not None else None,
            "checkpoint": {
                "enabled": self.engine.checkpoint,
                "cache_dir": self.engine.cache_dir,
            },
            "resilience": self.engine.resilience.as_dict(),
        }

    def _info_payload(self) -> Dict[str, object]:
        import repro

        return {
            "service": "repro-serve",
            "version": repro.__version__,
            "schema": PROTOCOL_SCHEMA,
            "endpoints": [
                "GET /experiments",
                "GET /experiments/{name}",
                "POST /experiments/{name}",
                "POST /points",
                "GET /stats",
                "GET /metrics",
                "GET /health",
                "GET|HEAD|PUT /cache/objects/{digest}",
                "GET /cache/keys",
            ],
        }

    # -- HTTP plumbing ---------------------------------------------------------
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.active += 1
        try:
            await self._handle(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass  # client went away mid-request; nothing to answer
        finally:
            self.active -= 1
            try:
                # close() without wait_closed(): every response drains
                # before we get here, and lingering in wait_closed keeps
                # handler tasks alive into shutdown cancellation.
                writer.close()
            except (ConnectionError, OSError):
                pass

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        request_line = await reader.readline()
        if not request_line.strip():
            return
        try:
            method, target, _version = request_line.decode("latin-1").split()
        except ValueError:
            await self._send_error(writer, 400, "malformed request line")
            return
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", 0) or 0)
        except ValueError:
            length = -1
        if length < 0:
            await self._send_error(
                writer, 400, "Content-Length must be a non-negative integer"
            )
            return
        if length > self.config.max_body_bytes:
            await self._send_error(
                writer, 413, f"body exceeds {self.config.max_body_bytes} bytes"
            )
            return
        body = await reader.readexactly(length) if length else b""

        self.requests += 1
        path = target.partition("?")[0]
        verb = method.upper()
        started = time.perf_counter()
        log_event(
            _log, "request", level=logging.DEBUG,
            msg=f"{verb} {path} ({len(body)} byte body)",
            method=verb, path=path, body_bytes=len(body),
        )
        try:
            await self._route(verb, path, body, headers, writer)
        except ServeError as exc:
            self._request_error(verb, path, 400, exc)
            await self._send_json(writer, 400, error_payload(exc))
        except ExperimentError as exc:
            # the one lookup-shaped error: unknown experiment name
            self._request_error(verb, path, 404, exc)
            await self._send_json(writer, 404, error_payload(exc))
        except ReproError as exc:
            self._request_error(verb, path, 400, exc)
            await self._send_json(writer, 400, error_payload(exc))
        except (ConnectionError, asyncio.CancelledError):
            raise
        except Exception as exc:  # noqa: BLE001 - a server answers, never crashes
            self._request_error(verb, path, 500, exc)
            await self._send_json(writer, 500, error_payload(exc))
        finally:
            self.request_seconds.observe(time.perf_counter() - started)

    def _request_error(
        self, method: str, path: str, status: int, exc: BaseException
    ) -> None:
        self.errors += 1
        log_event(
            _log, "request_error", level=logging.WARNING,
            msg=f"{method} {path} -> {status}: {exc}",
            method=method, path=path, status=status,
            error=type(exc).__name__,
        )

    async def _route(
        self, method: str, path: str, body: bytes,
        headers: Dict[str, str], writer: asyncio.StreamWriter,
    ) -> None:
        if path.startswith("/cache/"):
            await self._handle_cache(method, path, body, headers, writer)
            return
        if path == "/points":
            if method != "POST":
                await self._send_error(writer, 405, "POST /points")
                return
            await self._handle_point(body, writer)
            return
        if path == "/experiments" or path == "/experiments/":
            if method != "GET":
                await self._send_error(writer, 405, "GET /experiments")
                return
            await self._send_json(writer, 200, experiment_listing())
            return
        if path.startswith("/experiments/"):
            name = path[len("/experiments/"):]
            if method == "GET":
                await self._send_json(writer, 200, registry.get(name).as_dict())
            elif method == "POST":
                await self._handle_bundle(name, body, writer)
            else:
                await self._send_error(
                    writer, 405, "GET or POST /experiments/{name}"
                )
            return
        if path == "/stats" and method == "GET":
            await self._send_json(writer, 200, self.stats_payload())
            return
        if path == "/metrics" and method == "GET":
            text = render(engine_families(self.engine) + server_families(self))
            await self._send(
                writer, 200, text.encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
            return
        if path == "/health" and method == "GET":
            await self._send_json(writer, 200, self.health_payload())
            return
        if path == "/" and method == "GET":
            await self._send_json(writer, 200, self._info_payload())
            return
        await self._send_error(writer, 404, f"no route {method} {path}")

    # -- degradation helpers ---------------------------------------------------
    def _would_saturate(self, cmap: CoalescingMap, key: str) -> bool:
        """Would leading ``key`` exceed the in-flight computation bound?

        Joining an existing computation never saturates — a follower adds
        no compute — so only would-be leaders are refused.
        """
        if key in cmap:
            return False
        return len(self.points) + len(self.bundles) >= self.config.max_inflight

    async def _send_busy(
        self, writer: asyncio.StreamWriter, message: str
    ) -> None:
        self.rejected += 1
        await self._send_json(
            writer, 503,
            {"error": "ServiceUnavailable", "message": message,
             "retry_after_s": RETRY_AFTER_S},
            headers={"Retry-After": str(round(RETRY_AFTER_S))},
        )

    async def _admit(
        self, cmap: CoalescingMap, key: str, writer: asyncio.StreamWriter
    ) -> bool:
        """Refuse (503) a request that would start one computation too many."""
        if not self._would_saturate(cmap, key):
            return True
        await self._send_busy(
            writer, f"{self.config.max_inflight} computations already in flight"
        )
        return False

    async def _coalesce(
        self,
        cmap: CoalescingMap,
        label: str,
        key: str,
        lead: Callable[[InflightEntry], Callable[[], object]],
        writer: asyncio.StreamWriter,
        on_join: Optional[Callable[[InflightEntry, bool], Awaitable[None]]] = None,
    ) -> Optional[Tuple[object, bool]]:
        """Join ``key``, lead it if first, and await its result.

        The first joiner runs ``lead(entry)`` — the computation's thread
        work — through :meth:`_lead`; everyone awaits the shared future.
        Returns ``(result, leader)``, or ``None`` after answering 503 when
        the request deadline expired (the computation keeps running).

        ``on_join(entry, leader)`` is awaited after every join, before the
        result: a stream subscribes there and forwards fold events.  It
        must subscribe before its first ``await`` — the leader's task only
        starts once this coroutine yields.  Streams are exempt from the
        deadline; their fold lines are the liveness signal.

        When the leader dies of a non-deterministic failure, every waiter
        re-joins and one re-leads — safe, because the computation is a
        pure function of the key — up to :attr:`MAX_PROMOTIONS` times.
        """
        timeout = self.config.request_timeout if on_join is None else None
        promotions = 0
        while True:
            entry, leader = cmap.join(key)
            if leader:
                asyncio.ensure_future(self._lead(cmap, entry, lead(entry)))
            try:
                if on_join is not None:
                    await on_join(entry, leader)
                result = await asyncio.wait_for(
                    asyncio.shield(entry.future), timeout
                )
                return result, leader
            except asyncio.TimeoutError:
                if entry.future.done():
                    raise  # the leader's own failure, not our deadline
                cmap.leave(entry)
                await self._send_busy(
                    writer,
                    f"request exceeded its {self.config.request_timeout}s "
                    "deadline; the computation continues — retry to fetch it",
                )
                return None
            except BaseException as exc:
                # Only a settled future means the leader's computation
                # died (vs. this request being cancelled).  A request
                # error would fail identically when re-led: answer as-is.
                if (
                    not entry.future.done()
                    or isinstance(exc, ReproError)
                    or promotions >= self.MAX_PROMOTIONS
                ):
                    raise
                promotions += 1
                cmap.promotions += 1
                log_event(
                    _log, "leader_election", map=label, key=key[:16],
                    promotions=promotions,
                )

    async def _handle_point(
        self, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        request = PointRequest.from_dict(_parse_json(body))
        task, chip_digest = self._task_for(request)
        key = self.engine.point_key(task)
        if not await self._admit(self.points, key, writer):
            return
        if not (request.stream or request.trace) and key not in self.points:
            estimate = self._hit_inline(task, key)
            if estimate is not None:
                await self._send_json(writer, 200, self._point_payload(
                    request, key, chip_digest, task, estimate, coalesced=False
                ))
                return
        trace = request.trace and not request.stream

        def lead(entry: InflightEntry) -> Callable[[], object]:
            return self._point_work(entry, task, trace)

        on_join = None
        if request.stream:
            # NDJSON stream: accepted, folds (one for a flat point),
            # result.  A promoted stream restarts from the new leader's
            # folds; only the first join is announced.
            await self._send(writer, 200, None, "application/x-ndjson")
            joins = 0

            async def on_join(entry: InflightEntry, leader: bool) -> None:
                nonlocal joins
                queue = entry.subscribe()
                joins += 1
                if joins == 1:
                    await self._send_line(
                        writer,
                        {"event": "accepted", "key": key,
                         "chip_digest": chip_digest, "coalesced": not leader},
                    )
                while (event := await queue.get()) is not None:
                    await self._send_line(writer, event)

        joined = await self._coalesce(
            self.points, "points", key, lead, writer, on_join
        )
        if joined is None:
            return
        (estimate, trace_payload), leader = joined
        payload = self._point_payload(
            request, key, chip_digest, task, estimate, coalesced=not leader
        )
        if request.stream:
            await self._send_line(writer, {"event": "result", **payload})
            return
        if request.trace:
            # A coalesced request rides another leader's computation:
            # there is no trace of *its own* to return.
            payload["trace"] = trace_payload if leader else None
        await self._send_json(writer, 200, payload)

    async def _handle_bundle(
        self, name: str, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        experiment = registry.get(name)  # unknown name -> ExperimentError -> 404
        request = BundleRequest.from_dict(experiment.name, _parse_json(body))
        self._check_runs(request.runs)
        knobs = self._knobs_for(experiment, request)
        blob = json.dumps(request.identity(), sort_keys=True, separators=(",", ":"))
        key = hashlib.sha256(blob.encode("ascii")).hexdigest()
        if not await self._admit(self.bundles, key, writer):
            return

        def lead(_entry: InflightEntry) -> Callable[[], object]:
            return lambda: self._bundle_work(experiment, request, knobs)

        joined = await self._coalesce(self.bundles, "bundles", key, lead, writer)
        if joined is None:
            return
        bundle, leader = joined
        await self._send_json(writer, 200, {**bundle, "coalesced": not leader})

    # -- the cache-object endpoint ---------------------------------------------
    async def _handle_cache(
        self, method: str, path: str, body: bytes,
        headers: Dict[str, str], writer: asyncio.StreamWriter,
    ) -> None:
        """``GET/PUT/HEAD /cache/objects/{key}`` and ``GET /cache/keys``.

        The HTTP face of a :class:`SharedFSStore`: digests travel in
        ``X-Repro-Digest`` both ways, a PUT whose body does not hash to
        its declared digest is refused (a truncated upload stores
        nothing), and a GET whose ``If-None-Match`` equals the object's
        digest is answered 304 with no body.
        """
        store = self.object_store
        if store is None:
            await self._send_error(
                writer, 404,
                "no cache store mounted (start with `repro cache-serve` or "
                "--cache-objects)",
            )
            return
        if path == "/cache/keys":
            if method != "GET":
                await self._send_error(writer, 405, "GET /cache/keys")
                return
            keys = store.list_keys()
            await self._send_json(
                writer, 200,
                {"schema": PROTOCOL_SCHEMA, "count": len(keys), "keys": keys},
            )
            return
        if not path.startswith("/cache/objects/"):
            await self._send_error(writer, 404, f"no route {method} {path}")
            return
        key = path[len("/cache/objects/"):]
        if not valid_key(key):
            await self._send_error(writer, 400, f"invalid object key {key!r}")
            return
        if method in ("GET", "HEAD"):
            payload = store.get(key)
            if payload is None:
                await self._send_error(writer, 404, f"no object {key}")
                return
            digest = content_digest(payload)
            tags = {"X-Repro-Digest": digest, "ETag": f'"{digest}"'}
            if headers.get("if-none-match", "").strip('"') == digest:
                # A 304 has no content (RFC 9110 §15.4.5): the head only.
                await self._send(
                    writer, 304, None, "application/octet-stream", tags
                )
                return
            await self._send(
                writer, 200, b"" if method == "HEAD" else payload,
                "application/octet-stream", tags, length=len(payload),
            )
            return
        if method == "PUT":
            declared = headers.get("x-repro-digest")
            got = content_digest(body)
            if declared is not None and declared != got:
                # The body that arrived is not the body the client hashed:
                # a truncated or corrupted upload.  Nothing is stored.
                await self._send_error(
                    writer, 400,
                    f"body digest {got[:16]}... does not match declared "
                    f"{declared[:16]}...; upload refused",
                )
                return
            stored = store.put(key, body)
            await self._send_json(
                writer, 201 if stored else 200,
                {"schema": PROTOCOL_SCHEMA, "key": key, "stored": stored,
                 "digest": got},
            )
            return
        await self._send_error(
            writer, 405, "GET, HEAD or PUT /cache/objects/{key}"
        )

    # -- response helpers ------------------------------------------------------
    async def _send(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: Optional[bytes],
        content_type: str,
        headers: Optional[Dict[str, str]] = None,
        length: Optional[int] = None,
    ) -> None:
        """Write one response head, then ``body``.

        ``body=None`` sends the head alone, with no Content-Length: a
        stream whose lines :meth:`_send_line` writes next, or a 304.
        ``length`` overrides the Content-Length a HEAD answer advertises
        for its empty body.
        """
        lines = [
            f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, 'OK')}",
            f"Content-Type: {content_type}",
        ]
        if body is not None:
            lines.append(
                f"Content-Length: {len(body) if length is None else length}"
            )
        lines += [f"{name}: {value}" for name, value in (headers or {}).items()]
        lines.append("Connection: close")
        head = "\r\n".join(lines) + "\r\n\r\n"
        writer.write(head.encode("latin-1") + (body or b""))
        await writer.drain()

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, object],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8") + b"\n"
        await self._send(writer, status, body, "application/json", headers)

    async def _send_error(
        self, writer: asyncio.StreamWriter, status: int, message: str
    ) -> None:
        """A JSON error named after the status, e.g. ``"NotFound"``."""
        error = _HTTP_REASONS[status].replace(" ", "")
        await self._send_json(writer, status, {"error": error, "message": message})

    async def _send_line(
        self, writer: asyncio.StreamWriter, payload: Dict[str, object]
    ) -> None:
        writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await writer.drain()


def _parse_json(body: bytes) -> Dict[str, object]:
    if not body:
        return {}
    try:
        data = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ServeError(f"request body is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ServeError("request body must be a JSON object")
    return data


# -- runners -------------------------------------------------------------------

async def _drain(server: ReproServer) -> None:
    """Wait (bounded) for in-flight requests to finish after stop.

    The listener is already closed, so ``active`` only decreases; the
    deadline covers a handler stuck behind a long computation — its
    daemon worker dies with the process, exactly as before, but every
    request that *can* finish inside the window gets its response instead
    of a dropped connection.
    """
    deadline = server.config.drain_timeout
    loop = asyncio.get_running_loop()
    end = loop.time() + max(0.0, deadline)
    while server.active and loop.time() < end:
        await asyncio.sleep(0.05)


async def _serve(
    server: ReproServer,
    ready=None,
    stop_event: Optional[asyncio.Event] = None,
) -> None:
    tcp = await asyncio.start_server(
        server.handle_connection, server.config.host, server.config.port
    )
    port = tcp.sockets[0].getsockname()[1]
    if ready is not None:
        ready(port)

    if stop_event is None:
        stop_event = asyncio.Event()
    # SIGTERM/SIGINT request a graceful drain instead of dropping
    # connections.  Only possible on a main-thread loop with POSIX
    # signals; a BackgroundServer (daemon-thread loop) stops via its
    # stop_event instead and drains the same way.
    loop = asyncio.get_running_loop()
    installed = []
    for signame in ("SIGTERM", "SIGINT"):
        signum = getattr(signal, signame, None)
        if signum is None:
            continue
        try:
            loop.add_signal_handler(signum, stop_event.set)
        except (NotImplementedError, RuntimeError, ValueError):
            continue
        installed.append(signum)
    try:
        async with tcp:
            # Returning normally (rather than cancelling serve_forever)
            # lets asyncio.run() tear the loop down without killing
            # in-flight handler tasks mid-await.
            await stop_event.wait()
        await _drain(server)
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        # The engine's worker pool lives as long as the server.
        server.engine.close()


def serve_forever(config: ServeConfig, engine: Optional[SweepEngine] = None) -> int:
    """Run the server until interrupted (the ``repro serve`` entry point).

    SIGTERM and SIGINT both shut down gracefully: the listener closes
    first, then in-flight requests get up to ``config.drain_timeout``
    seconds to finish, then the engine is closed (releasing its worker
    pool) before the process exits.
    """
    ensure_configured("info")
    server = ReproServer(config, engine=engine)

    def ready(port: int) -> None:
        log_event(
            _log, "listening",
            msg=(
                f"repro serve: listening on http://{config.host}:{port} "
                f"(jobs={server.engine.jobs}, "
                f"cache={server.engine.cache_dir or '-'}, "
                f"out={config.out_dir or '-'}, "
                f"objects={config.cache_objects or '-'})"
            ),
            host=config.host, port=port, jobs=server.engine.jobs,
        )

    try:
        asyncio.run(_serve(server, ready))
        log_event(_log, "shutdown", msg="repro serve: drained, shutting down")
    except KeyboardInterrupt:
        # Signal handlers unavailable (e.g. a platform without them):
        # fall back to the historical immediate shutdown.
        log_event(_log, "shutdown", msg="repro serve: shutting down")
    return 0


class BackgroundServer:
    """The server on a daemon thread with its own event loop.

    For tests and the CI smoke driver::

        with BackgroundServer(ServeConfig(port=0)) as handle:
            url = f"http://127.0.0.1:{handle.port}"

    ``port=0`` binds an ephemeral port; :attr:`port` is the bound one.
    """

    def __init__(self, config: ServeConfig, engine: Optional[SweepEngine] = None):
        self.server = ReproServer(config, engine=engine)
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._failure: Optional[BaseException] = None

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ServeError("server did not come up within 30s")
        if self._failure is not None:
            raise ServeError(f"server failed to start: {self._failure}")
        return self

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop_event = asyncio.Event()

            def ready(port: int) -> None:
                self.port = port
                self._ready.set()

            await _serve(self.server, ready, stop_event=self._stop_event)

        try:
            asyncio.run(main())
        except asyncio.CancelledError:
            pass
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()/stop()
            self._failure = exc
            self._ready.set()

    def stop(self, deadline: float = 10.0) -> None:
        """Stop accepting, drain in-flight requests, join with ``deadline``.

        The server thread closes its listener immediately, gives active
        requests up to the config's ``drain_timeout`` to finish, closes
        the engine (releasing its worker pool), then exits; ``deadline``
        bounds how long this call waits for all of
        that.  A still-alive thread after the deadline is a daemon — it
        cannot outlive the process — so ``stop`` always returns.
        """
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=deadline)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
