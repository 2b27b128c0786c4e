"""The unified telemetry layer: metrics, traces, events, timings.

The one invariant everything here leans on: telemetry is out-of-band.
Fixed-seed results are bit-identical with tracing on, off, or fault-
injected; metrics render from the same live stats objects ``/stats`` and
the manifest read, so the three surfaces can never disagree.
"""

from __future__ import annotations

import io
import json
import logging
import threading
import urllib.request

import pytest

from chaos import FaultInjectingExecutor, FaultSchedule

from repro.obs.events import (
    ROOT,
    configure_logging,
    get_logger,
    log_event,
    validate_event_line,
)
from repro.obs.metrics import Family, Histogram, engine_families, render
from repro.obs.trace import Tracer, span_signature, validate_trace
from repro.serve import BackgroundServer, ServeConfig
from repro.yieldsim.engine import EnginePoint, SweepEngine
from repro.yieldsim.executors import SerialExecutor
from repro.yieldsim.kernel import PointSpec
from repro.yieldsim.resilience import ResilienceStats, RetryPolicy, unit_digest

RUNS = 400

GRID = [(0.90 + 0.01 * i, 11 + i) for i in range(9)]

FAST = RetryPolicy(attempts=3, backoff_base=0.0)


def flat_estimates(chip, engine=None):
    engine = engine if engine is not None else SweepEngine()
    return [
        (e.successes, e.trials)
        for e in engine.survival_estimates(chip, GRID, RUNS)
    ]


# -- instrument semantics ------------------------------------------------------

def scraped(text):
    """``{name{labels}: value}`` from Prometheus exposition text."""
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            samples[name] = float(value)
    return samples


class TestInstruments:
    def test_histogram_buckets_are_cumulative(self):
        h = Histogram("repro_seconds", "help", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count() == 5
        assert h.sum() == pytest.approx(56.05)
        samples = dict(h.family().samples)
        assert samples['repro_seconds_bucket{le="0.1"}'] == 1
        assert samples['repro_seconds_bucket{le="1"}'] == 3
        assert samples['repro_seconds_bucket{le="10"}'] == 4
        assert samples['repro_seconds_bucket{le="+Inf"}'] == 5
        assert samples["repro_seconds_count"] == 5

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ValueError):
            Histogram("9starts-with-digit", "help")
        with pytest.raises(ValueError):
            Family("bad name", "gauge", "help", [])


class TestPrometheusRender:
    def test_golden_exposition(self):
        h = Histogram("repro_c_seconds", "c timing", buckets=(1.0,))
        h.observe(0.5)
        families = [
            h.family(),
            Family("repro_b_total", "counter", "b count", [("repro_b_total", 2)]),
            Family("repro_a", "gauge", "a level", [("repro_a", 1.5)]),
        ]
        assert render(families) == (
            "# HELP repro_a a level\n"
            "# TYPE repro_a gauge\n"
            "repro_a 1.5\n"
            "# HELP repro_b_total b count\n"
            "# TYPE repro_b_total counter\n"
            "repro_b_total 2\n"
            "# HELP repro_c_seconds c timing\n"
            "# TYPE repro_c_seconds histogram\n"
            'repro_c_seconds_bucket{le="1"} 1\n'
            'repro_c_seconds_bucket{le="+Inf"} 1\n'
            "repro_c_seconds_sum 0.5\n"
            "repro_c_seconds_count 1\n"
        )


class TestEngineAdapter:
    def test_engine_collector_matches_stats_dicts(self, dtmb26_chip):
        engine, executor = _faulted_engine(
            FaultSchedule(crash_every=3), retry=FAST
        )
        flat_estimates(dtmb26_chip, engine)
        assert engine.resilience.retries >= 1

        flat = scraped(render(engine_families(engine)))
        assert flat["repro_engine_cache_hits_total"] == engine.cache_hits
        assert flat["repro_engine_runs_effective_total"] == (
            engine.runs_effective
        )
        for field, value in engine.resilience.as_dict().items():
            assert flat[f"repro_resilience_{field}_total"] == value
        for field, value in engine.store_stats.as_dict().items():
            assert flat[f"repro_cachestore_{field}_total"] == value
        for field, value in engine.screen_stats.as_dict().items():
            assert flat[f"repro_screen_{field}_total"] == value

    def test_resilience_fields_all_numeric(self):
        # Guards the adapter's duck-typing: every stats field must stay a
        # plain number for counters_family to render it.
        for value in ResilienceStats().as_dict().values():
            assert isinstance(value, (int, float))


# -- tracing -------------------------------------------------------------------

def _faulted_engine(schedule, **engine_kwargs):
    executor = FaultInjectingExecutor(SerialExecutor(), schedule)
    engine = SweepEngine(executor=executor, **engine_kwargs)
    return engine, executor


class TestTracer:
    def test_trace_is_out_of_band(self, dtmb26_chip):
        clean = flat_estimates(dtmb26_chip)
        traced_engine = SweepEngine(tracer=Tracer())
        assert flat_estimates(dtmb26_chip, traced_engine) == clean
        assert len(traced_engine.tracer) > 0

    def test_trace_is_out_of_band_under_faults(self, dtmb26_chip):
        clean = flat_estimates(dtmb26_chip)
        engine, executor = _faulted_engine(
            FaultSchedule(crash_every=3), retry=FAST, tracer=Tracer()
        )
        assert flat_estimates(dtmb26_chip, engine) == clean
        assert executor.injected.get("crash", 0) >= 1
        incidents = [
            e for e in engine.tracer.to_dict()["traceEvents"]
            if e.get("cat") == "incident"
        ]
        assert any(e["name"] == "unit_retry" for e in incidents)

    def test_span_tree_is_deterministic(self, dtmb26_chip):
        signatures = []
        for _ in range(2):
            engine = SweepEngine(tracer=Tracer())
            flat_estimates(dtmb26_chip, engine)
            signatures.append(span_signature(engine.tracer.to_dict()))
        assert signatures[0] == signatures[1]
        # Volatile fields are excluded from the signature by design.
        for event in signatures[0]:
            assert not {"ts", "dur", "pid", "tid"} & set(event)

    def test_validate_trace_accepts_real_and_rejects_junk(self, dtmb26_chip):
        engine = SweepEngine(tracer=Tracer())
        flat_estimates(dtmb26_chip, engine)
        events = validate_trace(engine.tracer.to_dict())
        names = {e["name"] for e in events}
        assert {"point", "scheduler.run", "unit"} <= names
        with pytest.raises(ValueError):
            validate_trace({"nope": []})
        with pytest.raises(ValueError):
            validate_trace({"traceEvents": [{"name": "x"}]})

    def test_point_spans_carry_budget_args(self, dtmb26_chip):
        engine = SweepEngine(tracer=Tracer())
        flat_estimates(dtmb26_chip, engine)
        points = [
            e for e in engine.tracer.to_dict()["traceEvents"]
            if e["name"] == "point"
        ]
        assert len(points) == len(GRID)
        by_index = {e["args"]["index"]: e for e in points}
        for record, (index, span) in zip(
            engine.point_log, sorted(by_index.items())
        ):
            assert span["args"]["requested"] == record.requested
            assert span["args"]["effective"] == record.effective
            assert span["args"]["successes"] is not None

    def test_unit_digest_is_stable(self):
        a = unit_digest(flat_estimates, (1, 2))
        b = unit_digest(flat_estimates, (1, 2))
        c = unit_digest(flat_estimates, (1, 3))
        assert a == b
        assert a != c


# -- counters ------------------------------------------------------------------

class TestCounters:
    def test_one_base_for_every_tally(self):
        from repro.functional import CriterionStats
        from repro.obs.counters import Counters
        from repro.yieldsim.cachestore import StoreStats
        from repro.yieldsim.kernel import ScreenStats

        for cls in (ScreenStats, CriterionStats, ResilienceStats, StoreStats):
            assert issubclass(cls, Counters)
            for method in ("merge", "as_dict", "from_dict", "delta"):
                assert method not in vars(cls), (cls, method)

    def test_as_dict_keeps_declaration_order_and_round_trips(self):
        from repro.yieldsim.kernel import ScreenStats

        stats = ScreenStats(runs=10, residue=2, zero_fault=5)
        assert list(stats.as_dict())[:3] == ["runs", "zero_fault", "bad_dead_end"]
        assert ScreenStats.from_dict(stats.as_dict()) == stats
        total = ScreenStats()
        total.merge(stats)
        total.merge(stats)
        assert (total.runs, total.residue, total.screened) == (20, 4, 16)

    def test_from_dict_rejects_foreign_or_missing_keys(self):
        from repro.functional import CriterionStats

        good = CriterionStats(runs=3).as_dict()
        with pytest.raises(ValueError):
            CriterionStats.from_dict({f"crit_{k}": v for k, v in good.items()})
        with pytest.raises(ValueError):
            CriterionStats.from_dict({"runs": 3})

    def test_delta_reports_only_growth(self):
        before = ResilienceStats(retries=1).as_dict()
        after = ResilienceStats(retries=3, timeouts=1).as_dict()
        assert ResilienceStats.delta(before, after) == {"retries": 2, "timeouts": 1}


# -- timings -------------------------------------------------------------------

class TestTimings:
    def test_point_records_carry_timings(self, dtmb26_chip):
        engine = SweepEngine()
        flat_estimates(dtmb26_chip, engine)
        for record in engine.point_log:
            assert record.timings is not None
            assert record.timings["wall_s"] >= 0.0
            assert record.timings["cpu_s"] >= 0.0
            assert "timings" in record.as_dict()

    def test_cache_hits_have_no_timings(self, dtmb26_chip, tmp_path):
        SweepEngine(cache_dir=str(tmp_path)).survival_estimates(
            dtmb26_chip, GRID[:2], RUNS
        )
        warm = SweepEngine(cache_dir=str(tmp_path))
        warm.survival_estimates(dtmb26_chip, GRID[:2], RUNS)
        assert warm.cache_hits == 2
        assert all(r.timings is None for r in warm.point_log)

    def test_manifest_timings_block(self):
        from repro.experiments import registry

        result = registry.execute(
            registry.get("fig9"), runs=60, seed=7, engine=SweepEngine()
        )
        timings = result.provenance.as_dict()["engine"]["timings"]
        assert timings["wall_s"] > 0.0
        # Volatile telemetry never reaches the stable digest surface.
        stable = json.dumps(result.provenance.stable_dict())
        assert "timings" not in stable
        assert "wall_s" not in stable

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_point_timings_reconcile_with_wall_clock(self, jobs):
        # Each point is timed on its own, so summing over points never
        # counts a second twice: the summed worker wall time fits inside
        # the dispatch wall clock times the number of workers.
        from repro.experiments import registry

        result = registry.execute(
            registry.get("fig9-functional"), runs=400, seed=7,
            engine=SweepEngine(jobs=jobs),
            knobs={"ns": (60,), "ps": (0.90, 0.93, 0.96, 0.99)},
        )
        manifest = result.provenance.as_dict()
        summed = manifest["engine"]["timings"]["wall_s"]
        assert 0.0 < summed <= manifest["wall_time_s"] * max(1, jobs) + 1e-3

    def test_funnel_phases_surface_in_timings(self, dtmb26_chip):
        from repro.functional.criteria import RoutingCriterion

        engine = SweepEngine()
        engine.run_points([
            EnginePoint(
                dtmb26_chip,
                PointSpec(
                    "survival", 0.93, 200, 7,
                    criterion=RoutingCriterion(deadline=200),
                ),
            )
        ])
        timings = engine.point_log[-1].timings
        assert timings["funnel_screen_wall_s"] >= 0.0
        assert timings["funnel_sample_wall_s"] >= 0.0


# -- the event log -------------------------------------------------------------

class TestEventLog:
    def setup_method(self):
        root = logging.getLogger(ROOT)
        self._found = (list(root.handlers), root.level, root.propagate)

    def teardown_method(self):
        # Put the ``repro`` logger back as this test found it: a left-over
        # ``propagate = False`` hides every later ``repro.*`` record from
        # ``caplog``.
        root = logging.getLogger(ROOT)
        for handler in list(root.handlers):
            root.removeHandler(handler)
            handler.close()
        handlers, level, propagate = self._found
        for handler in handlers:
            root.addHandler(handler)
        root.setLevel(level)
        root.propagate = propagate

    def test_ndjson_lines_validate(self):
        sink = io.StringIO()
        configure_logging("info", json_lines=True, stream=sink)
        log_event(get_logger("scheduler"), "unit_retry", token="(1, 2)",
                  attempt=2)
        lines = sink.getvalue().splitlines()
        assert len(lines) == 1
        payload = validate_event_line(lines[0])
        assert payload["event"] == "unit_retry"
        assert payload["logger"] == "repro.scheduler"
        assert payload["fields"]["attempt"] == 2

    def test_fault_injection_emits_retry_events(self, dtmb26_chip):
        sink = io.StringIO()
        configure_logging("info", json_lines=True, stream=sink)
        engine, _ = _faulted_engine(FaultSchedule(crash_every=3), retry=FAST)
        flat_estimates(dtmb26_chip, engine)
        events = [
            validate_event_line(line)
            for line in sink.getvalue().splitlines()
        ]
        assert any(e["event"] == "unit_retry" for e in events)

    def test_cache_quarantine_emits_event(self, tmp_path):
        from repro.yieldsim.cachestore import LocalStore

        sink = io.StringIO()
        configure_logging("info", json_lines=True, stream=sink)
        key = "ab" * 32
        (tmp_path / f"{key}.json").write_text("{not json")
        assert LocalStore(str(tmp_path)).get(key) is None
        [event] = [
            validate_event_line(line)
            for line in sink.getvalue().splitlines()
        ]
        assert event["event"] == "quarantine"
        assert event["logger"] == "repro.cachestore"
        assert event["fields"]["path"].endswith(f"{key}.json")

    def test_validate_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            validate_event_line("not json")
        with pytest.raises(ValueError):
            validate_event_line(json.dumps({"schema": 99}))
        with pytest.raises(ValueError):
            validate_event_line(json.dumps({
                "schema": 1, "ts": 1.0, "level": "info",
                "logger": "other.place", "msg": "x",
            }))

    def test_logger_names_live_under_repro(self):
        assert get_logger("scheduler").name == "repro.scheduler"
        assert get_logger("repro.serve").name == "repro.serve"


# -- the serve surface ---------------------------------------------------------

def _post(url, body):
    req = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"), method="POST"
    )
    return json.load(urllib.request.urlopen(req))


def _get(url):
    return urllib.request.urlopen(url).read().decode("utf-8")


POINT = {
    "design": "DTMB(2,6)", "n": 60, "param": 0.95, "runs": 400, "seed": 3,
}


class TestServeTelemetry:
    def test_metrics_endpoint_matches_stats(self):
        with BackgroundServer(ServeConfig(port=0)) as handle:
            url = f"http://127.0.0.1:{handle.port}"
            _post(url + "/points", POINT)
            stats = json.loads(_get(url + "/stats"))
            text = _get(url + "/metrics")
            flat = scraped(text)
            # The scrape is the request after /stats: one more accepted.
            assert flat["repro_http_requests_total"] == stats["requests"] + 1
            assert flat['repro_coalesce_computed_total{map="points"}'] == (
                stats["points"]["computed"]
            )
            assert "# TYPE repro_http_requests_total counter" in text
            assert "repro_http_request_seconds_bucket" in text

    def test_metrics_consistent_under_concurrent_load(self):
        with BackgroundServer(ServeConfig(port=0)) as handle:
            url = f"http://127.0.0.1:{handle.port}"
            errors = []

            def hammer(i):
                try:
                    _post(url + "/points", {**POINT, "seed": 100 + i % 3})
                    _get(url + "/metrics")
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            stats = json.loads(_get(url + "/stats"))
            flat = scraped(_get(url + "/metrics"))
            points = stats["points"]
            assert flat['repro_coalesce_computed_total{map="points"}'] == (
                points["computed"]
            )
            assert flat["repro_engine_runs_effective_total"] == (
                stats["engine"]["runs_effective"]
            )

    def test_per_request_trace(self):
        with BackgroundServer(ServeConfig(port=0)) as handle:
            url = f"http://127.0.0.1:{handle.port}/points"
            plain = _post(url, POINT)
            assert "trace" not in plain
            traced = _post(url, {**POINT, "trace": True})
            # Telemetry is out-of-band: same numbers with tracing on.
            assert traced["successes"] == plain["successes"]
            assert traced["trials"] == plain["trials"]
            events = validate_trace(traced["trace"])
            assert any(e["name"] == "point" for e in events)
