"""Chaos lane: recovery is invisible in the numbers, byte for byte.

The engine's seed-derivation contract makes every compute unit a pure
function of (chip payload, spec, shard seed), so any unit may crash,
hang, return garbage, take its worker process down, or be preempted
mid-sweep — and the recovered run must still produce results
*bit-identical* to an uninterrupted one.  These tests inject each fault
mode deterministically (:class:`chaos.FaultSchedule`)
and assert exactly that, plus the supporting machinery: fold-level
checkpoint resume, corrupt cache/checkpoint quarantine, pool rebuilds,
and the serving layer's saturation/deadline/promotion/drain behaviour.

Run standalone with ``pytest -m chaos``; the suite also runs in tier 1.
"""

from __future__ import annotations

import dataclasses
import filecmp
import json
import logging
import multiprocessing
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from chaos import (
    FaultInjectingExecutor,
    FaultSchedule,
    InjectedFault,
    Preemption,
)

from repro.errors import SimulationError, UnitFailure
from repro.serve import BackgroundServer, ServeConfig
from repro.serve.app import RETRY_AFTER_S
from repro.yieldsim.engine import EnginePoint, SweepEngine
from repro.yieldsim.executors import InlineExecutor, PoolExecutor, SerialExecutor
from repro.yieldsim.kernel import PointSpec
from repro.yieldsim.resilience import RetryPolicy, UnitRunner
from repro.yieldsim.stats import StopRule

pytestmark = pytest.mark.chaos

RUNS = 400

#: A fig7-style flat survival grid: 9 points on one chip = 3 chunks of
#: ``_CHUNK_POINTS=4,4,1`` logical units, so ``crash_every=3`` is
#: guaranteed to fault a unit.
GRID = [(0.90 + 0.01 * i, 11 + i) for i in range(9)]

#: Retries without the production backoff sleeps — determinism is what
#: the lane asserts; wall clock is not part of the contract.
FAST = RetryPolicy(attempts=3, backoff_base=0.0)


def flat_estimates(chip, engine=None):
    engine = engine if engine is not None else SweepEngine()
    return [
        (e.successes, e.trials)
        for e in engine.survival_estimates(chip, GRID, RUNS)
    ]


def faulted_engine(schedule, inner=None, **engine_kwargs):
    inner = inner if inner is not None else SerialExecutor()
    executor = FaultInjectingExecutor(inner, schedule)
    engine = SweepEngine(executor=executor, **engine_kwargs)
    return engine, executor


# -- retry policy semantics ---------------------------------------------------

class TestRetryPolicy:
    def test_backoff_is_a_pure_function_of_the_attempt(self):
        # Doubling from backoff_base, capped at BACKOFF_MAX = 2.0 s.
        policy = RetryPolicy(attempts=5, backoff_base=0.3)
        assert [policy.delay(n) for n in range(1, 6)] == [
            0.3, 0.6, 1.2, 2.0, 2.0,
        ]
        assert policy.delay(0) == 0.0
        # Two evaluations agree exactly: no jitter, no clock reads.
        assert policy.delay(3) == policy.delay(3)

    def test_validation(self):
        with pytest.raises(SimulationError):
            RetryPolicy(attempts=0)
        with pytest.raises(SimulationError):
            RetryPolicy(backoff_base=-0.1)
        with pytest.raises(SimulationError):
            RetryPolicy(unit_timeout=0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(SimulationError):
                RetryPolicy(unit_timeout=bad)

    def test_as_dict_round_trips(self):
        policy = RetryPolicy(attempts=4, unit_timeout=1.5)
        payload = policy.as_dict()
        # /health also reports the fixed backoff shape and rebuild budget.
        assert payload == {
            "attempts": 4, "backoff_base": 0.05, "backoff_factor": 2.0,
            "backoff_max": 2.0, "unit_timeout": 1.5, "pool_rebuilds": 2,
        }
        settable = [field.name for field in dataclasses.fields(RetryPolicy)]
        assert RetryPolicy(**{k: payload[k] for k in settable}) == policy


# -- flat sweeps under injected faults ---------------------------------------

class TestFlatFaultIdentity:
    """The acceptance grid: fig7-style flat sweep, every fault mode."""

    def test_crash_every_third_unit_retries_bit_identically(self, dtmb26_chip):
        clean = flat_estimates(dtmb26_chip)
        engine, executor = faulted_engine(
            FaultSchedule(crash_every=3), retry=FAST
        )
        assert flat_estimates(dtmb26_chip, engine) == clean
        assert executor.injected.get("crash", 0) >= 1
        assert engine.resilience.retries >= 1
        # The recovery work is attributed to the points the chunk carried.
        assert any(
            record.incidents and record.incidents.get("retries")
            for record in engine.point_log
        )

    def test_incidents_attribute_to_the_faulted_unit_only(self, dtmb26_chip):
        # GRID's units carry points 0-3, 4-7 and 8: crash_every=3 faults
        # the first attempt of the third unit, i.e. point 8 alone.
        engine, _ = faulted_engine(FaultSchedule(crash_every=3), retry=FAST)
        flat_estimates(dtmb26_chip, engine)
        assert [record.incidents for record in engine.point_log] == (
            [None] * 8 + [{"retries": 1}]
        )

    def test_sharded_incidents_attribute_to_their_point(self, dtmb26_chip):
        # shard_runs=200 splits each point into 2 folds, one unit each,
        # point-major: 0-based units 2, 5, ..., 17 fault, i.e. folds of points
        # 1, 2, 4, 5, 7 and 8.
        clean = flat_estimates(dtmb26_chip, SweepEngine(shard_runs=200))
        engine, _ = faulted_engine(
            FaultSchedule(crash_every=3), retry=FAST, shard_runs=200
        )
        assert flat_estimates(dtmb26_chip, engine) == clean
        retried = {1, 2, 4, 5, 7, 8}
        assert [record.incidents for record in engine.point_log] == [
            {"retries": 1} if i in retried else None for i in range(9)
        ]

    def test_corrupt_payloads_are_rejected_and_recomputed(self, dtmb26_chip):
        clean = flat_estimates(dtmb26_chip)
        engine, executor = faulted_engine(
            FaultSchedule(corrupt_every=1), retry=FAST
        )
        assert flat_estimates(dtmb26_chip, engine) == clean
        assert executor.injected.get("corrupt", 0) >= 3
        assert engine.resilience.corrupt_units >= 3
        assert engine.resilience.retries >= 3

    def test_without_a_policy_the_first_crash_propagates(self, dtmb26_chip):
        engine, _ = faulted_engine(FaultSchedule(crash_every=1))
        with pytest.raises(InjectedFault):
            engine.survival_estimates(dtmb26_chip, GRID, RUNS)

    def test_exhausted_attempts_raise_unit_failure(self, dtmb26_chip):
        engine, _ = faulted_engine(
            FaultSchedule(crash_every=1, fault_attempts=99),
            retry=RetryPolicy(attempts=2, backoff_base=0.0),
        )
        with pytest.raises(UnitFailure):
            engine.survival_estimates(dtmb26_chip, GRID, RUNS)


# -- pool survival ------------------------------------------------------------

class RecordingPool(PoolExecutor):
    """A pool executor that records the pool each run starts on."""

    def __init__(self, jobs):
        super().__init__(jobs)
        self.pools = []

    def start(self, units_hint):
        super().start(units_hint)
        self.pools.append(self._pool)


class TestPoolSurvival:
    def test_killed_worker_breaks_then_rebuilds_the_pool(self, dtmb26_chip):
        clean = flat_estimates(dtmb26_chip)
        inner = PoolExecutor(jobs=2)
        engine, executor = faulted_engine(
            FaultSchedule(kill_every=3), inner=inner, retry=FAST
        )
        assert flat_estimates(dtmb26_chip, engine) == clean
        assert executor.injected.get("kill", 0) >= 1
        assert engine.resilience.pool_rebuilds >= 1
        assert inner.rebuilds >= 1

    def test_hung_unit_times_out_and_is_retried(self, dtmb26_chip):
        clean = flat_estimates(dtmb26_chip)
        inner = PoolExecutor(jobs=2)
        schedule = FaultSchedule(hang_every=3)
        executor = FaultInjectingExecutor(inner, schedule, hang_seconds=5.0)
        engine = SweepEngine(
            executor=executor,
            retry=RetryPolicy(attempts=3, backoff_base=0.0, unit_timeout=0.25),
        )
        assert flat_estimates(dtmb26_chip, engine) == clean
        assert engine.resilience.timeouts >= 1
        assert engine.resilience.retries >= 1

    def test_timed_out_pool_is_retired_for_the_next_run(self, dtmb26_chip):
        # A long-lived pool must not carry a worker stuck on an abandoned
        # unit into later runs: each run that cancels a hung unit hands
        # its pool back, and the next run starts on a fresh one.
        other = [(p, seed + 100) for p, seed in GRID]
        clean = [
            flat_estimates(dtmb26_chip),
            SweepEngine().survival_estimates(dtmb26_chip, other, RUNS),
        ]
        inner = RecordingPool(jobs=2)
        executor = FaultInjectingExecutor(
            inner, FaultSchedule(hang_every=3), hang_seconds=2.0
        )
        engine = SweepEngine(
            executor=executor,
            retry=RetryPolicy(attempts=3, backoff_base=0.0, unit_timeout=0.25),
        )
        try:
            assert flat_estimates(dtmb26_chip, engine) == clean[0]
            second = engine.survival_estimates(dtmb26_chip, other, RUNS)
            assert [(e.successes, e.trials) for e in second] == [
                (e.successes, e.trials) for e in clean[1]
            ]
        finally:
            executor.close()
        assert executor.injected["hang"] == 2
        assert engine.resilience.timeouts >= 2
        first_pool, second_pool = inner.pools
        assert first_pool is not None and second_pool is not None
        assert second_pool is not first_pool

    def test_pool_left_broken_is_released_at_run_end(self, dtmb26_chip):
        # A run that gives up on a broken pool must not hand the next run
        # a poisoned pool (and a spurious rebuild incident).
        inner = PoolExecutor(jobs=2)
        killer = FaultInjectingExecutor(
            inner, FaultSchedule(kill_every=1, fault_attempts=99)
        )
        try:
            # Every attempt kills its worker: the run spends its two
            # pool rebuilds, then gives up with the pool broken.
            with pytest.raises(UnitFailure):
                SweepEngine(
                    executor=killer, retry=FAST,
                ).survival_estimates(dtmb26_chip, GRID, RUNS)
            engine = SweepEngine(executor=inner)
            assert flat_estimates(dtmb26_chip, engine) == flat_estimates(
                dtmb26_chip
            )
            assert engine.resilience.pool_rebuilds == 0
        finally:
            inner.close()

    def test_late_but_complete_result_is_kept_serially(self, dtmb26_chip):
        # A serial executor computes inside submit(), so a "hang" merely
        # finishes late: the incident is counted, the value kept.
        clean = flat_estimates(dtmb26_chip)
        schedule = FaultSchedule(hang_every=3)
        executor = FaultInjectingExecutor(
            SerialExecutor(), schedule, hang_seconds=0.05
        )
        engine = SweepEngine(
            executor=executor,
            retry=RetryPolicy(attempts=3, backoff_base=0.0, unit_timeout=0.01),
        )
        assert flat_estimates(dtmb26_chip, engine) == clean
        assert engine.resilience.timeouts >= 1

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers must inherit the patched registry",
    )
    def test_repro_all_survives_a_killed_experiment_worker(
        self, tmp_path, monkeypatch, capsys, caplog
    ):
        # `repro all --jobs N` runs whole experiments as UnitRunner units:
        # a worker that dies mid-experiment breaks the pool, the pool is
        # rebuilt, and the rerun experiment's bytes are unchanged.
        from repro.cli import main
        from repro.experiments import registry

        parent, marker = os.getpid(), tmp_path / "killed"
        victim = registry.get("fig13")

        def die_once(**kwargs):
            if not marker.exists():
                assert os.getpid() != parent, "experiment ran in the parent"
                marker.touch()
                os._exit(3)
            return victim.runner(**kwargs)

        crashy = dataclasses.replace(victim, runner=die_once)
        monkeypatch.setitem(registry._REGISTRY, victim.name, crashy)
        subset = [registry.get("table1"), crashy, registry.get("fig2")]
        monkeypatch.setattr(registry, "all_experiments", lambda: subset)
        # An earlier --log-* configuration may have detached repro.*.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)

        def run_all(label, jobs):
            out = tmp_path / label
            argv = ["all", "--runs", "60", "--seed", "9", "--jobs", jobs]
            assert main(argv + ["--out", str(out)]) == 0
            return out, capsys.readouterr().out.replace(str(out), "OUT")

        with caplog.at_level(logging.WARNING, logger="repro.resilience"):
            pooled_dir, pooled_out = run_all("pooled", "2")
        assert marker.exists()
        assert any(
            getattr(record, "repro_event", None) == "pool_rebuild"
            for record in caplog.records
        )
        serial_dir, serial_out = run_all("serial", "1")
        assert pooled_out == serial_out
        files = sorted(
            path.relative_to(serial_dir)
            for path in serial_dir.rglob("*")
            if path.is_file() and path.name != "manifest.json"
        )
        assert len(files) >= len(subset)
        for rel in files:
            assert filecmp.cmp(
                serial_dir / rel, pooled_dir / rel, shallow=False
            ), f"{rel} differs after the pool rebuild"


# -- fold-level checkpoint resume ---------------------------------------------

#: An adaptive (fig9-style) point hard enough that its stop rule never
#: fires before the preemption point: 10 folds of 200 runs.
ADAPTIVE_RULE = StopRule(target_half_width=0.005, min_runs=200, batch_runs=200)


def adaptive_point(chip):
    return EnginePoint(
        chip, PointSpec("survival", 0.93, 2000, 7), None, ADAPTIVE_RULE
    )


def _assert_same_record(resumed, clean):
    """A resumed point's record matches the uninterrupted run's record in
    its numbers and its in-order counters (timings and incidents aside)."""
    fields = ("requested", "successes", "effective", "screen", "funnel")
    assert [getattr(resumed, f) for f in fields] == [
        getattr(clean, f) for f in fields
    ]


class TestCheckpointResume:
    def test_preempted_adaptive_point_resumes_byte_identically(
        self, dtmb26_chip, tmp_path
    ):
        cache = str(tmp_path / "cache")
        clean_engine = SweepEngine()
        [clean] = clean_engine.run_points([adaptive_point(dtmb26_chip)])

        # Preempt the run after two submitted folds: the journal must
        # hold exactly those folds when the "process" dies.
        engine, _ = faulted_engine(
            FaultSchedule(preempt_after=2),
            cache_dir=cache, checkpoint=True,
        )
        with pytest.raises(Preemption):
            engine.run_points([adaptive_point(dtmb26_chip)])
        checkpoints = list((tmp_path / "cache").glob("*.ckpt.json"))
        assert len(checkpoints) == 1

        # A fresh process resumes from the journal, skips the completed
        # folds, and lands on the identical estimate.
        resumed_engine = SweepEngine(cache_dir=cache, checkpoint=True)
        [resumed] = resumed_engine.run_points([adaptive_point(dtmb26_chip)])
        assert (resumed.successes, resumed.trials) == (
            clean.successes,
            clean.trials,
        )
        assert resumed_engine.resilience.checkpoint_resumes == 1
        assert resumed_engine.resilience.folds_resumed == 2
        _assert_same_record(resumed_engine.point_log[0], clean_engine.point_log[0])
        # The journal is cleared once the point completes (the cache
        # entry takes over).
        assert not list((tmp_path / "cache").glob("*.ckpt.json"))

        # And a third run is a pure cache hit — still identical.
        third_engine = SweepEngine(cache_dir=cache, checkpoint=True)
        [third] = third_engine.run_points([adaptive_point(dtmb26_chip)])
        assert (third.successes, third.trials) == (clean.successes, clean.trials)
        assert third_engine.cache_hits == 1

    def test_corrupt_checkpoint_is_quarantined_not_trusted(
        self, dtmb26_chip, tmp_path
    ):
        cache = str(tmp_path / "cache")
        [clean] = SweepEngine().run_points([adaptive_point(dtmb26_chip)])
        engine, _ = faulted_engine(
            FaultSchedule(preempt_after=2), cache_dir=cache, checkpoint=True
        )
        with pytest.raises(Preemption):
            engine.run_points([adaptive_point(dtmb26_chip)])
        [ckpt] = list((tmp_path / "cache").glob("*.ckpt.json"))
        # Flip the journal's content without keeping its digest honest.
        data = json.loads(ckpt.read_text())
        data["successes"] = int(data["successes"]) + 1
        ckpt.write_text(json.dumps(data))

        resumed_engine = SweepEngine(cache_dir=cache, checkpoint=True)
        [resumed] = resumed_engine.run_points([adaptive_point(dtmb26_chip)])
        assert (resumed.successes, resumed.trials) == (
            clean.successes,
            clean.trials,
        )
        assert resumed_engine.resilience.checkpoint_resumes == 0
        assert resumed_engine.resilience.quarantined >= 1
        assert list((tmp_path / "cache").glob("*.ckpt.json.corrupt"))

    def _preempted_criterion_run(self, chip, cache):
        from repro.functional import RoutingCriterion

        def point():
            return EnginePoint(
                chip,
                PointSpec("survival", 0.95, 1000, 7,
                          criterion=RoutingCriterion(deadline=200)),
                None, ADAPTIVE_RULE,
            )

        clean_engine = SweepEngine()
        [clean] = clean_engine.run_points([point()])
        engine, _ = faulted_engine(
            FaultSchedule(preempt_after=2), cache_dir=cache, checkpoint=True
        )
        with pytest.raises(Preemption):
            engine.run_points([point()])
        return point, clean, clean_engine

    def test_resumed_counters_equal_uninterrupted_counters(
        self, dtmb26_chip, tmp_path
    ):
        cache = str(tmp_path / "cache")
        point, clean, clean_engine = self._preempted_criterion_run(
            dtmb26_chip, cache
        )
        resumed_engine = SweepEngine(cache_dir=cache, checkpoint=True)
        [resumed] = resumed_engine.run_points([point()])
        assert resumed_engine.resilience.checkpoint_resumes == 1
        assert (resumed.successes, resumed.trials) == (
            clean.successes, clean.trials,
        )
        assert resumed_engine.screen_stats == clean_engine.screen_stats
        _assert_same_record(resumed_engine.point_log[0], clean_engine.point_log[0])

    def test_checkpoint_in_another_counter_layout_reads_as_absent(
        self, dtmb26_chip, tmp_path
    ):
        from repro.yieldsim.cachestore import decode_entry, encode_entry

        cache = str(tmp_path / "cache")
        point, clean, clean_engine = self._preempted_criterion_run(
            dtmb26_chip, cache
        )
        # Rewrite the journal with its criterion counters under the
        # older ``crit_``-prefixed keys, digest kept honest.
        [ckpt] = list((tmp_path / "cache").glob("*.ckpt.json"))
        data = decode_entry(ckpt.read_bytes())
        data["crit"] = {f"crit_{k}": v for k, v in data["crit"].items()}
        ckpt.write_bytes(encode_entry(data))

        resumed_engine = SweepEngine(cache_dir=cache, checkpoint=True)
        [resumed] = resumed_engine.run_points([point()])
        assert resumed_engine.resilience.checkpoint_resumes == 0
        assert resumed_engine.resilience.quarantined == 0
        assert (resumed.successes, resumed.trials) == (
            clean.successes, clean.trials,
        )
        assert resumed_engine.screen_stats == clean_engine.screen_stats
        _assert_same_record(resumed_engine.point_log[0], clean_engine.point_log[0])

    def test_preemption_under_fault_storm_still_resumes(
        self, dtmb26_chip, tmp_path
    ):
        """Crashes *and* a preemption in one run: the survivors' journal
        is still enough for a byte-identical resume."""
        cache = str(tmp_path / "cache")
        [clean] = SweepEngine().run_points([adaptive_point(dtmb26_chip)])
        engine, _ = faulted_engine(
            FaultSchedule(crash_every=2, preempt_after=4),
            cache_dir=cache, checkpoint=True, retry=FAST,
        )
        with pytest.raises(Preemption):
            engine.run_points([adaptive_point(dtmb26_chip)])
        resumed_engine = SweepEngine(cache_dir=cache, checkpoint=True)
        [resumed] = resumed_engine.run_points([adaptive_point(dtmb26_chip)])
        assert (resumed.successes, resumed.trials) == (
            clean.successes,
            clean.trials,
        )
        assert resumed_engine.resilience.checkpoint_resumes == 1


# -- cache read-path hardening ------------------------------------------------

class TestCacheQuarantine:
    def _populate(self, chip, cache_dir):
        engine = SweepEngine(cache_dir=cache_dir)
        reference = flat_estimates(chip, engine)
        return reference

    def test_truncated_entries_quarantine_and_recompute(
        self, dtmb26_chip, tmp_path
    ):
        cache = tmp_path / "cache"
        reference = self._populate(dtmb26_chip, str(cache))
        entries = [p for p in cache.iterdir() if p.suffix == ".json"]
        assert entries
        for path in entries:
            path.write_text("{\"truncated\": tru")

        engine = SweepEngine(cache_dir=str(cache))
        assert flat_estimates(dtmb26_chip, engine) == reference
        assert engine.cache_hits == 0
        assert engine.resilience.quarantined == len(entries)
        corpses = [p for p in cache.iterdir() if p.name.endswith(".corrupt")]
        assert len(corpses) == len(entries)

    def test_digest_mismatch_quarantines_valid_json(
        self, dtmb26_chip, tmp_path
    ):
        cache = tmp_path / "cache"
        reference = self._populate(dtmb26_chip, str(cache))
        [victim] = [p for p in cache.iterdir() if p.suffix == ".json"][:1]
        data = json.loads(victim.read_text())
        # Valid JSON, plausible shape, silently wrong numbers: exactly
        # what bit-rot produces.  The digest must catch it.
        data["successes"] = int(data["successes"]) + 1
        victim.write_text(json.dumps(data))

        engine = SweepEngine(cache_dir=str(cache))
        assert flat_estimates(dtmb26_chip, engine) == reference
        assert engine.resilience.quarantined >= 1

    def test_quarantine_never_raises_to_the_caller(self, dtmb26_chip, tmp_path):
        cache = tmp_path / "cache"
        self._populate(dtmb26_chip, str(cache))
        for path in cache.iterdir():
            path.write_bytes(b"\x00\xff garbage")
        # A cache full of garbage behaves exactly like an empty cache.
        engine = SweepEngine(cache_dir=str(cache))
        estimates = flat_estimates(dtmb26_chip, engine)
        assert len(estimates) == len(GRID)


# -- the runner itself --------------------------------------------------------

def _identity(x):
    return x


class TestUnitRunner:
    def test_collect_returns_validated_values(self):
        executor = InlineExecutor(capacity=4)
        executor.start(4)
        runner = UnitRunner(executor, FAST)
        for i in range(4):
            runner.submit(("tok", i), _identity, (i,))
        got = {}
        while len(runner):
            got.update(dict(runner.collect()))
        assert got == {("tok", i): i for i in range(4)}

    def test_validator_rejection_counts_and_retries(self):
        executor = FaultInjectingExecutor(
            InlineExecutor(capacity=1), FaultSchedule(corrupt_every=1)
        )
        executor.start(1)
        runner = UnitRunner(executor, FAST)
        runner.submit("unit", _identity, ((7,),), validator=lambda v: v == (7,))
        [(token, value)] = runner.collect()
        assert (token, value) == ("unit", (7,))
        assert runner.stats.corrupt_units == 1
        assert runner.incidents["unit"]["corrupt_units"] == 1

    def test_no_rebuild_hook_fails_cleanly(self):
        class BrokenSubmit:
            name, capacity = "broken", 1

            def start(self, units_hint):
                pass

            def submit(self, fn, *args):
                from concurrent.futures import BrokenExecutor

                raise BrokenExecutor("pool is gone")

        runner = UnitRunner(BrokenSubmit(), FAST)
        with pytest.raises(UnitFailure):
            runner.submit("unit", _identity, (1,))


# -- serving under pressure ---------------------------------------------------

RUNS_SERVE = 200
POINT_BODY = {
    "kind": "survival", "param": 0.95, "runs": RUNS_SERVE, "seed": 5,
    "design": "DTMB(2,6)", "n": 60,
}


def http_raw(base, path, body=None, timeout=120):
    """(status, headers dict, parsed JSON body), errors included."""
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        base + path, data=data, method="POST" if body is not None else "GET"
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            return response.status, dict(response.headers), json.loads(
                response.read()
            )
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


def http_stream(base, path, body, timeout=120):
    """(status, NDJSON event lines) of a streamed POST."""
    req = urllib.request.Request(
        base + path, data=json.dumps(body).encode(), method="POST"
    )
    with urllib.request.urlopen(req, timeout=timeout) as response:
        return response.status, [
            json.loads(line) for line in response.read().splitlines()
        ]


#: the three coalesced request shapes: (path, body, coalescing-map name)
COALESCED = {
    "point": ("/points", POINT_BODY, "points"),
    "stream": ("/points", dict(POINT_BODY, adaptive=True, stream=True), "points"),
    "bundle": ("/experiments/fig9", {"runs": 20, "seed": 5}, "bundles"),
}


class GatedEngine(SweepEngine):
    """Holds every computation until the test opens the gate."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.gate = threading.Event()

    def run_points(self, tasks, on_fold=None):
        assert self.gate.wait(timeout=60), "test never opened the gate"
        return super().run_points(tasks, on_fold=on_fold)


def _wait_until(predicate, timeout=30):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestServeResilience:
    def test_health_reports_the_resilience_stack(self, tmp_path):
        engine = SweepEngine(
            cache_dir=str(tmp_path / "cache"),
            checkpoint=True,
            retry=RetryPolicy(attempts=5, unit_timeout=30.0),
        )
        with BackgroundServer(ServeConfig(port=0), engine=engine) as handle:
            url = f"http://127.0.0.1:{handle.port}"
            status, _, health = http_raw(url, "/health")
            assert status == 200
            assert health["status"] == "ok"
            assert health["retry"]["attempts"] == 5
            assert health["checkpoint"]["enabled"] is True
            assert health["executor"]["jobs"] == 1
            assert health["saturated"] is False
            assert set(health["resilience"]) >= {"retries", "pool_rebuilds"}

    def test_saturation_rejects_with_503_and_retry_after(self):
        engine = GatedEngine()
        config = ServeConfig(port=0, max_inflight=1)
        with BackgroundServer(config, engine=engine) as handle:
            url = f"http://127.0.0.1:{handle.port}"
            results = []

            def leader():
                results.append(http_raw(url, "/points", POINT_BODY, timeout=300))

            thread = threading.Thread(target=leader)
            thread.start()
            assert _wait_until(lambda: len(handle.server.points) == 1)
            # Distinct request while saturated: refused, not queued.
            status, headers, error = http_raw(
                url, "/points", dict(POINT_BODY, seed=6)
            )
            assert status == 503
            assert error["error"] == "ServiceUnavailable"
            assert headers.get("Retry-After") == str(round(RETRY_AFTER_S))
            assert error["retry_after_s"] == RETRY_AFTER_S
            # Joining the *existing* computation is always admitted.
            engine.gate.set()
            thread.join(timeout=300)
            [(status, _, _)] = results
            assert status == 200
            assert handle.server.rejected == 1

    @pytest.mark.parametrize("kind", ["point", "bundle"])
    def test_request_deadline_expires_into_503_compute_survives(
        self, tmp_path, kind
    ):
        path, body, _ = COALESCED[kind]
        engine = GatedEngine(cache_dir=str(tmp_path / "cache"))
        config = ServeConfig(port=0, request_timeout=0.3)
        with BackgroundServer(config, engine=engine) as handle:
            url = f"http://127.0.0.1:{handle.port}"
            status, headers, error = http_raw(url, path, body)
            assert status == 503
            assert error["error"] == "ServiceUnavailable"
            assert "Retry-After" in headers
            # The leader's computation was not cancelled: open the gate
            # and the same request is eventually answered (via the entry
            # or the cache it fills).
            engine.gate.set()
            assert _wait_until(
                lambda: http_raw(url, path, body)[0] == 200, timeout=60,
            )

    @pytest.mark.parametrize("kind", ["point", "stream", "bundle"])
    def test_waiters_are_re_led_when_the_leader_dies(self, kind):
        path, body, map_name = COALESCED[kind]

        class FailOnceEngine(GatedEngine):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self.calls = 0
                self.lock = threading.Lock()

            def run_points(self, tasks, on_fold=None):
                assert self.gate.wait(timeout=60)
                with self.lock:
                    self.calls += 1
                    first = self.calls == 1
                if first:
                    raise RuntimeError("leader evicted mid-compute")
                return SweepEngine.run_points(self, tasks, on_fold=on_fold)

        engine = FailOnceEngine()
        with BackgroundServer(ServeConfig(port=0), engine=engine) as handle:
            url = f"http://127.0.0.1:{handle.port}"
            cmap = getattr(handle.server, map_name)
            send = http_stream if kind == "stream" else http_raw
            results = []

            def request():
                results.append(send(url, path, body, timeout=300))

            threads = [threading.Thread(target=request) for _ in range(2)]
            for thread in threads:
                thread.start()
            assert _wait_until(lambda: cmap.followers == 1)
            engine.gate.set()
            for thread in threads:
                thread.join(timeout=300)
            statuses = [result[0] for result in results]
            # A non-deterministic leader death is retried for *every*
            # waiter: both re-join, one re-leads, everyone gets a real
            # answer — the computation ran exactly twice, not three times.
            assert statuses == [200, 200]
            assert cmap.promotions == 2
            assert engine.calls == 2
            if kind == "stream":
                # The stream restarts from the new leader's folds and ends
                # in the plain (non-streamed) answer.
                plain = http_raw(url, path, dict(body, stream=False))[2]
                for _, lines in results:
                    assert len(lines) > 2  # accepted, folds..., result
                    assert lines[0]["event"] == "accepted"
                    assert [e["event"] for e in lines[1:-1]] == (
                        ["fold"] * (len(lines) - 2)
                    )
                    result = dict(lines[-1])
                    assert result.pop("event") == "result"
                    assert {**result, "coalesced": None} == (
                        {**plain, "coalesced": None}
                    )

    def test_stop_drains_inflight_requests_before_exiting(self, tmp_path):
        engine = GatedEngine(cache_dir=str(tmp_path / "cache"))
        config = ServeConfig(port=0, drain_timeout=30.0)
        handle = BackgroundServer(config, engine=engine).start()
        url = f"http://127.0.0.1:{handle.port}"
        results = []

        def request():
            results.append(http_raw(url, "/points", POINT_BODY, timeout=300))

        thread = threading.Thread(target=request)
        thread.start()
        assert _wait_until(lambda: handle.server.active >= 1)

        stopper = threading.Thread(target=lambda: handle.stop(deadline=60))
        stopper.start()
        time.sleep(0.2)  # shutdown initiated while the request is in flight
        engine.gate.set()
        thread.join(timeout=300)
        stopper.join(timeout=300)
        assert not handle._thread.is_alive()
        [(status, _, payload)] = results
        # The in-flight request was drained to completion, not dropped.
        assert status == 200
        assert payload["trials"] == RUNS_SERVE
