"""Chaos lane for the cache transport: a hostile remote changes nothing.

The tiered cache's contract is that the remote store is *pure
acceleration*: any transport fault — refused connections, server errors,
garbage bodies, truncated uploads, saturated links — degrades to a local
miss plus a logged incident, and the numbers (and published artifacts)
stay byte-identical to a run with no remote at all.  Each test here
injects one fault family deterministically through
:class:`chaos.FaultInjectingStore` (or a genuinely
dead HTTP endpoint) and asserts exactly that.

Run standalone with ``pytest -m chaos``; the suite also runs in tier 1.
"""

from __future__ import annotations

import pytest

from chaos import FaultInjectingStore

from repro.errors import StoreError
from repro.experiments import registry
from repro.yieldsim.cachestore import (
    HTTPStore,
    MemoryStore,
    SharedFSStore,
    TieredCache,
    entry_validator,
)
from repro.yieldsim.engine import SweepEngine

pytestmark = pytest.mark.chaos

GRID = [(0.91 + 0.01 * i, 12 + i) for i in range(5)]
RUNS = 200


def flat_estimates(chip, engine=None):
    engine = engine if engine is not None else SweepEngine()
    return [
        (e.successes, e.trials)
        for e in engine.survival_estimates(chip, GRID, RUNS)
    ]


def faulty_engine(remote, **faults):
    store = FaultInjectingStore(remote, **faults)
    engine = SweepEngine(cache_store=store)
    return engine, store


class TestTransportFaultsAreInvisible:
    def test_every_get_erroring_changes_nothing(self, dtmb26_chip, tmp_path):
        baseline = flat_estimates(dtmb26_chip)
        engine, store = faulty_engine(
            SharedFSStore(str(tmp_path)), get_error_every=1
        )
        assert flat_estimates(dtmb26_chip, engine) == baseline
        assert store.injected["get_error"] == len(GRID)
        assert engine.store_stats.remote_errors == len(GRID)
        assert engine.resilience.remote_errors == len(GRID)

    def test_garbage_bodies_never_reach_the_numbers(self, dtmb26_chip, tmp_path):
        baseline = flat_estimates(dtmb26_chip)
        # Warm the remote honestly first, then poison every read.
        remote = SharedFSStore(str(tmp_path))
        flat_estimates(dtmb26_chip, SweepEngine(cache_store=remote))

        engine, store = faulty_engine(remote, get_garbage_every=1)
        assert flat_estimates(dtmb26_chip, engine) == baseline
        assert store.injected["get_garbage"] == len(GRID)
        # The validator caught every body: degraded to miss + incident,
        # nothing written back to the local tier as a point entry.
        assert engine.store_stats.remote_errors == len(GRID)
        assert engine.store_stats.remote_hits == 0
        assert engine.cache_hits == 0

    def test_truncated_uploads_fail_validation_on_readback(
        self, dtmb26_chip, tmp_path
    ):
        baseline = flat_estimates(dtmb26_chip)
        remote = SharedFSStore(str(tmp_path))
        # A cold fleet whose every upload drops mid-PUT: the shared tree
        # ends up holding transport-complete but semantically truncated
        # objects.
        cold, store = faulty_engine(remote, put_truncate_every=1)
        assert flat_estimates(dtmb26_chip, cold) == baseline
        assert store.injected["put_truncate"] == len(GRID)

        # A warm reader must not trust them: entry validation rejects the
        # payloads, counts incidents, recomputes, and agrees bit-for-bit.
        warm = SweepEngine(cache_store=remote)
        assert flat_estimates(dtmb26_chip, warm) == baseline
        assert warm.store_stats.remote_errors == len(GRID)
        assert warm.cache_hits == 0

    def test_put_errors_cost_nothing_but_uploads(self, dtmb26_chip, tmp_path):
        baseline = flat_estimates(dtmb26_chip)
        engine, store = faulty_engine(
            SharedFSStore(str(tmp_path)), put_error_every=1
        )
        assert flat_estimates(dtmb26_chip, engine) == baseline
        assert store.injected["put_error"] == len(GRID)
        assert engine.store_stats.uploads == 0
        assert engine.store_stats.remote_errors == len(GRID)

    def test_slow_remote_is_only_slow(self, dtmb26_chip, tmp_path):
        baseline = flat_estimates(dtmb26_chip)
        remote = SharedFSStore(str(tmp_path))
        flat_estimates(dtmb26_chip, SweepEngine(cache_store=remote))

        engine, store = faulty_engine(
            remote, get_slow_every=1, slow_seconds=0.001
        )
        assert flat_estimates(dtmb26_chip, engine) == baseline
        assert store.injected["get_slow"] == len(GRID)
        # Slowness is not an error: every read still served the object.
        assert engine.store_stats.remote_errors == 0
        assert engine.store_stats.remote_hits == len(GRID)

    def test_dead_http_remote_degrades_to_local_compute(self, dtmb26_chip):
        baseline = flat_estimates(dtmb26_chip)
        # Port 9 (discard) refuses connections: a genuinely dead remote.
        engine = SweepEngine(
            cache_store=HTTPStore("http://127.0.0.1:9", timeout=0.2)
        )
        assert flat_estimates(dtmb26_chip, engine) == baseline
        assert engine.store_stats.remote_errors > 0
        assert engine.store_stats.remote_hits == 0

    def test_mixed_fault_storm(self, dtmb26_chip, tmp_path):
        """Errors, garbage and truncation interleaved on one remote."""
        baseline = flat_estimates(dtmb26_chip)
        engine, store = faulty_engine(
            SharedFSStore(str(tmp_path)),
            get_error_every=2,
            get_garbage_every=3,
            put_truncate_every=2,
        )
        assert flat_estimates(dtmb26_chip, engine) == baseline
        assert sum(store.injected.values()) > 0


class TestFaultInjectingStore:
    def test_cadence_is_deterministic(self):
        inner = MemoryStore()
        store = FaultInjectingStore(inner, get_error_every=3)
        key = "ab" * 16
        inner.put(key, b"payload")
        outcomes = []
        for _ in range(6):
            try:
                outcomes.append(store.get(key) is not None)
            except StoreError:
                outcomes.append("error")
        assert outcomes == [True, True, "error", True, True, "error"]
        assert store.injected["get_error"] == 2

    def test_truncation_halves_the_payload(self):
        inner = MemoryStore()
        store = FaultInjectingStore(inner, put_truncate_every=1)
        key = "cd" * 16
        store.put(key, b"0123456789")
        assert inner.get(key) == b"01234"


class TestArtifactsByteIdentical:
    def test_registry_result_digest_unchanged_by_faulty_remote(self, tmp_path):
        clean = registry.execute(
            "fig9", runs=60, seed=7, engine=SweepEngine()
        )
        engine, store = faulty_engine(
            SharedFSStore(str(tmp_path)),
            get_error_every=2,
            get_garbage_every=3,
            put_error_every=2,
        )
        chaotic = registry.execute("fig9", runs=60, seed=7, engine=engine)

        assert chaotic.report == clean.report
        assert chaotic.rows == clean.rows
        assert chaotic.provenance.digest == clean.provenance.digest
        # The incidents are visible in provenance, not in the numbers.
        assert chaotic.provenance.cache is not None
        assert chaotic.provenance.cache.get("remote_errors", 0) > 0

    def test_incident_log_warns_but_never_raises(self, dtmb26_chip, caplog):
        engine = SweepEngine(
            cache_store=HTTPStore("http://127.0.0.1:9", timeout=0.2)
        )
        import logging

        with caplog.at_level(logging.WARNING, logger="repro.cachestore"):
            flat_estimates(dtmb26_chip, engine)
        assert any(
            "degraded to miss" in rec.getMessage() for rec in caplog.records
        )
