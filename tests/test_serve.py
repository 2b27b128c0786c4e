"""The serving layer: protocol validation, coalescing, streaming, parity.

The headline claims under test:

* **One compute for N identical concurrent requests** — a gated engine
  holds the computation until every request has joined the in-flight
  entry, so the assertion (1 leader, N-1 followers, 1 cache miss) is
  deterministic, not a race the test usually wins.
* **Served numbers are offline numbers** — a point fetched over HTTP is
  bit-identical to the same :class:`EnginePoint` run locally, and a
  served bundle's digest equals a local ``registry.execute`` digest.
* **One schema everywhere** — ``GET /experiments`` returns exactly
  ``repro list --json`` / :func:`registry.listing`.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.experiments import registry
from repro.serve import BackgroundServer, PointRequest, ServeConfig
from repro.serve.protocol import BundleRequest
from repro.errors import ServeError
from repro.yieldsim.engine import EnginePoint, SweepEngine
from repro.yieldsim.kernel import PointSpec

RUNS = 600
SEED = 77
POINT_BODY = {
    "kind": "survival", "param": 0.95, "runs": RUNS, "seed": SEED,
    "design": "DTMB(2,6)", "n": 60,
}


def http(base, path, body=None, timeout=120):
    """(status, parsed JSON body) for a GET (body=None) or POST."""
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        base + path, data=data, method="POST" if body is not None else "GET"
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture(scope="module")
def server():
    with BackgroundServer(ServeConfig(port=0)) as handle:
        yield handle


@pytest.fixture(scope="module")
def base(server):
    return f"http://127.0.0.1:{server.port}"


class TestReadEndpoints:
    def test_info_and_health(self, base):
        status, info = http(base, "/")
        assert status == 200 and info["service"] == "repro-serve"
        status, health = http(base, "/health")
        assert status == 200 and health["status"] == "ok"

    def test_listing_is_the_shared_registry_schema(self, base):
        status, listing = http(base, "/experiments")
        assert status == 200
        assert listing == registry.listing()

    def test_single_experiment_descriptor(self, base):
        status, descriptor = http(base, "/experiments/fig9")
        assert status == 200
        assert descriptor == registry.get("fig9").as_dict()

    def test_unknown_experiment_404(self, base):
        status, error = http(base, "/experiments/nope")
        assert status == 404 and error["error"] == "ExperimentError"

    def test_unknown_route_404(self, base):
        status, error = http(base, "/nothing/here")
        assert status == 404 and error["error"] == "NotFound"

    def test_stats_shape(self, base):
        status, stats = http(base, "/stats")
        assert status == 200
        assert {"requests", "points", "bundles", "engine"} <= set(stats)


class TestPointRequests:
    def test_served_point_equals_offline_engine(self, base, dtmb26_chip):
        status, served = http(base, "/points", POINT_BODY)
        assert status == 200
        # n=60 primaries is a different build than the fixture's 10x10
        # footprint — reconstruct the exact chip the server built.
        from repro.designs.catalog import DTMB_2_6
        from repro.designs.interstitial import build_with_primary_count

        chip = build_with_primary_count(DTMB_2_6, 60).build()
        [offline] = SweepEngine().run_points(
            [EnginePoint(chip, PointSpec("survival", 0.95, RUNS, SEED))]
        )
        assert served["successes"] == offline.successes
        assert served["trials"] == offline.trials
        assert served["value"] == offline.value

    def test_digest_addressing_resolves_same_point(self, base):
        _, first = http(base, "/points", POINT_BODY)
        body = dict(POINT_BODY)
        del body["design"], body["n"]
        body["chip_digest"] = first["chip_digest"]
        status, second = http(base, "/points", body)
        assert status == 200
        assert second["key"] == first["key"]
        assert second["value"] == first["value"]

    def test_unseen_chip_digest_is_a_clean_400(self, base):
        body = dict(POINT_BODY)
        del body["design"], body["n"]
        body["chip_digest"] = "0" * 64
        status, error = http(base, "/points", body)
        assert status == 400 and error["error"] == "ServeError"

    def test_adaptive_point_stops_early(self, base):
        body = dict(POINT_BODY, runs=50_000, adaptive=True, target_ci=0.05)
        status, served = http(base, "/points", body)
        assert status == 200
        assert served["adaptive"] is True
        assert served["trials"] < 50_000

    def test_streamed_point_sends_ndjson_progress(self, base):
        body = dict(
            POINT_BODY, runs=20_000, seed=SEED + 1,
            adaptive=True, target_ci=0.02, stream=True,
        )
        req = urllib.request.Request(
            base + "/points", data=json.dumps(body).encode(), method="POST"
        )
        with urllib.request.urlopen(req, timeout=300) as response:
            assert response.headers["Content-Type"] == "application/x-ndjson"
            lines = [json.loads(l) for l in response.read().splitlines()]
        assert lines[0]["event"] == "accepted"
        assert lines[-1]["event"] == "result"
        folds = [l for l in lines if l["event"] == "fold"]
        assert folds, "adaptive points must stream fold progress"
        trials = [f["trials"] for f in folds]
        assert trials == sorted(trials)
        # The stream's final result equals the non-streamed answer.
        plain = dict(body)
        del plain["stream"]
        _, direct = http(base, "/points", plain)
        assert lines[-1]["value"] == direct["value"]
        assert lines[-1]["trials"] == direct["trials"]


class TestValidation:
    @pytest.mark.parametrize(
        "body",
        [
            {},                                                # missing fields
            dict(POINT_BODY, kind="bogus"),                    # bad regime
            dict(POINT_BODY, runs=0),                          # empty budget
            dict(POINT_BODY, runs="many"),                     # wrong type
            dict(POINT_BODY, surprise=1),                      # unknown field
            dict(POINT_BODY, design="nope"),                   # unknown design
            dict(POINT_BODY, target_ci=-1.0),                  # bad target
            dict(POINT_BODY, kind="fixed", param=3,
                 defect_model="negbin"),                       # fixed + model
            dict(POINT_BODY, seed=-1),                         # negative seed
            dict(POINT_BODY, adaptive="false"),                # string flag
            dict(POINT_BODY, stream="no"),
            dict(POINT_BODY, trace=1),
            dict(POINT_BODY, target_ci=float("inf")),          # Infinity token
        ],
    )
    def test_bad_point_requests_are_400(self, server, base, body):
        leaders = server.server.points.leaders
        status, error = http(base, "/points", body)
        assert status == 400, error
        assert error["error"] in ("ServeError", "SimulationError")
        assert server.server.points.leaders == leaders

    def test_non_finite_defect_model_is_400(self, base):
        body = dict(POINT_BODY, defect_model="spot:radius=nan")
        status, error = http(base, "/points", body)
        assert status == 400 and error["error"] == "FaultModelError", error

    def test_request_dataclasses_reject_bad_input_eagerly(self):
        with pytest.raises(ServeError):
            PointRequest.from_dict({"param": 0.9, "runs": 100})
        with pytest.raises(ServeError):
            BundleRequest.from_dict("fig7", {"runs": True})

    def test_runs_above_server_ceiling_rejected(self):
        with BackgroundServer(ServeConfig(port=0, max_runs=1000)) as handle:
            small = f"http://127.0.0.1:{handle.port}"
            status, error = http(small, "/points", dict(POINT_BODY, runs=2000))
            assert status == 400
            assert "ceiling" in error["message"]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_inflight", 0),
            ("request_timeout", 0.0),
            ("request_timeout", -1.0),
            ("drain_timeout", -0.5),
            ("max_runs", 0),
            ("max_body_bytes", 0),
            ("max_body_bytes", -1),
        ],
    )
    def test_config_rejects_unusable_settings(self, field, value):
        # max_inflight=0 would answer every new computation with 503.
        with pytest.raises(ServeError, match=field):
            ServeConfig(**{field: value})

    def test_cli_serve_rejects_unusable_settings(self, monkeypatch, capsys):
        from repro.cli import main
        from repro.serve import app

        monkeypatch.setattr(
            app, "serve_forever",
            lambda *a, **k: pytest.fail("server started despite a bad flag"),
        )
        assert main(["serve", "--port", "0", "--max-inflight", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: max_inflight must be >= 1")

    def test_cli_cache_serve_rejects_unusable_body_limit(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main
        from repro.serve import app

        monkeypatch.setattr(
            app, "serve_forever",
            lambda *a, **k: pytest.fail("server started despite a bad flag"),
        )
        argv = ["cache-serve", "--port", "0", "--dir", str(tmp_path)]
        assert main(argv + ["--max-body-bytes", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: max_body_bytes must be >= 1")

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_is_400(self, base, length):
        host, port = base.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=30) as sock:
            sock.sendall(
                f"POST /points HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Length: {length}\r\n\r\n".encode("latin-1")
            )
            response = b""
            while chunk := sock.recv(65536):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == b"400"
        assert "Content-Length" in json.loads(body)["message"]
        status, health = http(base, "/health")
        assert status == 200 and health["status"] == "ok"

    def test_oversized_body_is_rejected(self, base):
        # The server rejects on Content-Length without draining the body,
        # so the client sees either the 413 response or a reset while
        # still sending — both are a rejection; the server must survive.
        try:
            status, _ = http(
                base, "/points", dict(POINT_BODY, defect_model="x" * (1 << 20))
            )
            assert status == 413
        except (urllib.error.URLError, ConnectionError):
            pass
        status, health = http(base, "/health")
        assert status == 200 and health["status"] == "ok"

    def test_non_json_body_is_400(self, base):
        req = urllib.request.Request(
            base + "/points", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=30)
        excinfo.value.close()
        assert excinfo.value.code == 400

    def test_wrong_method_is_405(self, base):
        status, error = http(base, "/points")
        assert status == 405


class GatedEngine(SweepEngine):
    """An engine whose compute blocks until the test opens the gate —
    making "all N requests joined before anything computed" a certainty
    rather than a race."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.gate = threading.Event()
        self.compute_calls = 0

    def run_points(self, tasks, on_fold=None):
        assert self.gate.wait(timeout=60), "test never opened the gate"
        self.compute_calls += 1
        return super().run_points(tasks, on_fold=on_fold)


class ThreadRecordingEngine(GatedEngine):
    """A gated engine that records which thread ran each ``run_points``."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.threads = []

    def run_points(self, tasks, on_fold=None):
        self.threads.append(threading.get_ident())
        return super().run_points(tasks, on_fold=on_fold)


def _wait_until(predicate, timeout=30):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestCoalescing:
    N = 6

    def test_identical_concurrent_points_compute_once(self, tmp_path):
        engine = GatedEngine(cache_dir=str(tmp_path))
        with BackgroundServer(ServeConfig(port=0), engine=engine) as handle:
            url = f"http://127.0.0.1:{handle.port}"
            results = []

            def request():
                results.append(http(url, "/points", POINT_BODY, timeout=300))

            threads = [
                threading.Thread(target=request) for _ in range(self.N)
            ]
            for thread in threads:
                thread.start()
            # Every request must be parked on the same in-flight entry
            # before the (still gated) computation may produce a result.
            assert _wait_until(
                lambda: handle.server.points.followers == self.N - 1
            ), "requests did not coalesce onto one entry"
            engine.gate.set()
            for thread in threads:
                thread.join(timeout=300)

            statuses = [status for status, _ in results]
            payloads = [payload for _, payload in results]
            assert statuses == [200] * self.N
            # Exactly one computation happened, whichever way you count.
            assert engine.compute_calls == 1
            assert engine.cache_misses == 1
            assert engine.cache_hits == 0
            assert handle.server.points.leaders == 1
            assert handle.server.points.followers == self.N - 1
            # Everyone got the same (bit-identical) answer.
            assert len({p["value"] for p in payloads}) == 1
            assert len({p["key"] for p in payloads}) == 1
            assert sorted(p["coalesced"] for p in payloads) == (
                [False] + [True] * (self.N - 1)
            )

    def test_distinct_requests_do_not_coalesce(self, tmp_path):
        engine = GatedEngine(cache_dir=str(tmp_path))
        engine.gate.set()  # no gating needed; these must all compute
        with BackgroundServer(ServeConfig(port=0), engine=engine) as handle:
            url = f"http://127.0.0.1:{handle.port}"
            for seed in (1, 2, 3):
                status, _ = http(
                    url, "/points", dict(POINT_BODY, seed=seed), timeout=300
                )
                assert status == 200
            assert handle.server.points.leaders == 3
            assert handle.server.points.followers == 0
            assert engine.cache_misses == 3

    def test_failed_leader_propagates_to_followers(self):
        class FailingEngine(GatedEngine):
            def run_points(self, tasks, on_fold=None):
                assert self.gate.wait(timeout=60)
                raise RuntimeError("engine exploded")

        engine = FailingEngine()
        with BackgroundServer(ServeConfig(port=0), engine=engine) as handle:
            url = f"http://127.0.0.1:{handle.port}"
            results = []

            def request():
                results.append(http(url, "/points", POINT_BODY, timeout=300))

            threads = [threading.Thread(target=request) for _ in range(3)]
            for thread in threads:
                thread.start()
            assert _wait_until(lambda: handle.server.points.followers == 2)
            engine.gate.set()
            for thread in threads:
                thread.join(timeout=300)
            assert [status for status, _ in results] == [500] * 3
            for _, error in results:
                assert error["error"] == "InternalError"


#: Four points on two chips, each cheap to compute once.
HIT_BODIES = [
    dict(POINT_BODY, runs=200, design=design, seed=seed)
    for design in ("DTMB(2,6)", "DTMB(1,6)")
    for seed in (1, 2)
]


class TestCacheHits:
    """A hit on a warm server re-derives nothing per chip and keeps
    nothing per request."""

    def test_hits_serialize_each_chip_at_most_once(self, tmp_path, monkeypatch):
        from repro.yieldsim import scheduler

        calls = []
        real = scheduler.chip_payload

        def counting(chip, needed=None):
            calls.append(chip)
            return real(chip, needed)

        monkeypatch.setattr(scheduler, "chip_payload", counting)
        engine = SweepEngine(cache_dir=str(tmp_path))
        with BackgroundServer(ServeConfig(port=0), engine=engine) as handle:
            url = f"http://127.0.0.1:{handle.port}"
            for body in HIT_BODIES:
                assert http(url, "/points", body)[0] == 200
            for i in range(100):
                assert http(url, "/points", HIT_BODIES[i % 4])[0] == 200
        assert engine.cache_hits == 100 and engine.cache_misses == 4
        # At most one call per chip (the parent made two per request).
        assert len({id(chip) for chip in calls}) == len(calls) <= 2

    def test_hits_leave_the_point_log_unchanged(self, tmp_path):
        engine = SweepEngine(cache_dir=str(tmp_path))
        with BackgroundServer(ServeConfig(port=0), engine=engine) as handle:
            url = f"http://127.0.0.1:{handle.port}"
            assert http(url, "/points", HIT_BODIES[0])[0] == 200
            before = len(engine.point_log)
            for _ in range(200):
                assert http(url, "/points", HIT_BODIES[0])[0] == 200
            assert engine.cache_hits == 200
            assert len(engine.point_log) == before

    # A hit is answered on the event loop only while no computation holds
    # the compute lock, and only from the local tier; everything else
    # takes the worker-thread path.

    def test_hit_during_a_compute_takes_the_thread_path(self, tmp_path):
        engine = ThreadRecordingEngine(cache_dir=str(tmp_path))
        engine.gate.set()
        with BackgroundServer(ServeConfig(port=0), engine=engine) as handle:
            url = f"http://127.0.0.1:{handle.port}"
            server = handle.server
            status, first = http(url, "/points", HIT_BODIES[0])
            assert status == 200
            engine.gate.clear()
            results = {}

            def request(name, body):
                results[name] = http(url, "/points", body, timeout=300)

            cold = threading.Thread(
                target=request, args=("cold", HIT_BODIES[1])
            )
            cold.start()
            # The cold point's leader holds the lock, parked at the gate.
            assert _wait_until(server._compute_lock.locked)
            hit = threading.Thread(target=request, args=("hit", HIT_BODIES[0]))
            hit.start()
            # The hit leads its own entry and waits for the lock.
            assert _wait_until(lambda: len(server.points) == 2)
            assert "hit" not in results
            engine.gate.set()
            cold.join(timeout=300)
            hit.join(timeout=300)
            loop = handle._thread.ident
        assert results["hit"] == (200, first)
        assert results["cold"][0] == 200
        assert engine.cache_hits == 1 and engine.cache_misses == 2
        assert server.points.leaders == 3 and server.points.followers == 0
        assert loop not in engine.threads

    def test_sequential_hits_count_one_hit_each(self, tmp_path):
        hits = 25
        engine = ThreadRecordingEngine(cache_dir=str(tmp_path))
        engine.gate.set()
        with BackgroundServer(ServeConfig(port=0), engine=engine) as handle:
            url = f"http://127.0.0.1:{handle.port}"
            status, first = http(url, "/points", HIT_BODIES[0])
            assert status == 200
            _, before = http(url, "/stats")
            for _ in range(hits):
                assert http(url, "/points", HIT_BODIES[0]) == (200, first)
            _, after = http(url, "/stats")
            loop = handle._thread.ident
        runs = HIT_BODIES[0]["runs"]
        delta = {
            field: after["engine"][field] - before["engine"][field]
            for field in (
                "cache_hits", "cache_misses", "runs_requested", "runs_effective"
            )
        }
        assert delta == {
            "cache_hits": hits, "cache_misses": 0,
            "runs_requested": hits * runs, "runs_effective": hits * runs,
        }
        assert after["points"]["computed"] - before["points"]["computed"] == hits
        assert after["points"]["coalesced"] == before["points"]["coalesced"]
        # The cold point computed on a worker thread, every hit on the loop.
        assert engine.threads[0] != loop
        assert engine.threads[1:] == [loop] * hits

    def test_corrupt_local_entry_recomputes_off_the_loop(
        self, tmp_path, monkeypatch
    ):
        from repro.designs.catalog import DTMB_2_6
        from repro.designs.interstitial import build_with_primary_count
        from repro.yieldsim import scheduler

        chip = build_with_primary_count(DTMB_2_6, 60).build()
        [offline] = SweepEngine().run_points(
            [EnginePoint(chip, PointSpec("survival", 0.95, RUNS, SEED))]
        )
        unit_threads = []
        real = scheduler.compute_unit

        def recording(*args, **kwargs):
            unit_threads.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(scheduler, "compute_unit", recording)
        engine = SweepEngine(cache_dir=str(tmp_path))
        with BackgroundServer(ServeConfig(port=0), engine=engine) as handle:
            url = f"http://127.0.0.1:{handle.port}"
            status, first = http(url, "/points", POINT_BODY)
            assert status == 200
            (tmp_path / f"{first['key']}.json").write_bytes(b'{"succ')
            _, before = http(url, "/stats")
            assert http(url, "/points", POINT_BODY) == (200, first)
            _, after = http(url, "/stats")
            loop = handle._thread.ident
        assert (first["successes"], first["trials"]) == (
            offline.successes, offline.trials
        )
        assert (
            after["resilience"]["quarantined"]
            - before["resilience"]["quarantined"]
        ) == 1
        assert after["engine"]["cache_misses"] - before["engine"]["cache_misses"] == 1
        assert after["engine"]["cache_hits"] == before["engine"]["cache_hits"]
        assert len(unit_threads) == 2 and loop not in unit_threads

    def test_remote_only_point_is_fetched_off_the_loop(self, tmp_path):
        from repro.designs.catalog import DTMB_2_6
        from repro.designs.interstitial import build_with_primary_count
        from repro.yieldsim.cachestore import MemoryStore

        class RecordingStore(MemoryStore):
            def __init__(self):
                super().__init__()
                self.get_threads = []

            def get(self, key):
                self.get_threads.append(threading.get_ident())
                return super().get(key)

        remote = RecordingStore()
        chip = build_with_primary_count(DTMB_2_6, 60).build()
        [offline] = SweepEngine(cache_store=remote).run_points(
            [EnginePoint(chip, PointSpec("survival", 0.95, RUNS, SEED))]
        )
        remote.get_threads.clear()
        engine = SweepEngine(cache_dir=str(tmp_path), cache_store=remote)
        with BackgroundServer(ServeConfig(port=0), engine=engine) as handle:
            url = f"http://127.0.0.1:{handle.port}"
            status, first = http(url, "/points", POINT_BODY)
            assert status == 200
            # Now written back to the local tier: a hit that never asks
            # the remote.
            assert http(url, "/points", POINT_BODY) == (200, first)
            loop = handle._thread.ident
        assert (first["successes"], first["trials"]) == (
            offline.successes, offline.trials
        )
        assert len(remote.get_threads) == 1 and loop not in remote.get_threads
        assert engine.store_stats.remote_hits == 1
        assert engine.cache_hits == 2 and engine.cache_misses == 0


#: A sharded cold point: four 300-run shards, so a jobs=2 engine runs it
#: on its worker pool.
SHARD_RUNS = 300
SHARDED_BODY = dict(POINT_BODY, runs=4 * SHARD_RUNS)


def _offline_sharded(seed):
    """``(successes, trials)`` of ``SHARDED_BODY`` at ``seed``, computed
    offline on a serial engine."""
    from repro.designs.catalog import DTMB_2_6
    from repro.designs.interstitial import build_with_primary_count

    chip = build_with_primary_count(DTMB_2_6, 60).build()
    [estimate] = SweepEngine(shard_runs=SHARD_RUNS).run_points(
        [EnginePoint(chip, PointSpec("survival", 0.95, 4 * SHARD_RUNS, seed))]
    )
    return estimate.successes, estimate.trials


class TestPooledServer:
    """A ``jobs > 1`` engine keeps one worker pool for the server's
    lifetime and releases it when the server stops."""

    def test_pool_serves_requests_and_leaves_no_workers(self):
        before = set(multiprocessing.active_children())
        engine = SweepEngine(jobs=2, shard_runs=SHARD_RUNS)
        with BackgroundServer(ServeConfig(port=0), engine=engine) as handle:
            url = f"http://127.0.0.1:{handle.port}"
            for seed in (1, 2):
                status, served = http(
                    url, "/points", dict(SHARDED_BODY, seed=seed)
                )
                assert status == 200
                assert (served["successes"], served["trials"]) == (
                    _offline_sharded(seed)
                )
            assert set(multiprocessing.active_children()) - before
        assert not set(multiprocessing.active_children()) - before

    def test_sigterm_exits_within_the_drain_timeout(self):
        drain = 10.0
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "2", "--shard-runs", str(SHARD_RUNS),
             "--drain-timeout", str(drain)],
            stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        try:
            port = None
            for line in proc.stderr:
                found = re.search(r"listening on http://[^:]+:(\d+)", line)
                if found:
                    port = int(found.group(1))
                    break
            assert port is not None, "server never reported its port"
            status, served = http(
                f"http://127.0.0.1:{port}", "/points",
                dict(SHARDED_BODY, seed=3),
            )
            assert status == 200
            assert (served["successes"], served["trials"]) == (
                _offline_sharded(3)
            )
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=drain) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.communicate(timeout=30)


class TestBundles:
    def test_served_bundle_digest_matches_local_execute(self, tmp_path):
        out_dir = tmp_path / "artifacts"
        config = ServeConfig(port=0, out_dir=str(out_dir))
        with BackgroundServer(config) as handle:
            url = f"http://127.0.0.1:{handle.port}"
            status, bundle = http(
                url, "/experiments/fig7", {"runs": 200, "seed": 5},
                timeout=600,
            )
        assert status == 200
        local = registry.execute("fig7", runs=200, seed=5)
        assert bundle["digest"] == local.provenance.digest
        assert bundle["rows"] == [list(r) for r in local.rows]
        assert bundle["report"] == local.report_text()
        # The served run was persisted through the artifact store and the
        # manifest's digest agrees with the response body.
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert (
            manifest["experiments"]["fig7"]["provenance"]["digest"]
            == bundle["digest"]
        )
        assert bundle["artifacts"]["files"]["csv"] == "fig7/fig7.csv"

    def test_bundle_validation_and_defect_model_gate(self, base):
        status, error = http(base, "/experiments/fig7", {"runs": -1})
        assert status == 400
        # table1 is deterministic and takes no defect-model knob.
        status, error = http(
            base, "/experiments/table1", {"defect_model": "negbin"}
        )
        assert status == 400 and error["error"] == "ServeError"

    def test_bad_bundles_are_rejected_before_admission(self):
        # A saturated server still answers a malformed bundle with 400,
        # not 503, and never counts it as a computation.
        engine = GatedEngine()
        config = ServeConfig(port=0, max_inflight=1)
        with BackgroundServer(config, engine=engine) as handle:
            url = f"http://127.0.0.1:{handle.port}"
            holder = threading.Thread(
                target=lambda: http(url, "/points", POINT_BODY, timeout=300)
            )
            holder.start()
            try:
                assert _wait_until(lambda: len(handle.server.points) == 1)
                for name, body in (
                    ("table1", {"defect_model": "negbin"}),
                    ("fig9", {"defect_model": "bogus"}),
                    ("fig9", {"defect_model": "negbin:alpha=inf"}),
                    ("table1", {"criterion": "routing"}),
                    ("fig9", {"runs": 100, "seed": -3}),
                    ("fig9", {"adaptive": "false"}),
                    ("fig9", {"target_ci": float("inf")}),
                ):
                    status, _ = http(url, f"/experiments/{name}", body)
                    assert status == 400, (name, body)
                assert handle.server.bundles.leaders == 0
                assert handle.server.rejected == 0
            finally:
                engine.gate.set()
                holder.join(timeout=300)


class TestCacheObjects:
    PAYLOAD = b'{"successes": 1}\n'

    @pytest.fixture()
    def stored(self, tmp_path):
        from repro.yieldsim.cachestore import content_digest

        config = ServeConfig(port=0, cache_objects=str(tmp_path / "objects"))
        with BackgroundServer(config) as handle:
            url = f"http://127.0.0.1:{handle.port}/cache/objects/"
            digest = content_digest(self.PAYLOAD)
            put = urllib.request.Request(
                url + digest, data=self.PAYLOAD, method="PUT",
                headers={"X-Repro-Digest": digest},
            )
            with urllib.request.urlopen(put, timeout=30) as response:
                assert response.status == 201
            yield url + digest, digest

    def test_head_advertises_the_object_without_a_body(self, stored):
        url, digest = stored
        request = urllib.request.Request(url, method="HEAD")
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 200
            assert response.read() == b""
            assert response.headers["Content-Length"] == str(len(self.PAYLOAD))
            assert response.headers["X-Repro-Digest"] == digest
            assert response.headers["ETag"] == f'"{digest}"'

    def test_get_returns_the_object_and_304s_a_matching_etag(self, stored):
        url, digest = stored
        with urllib.request.urlopen(url, timeout=30) as response:
            assert response.read() == self.PAYLOAD
            assert response.headers["ETag"] == f'"{digest}"'
        request = urllib.request.Request(
            url, headers={"If-None-Match": f'"{digest}"'}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        excinfo.value.close()
        assert excinfo.value.code == 304
        assert excinfo.value.headers["X-Repro-Digest"] == digest

    def test_304_is_a_head_without_content(self, stored):
        url, digest = stored
        host, _, rest = url.removeprefix("http://").partition("/")
        name, port = host.split(":")
        with socket.create_connection((name, int(port)), timeout=30) as sock:
            sock.sendall(
                f"GET /{rest} HTTP/1.1\r\nHost: {host}\r\n"
                f'If-None-Match: "{digest}"\r\n\r\n'.encode("latin-1")
            )
            response = b""
            while chunk := sock.recv(65536):
                response += chunk
        head, sep, body = response.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        fields = dict(line.split(": ", 1) for line in lines[1:])
        assert lines[0] == "HTTP/1.1 304 Not Modified"
        assert sep and body == b""
        assert "Content-Length" not in fields
        assert fields["X-Repro-Digest"] == digest
        assert fields["ETag"] == f'"{digest}"'
