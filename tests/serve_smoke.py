"""CI smoke driver for `repro serve` — not a pytest module.

Boots the server on an ephemeral port, then proves served results are
the offline results:

1. ``POST /points`` for a Figure-7-style survival point must equal the
   same :class:`EnginePoint` run directly through a local engine.
2. ``POST /experiments/fig9`` at a small budget must return a bundle
   whose digest equals the provenance digest a local artifact run
   (the ``repro fig9 --out`` path) records in ``manifest.json``.
3. A streamed adaptive point (``"stream": true``) must end in a
   ``result`` line equal to the plain response for the same point.
4. The ``/cache/objects`` endpoint (``--cache-objects``) must round-trip
   payloads byte-exactly through :class:`HTTPStore`, refuse a
   digest-mismatched upload, and store objects readable directly off the
   mounted :class:`SharedFSStore` tree — transport parity between the
   two remote store implementations.
5. ``GET /metrics`` must carry a ``# TYPE`` line for every metric family
   listed in ``docs/observability.md``.
6. A pooled server (``SweepEngine(jobs=2, shard_runs=…)``) must answer
   three sequential sharded cold ``POST /points`` exactly as an offline
   serial engine does, on one worker pool that is gone once the server
   stops — no child process is left behind.
7. A cached server must answer 50 repeats of one cold point from the
   cache: every repeat equal to the first response except for
   ``coalesced``, 50 more hits and no more misses in ``/stats``, the
   response's ``chip_digest`` equal to the offline payload digest, and
   a repeat addressed by ``chip_digest`` alone hitting the same key.
8. While one thread posts a new cold point, the main thread sends 50
   sequential repeats of an already-cached point, so a hit queues behind
   the computation and the rest are answered on the event loop:
   every repeat equal to the first response except for ``coalesced``,
   50 more hits and exactly one more miss (the cold point) in
   ``/stats``.

Exits non-zero on any mismatch.  Run as::

    PYTHONPATH=src python tests/serve_smoke.py
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import pathlib
import re
import sys
import tempfile
import threading
import urllib.error
import urllib.request

RUNS = 200
SEED = 2005
#: the pooled leg's shard size: each of its points folds four shards
SHARD_RUNS = 150
#: the cached leg's repeats of its one cold point (and the mixed leg's
#: repeats of its cached point)
HITS = 50
#: the mixed leg's cold point budget: long enough that a hit queues behind it
MIXED_COLD_RUNS = 50_000


def post(base: str, path: str, body: dict, timeout: float = 600) -> dict:
    request = urllib.request.Request(
        base + path, data=json.dumps(body).encode(), method="POST"
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        assert response.status == 200, (path, response.status)
        return json.loads(response.read())


def post_stream(base: str, path: str, body: dict, timeout: float = 600) -> list:
    request = urllib.request.Request(
        base + path, data=json.dumps(body).encode(), method="POST"
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        assert response.status == 200, (path, response.status)
        return [json.loads(line) for line in response.read().splitlines()]


def engine_stats(base: str) -> dict:
    with urllib.request.urlopen(base + "/stats", timeout=30) as response:
        return json.loads(response.read())["engine"]


def answer(payload: dict) -> dict:
    """A point response without ``coalesced``, which differs by timing."""
    return {k: v for k, v in payload.items() if k != "coalesced"}


def documented_families() -> list:
    """Regexes for the metric families in observability.md's table.

    ``{a,b}`` alternatives expand, a ``{map=…}`` label suffix is dropped
    and ``<field>`` stands for any Counters field name.
    """
    doc = pathlib.Path(__file__).resolve().parents[1] / "docs" / "observability.md"
    patterns = []
    for line in doc.read_text().splitlines():
        if not line.startswith("| `repro_"):
            continue
        for token in re.findall(r"`([^`]+)`", line.split("|")[1]):
            token = re.sub(r"\{map=[^}]*\}$", "", token)
            parts = re.split(r"\{([^}]*)\}", token)
            choices = [
                part.split(",") if i % 2 else [part]
                for i, part in enumerate(parts)
            ]
            for combo in itertools.product(*choices):
                name = re.escape("".join(combo)).replace(
                    re.escape("<field>"), "[a-z_]+"
                )
                patterns.append(name)
    assert patterns, f"no metric table found in {doc}"
    return patterns


def main() -> int:
    from repro.designs.catalog import DTMB_1_6
    from repro.designs.interstitial import build_with_primary_count
    from repro.errors import StoreError
    from repro.experiments import registry
    from repro.experiments.artifacts import ArtifactRun
    from repro.serve import BackgroundServer, ServeConfig
    from repro.yieldsim.cachestore import (
        HTTPStore,
        SharedFSStore,
        content_digest,
        encode_entry,
    )
    from repro.yieldsim.engine import EnginePoint, SweepEngine
    from repro.yieldsim.kernel import PointSpec

    out_dir = tempfile.mkdtemp(prefix="serve-smoke-")
    objects_dir = tempfile.mkdtemp(prefix="serve-smoke-objects-")

    # The offline references: one fig7 point and the fig9 bundle, both
    # produced without the server in the loop.
    chip = build_with_primary_count(DTMB_1_6, 60).build()
    [offline_point] = SweepEngine().run_points(
        [EnginePoint(chip, PointSpec("survival", 0.95, RUNS, SEED))]
    )
    local = registry.execute("fig9", runs=RUNS, seed=SEED)
    run = ArtifactRun(out_dir, runs=RUNS, seed=SEED)
    run.add(local)
    manifest_path = run.finalize()
    manifest = json.load(open(manifest_path))
    local_digest = manifest["experiments"]["fig9"]["provenance"]["digest"]

    with BackgroundServer(
        ServeConfig(port=0, cache_objects=objects_dir)
    ) as handle:
        base = f"http://127.0.0.1:{handle.port}"

        served_point = post(base, "/points", {
            "kind": "survival", "param": 0.95, "runs": RUNS, "seed": SEED,
            "design": "DTMB(1,6)", "n": 60,
        })
        assert served_point["successes"] == offline_point.successes, (
            served_point["successes"], offline_point.successes
        )
        assert served_point["trials"] == offline_point.trials
        print(
            f"fig7 point OK: served {served_point['successes']}/"
            f"{served_point['trials']} == offline engine"
        )

        adaptive = {
            "kind": "survival", "param": 0.95, "runs": 4 * RUNS,
            "seed": SEED, "design": "DTMB(1,6)", "n": 60, "adaptive": True,
        }
        lines = post_stream(base, "/points", dict(adaptive, stream=True))
        plain = post(base, "/points", adaptive)
        assert lines[0]["event"] == "accepted", lines[0]
        assert {e["event"] for e in lines[1:-1]} <= {"fold"}, lines
        result = dict(lines[-1])
        assert result.pop("event") == "result", lines[-1]
        assert result == plain, (result, plain)
        print(
            f"streamed point OK: {len(lines) - 2} fold line(s), result "
            f"{result['successes']}/{result['trials']} == plain response"
        )

        served_bundle = post(
            base, "/experiments/fig9", {"runs": RUNS, "seed": SEED}
        )
        assert served_bundle["digest"] == local_digest, (
            served_bundle["digest"], local_digest
        )
        print(
            f"fig9 bundle OK: served digest {served_bundle['digest']} == "
            "local artifact manifest"
        )

        # HTTPStore parity with the mounted SharedFSStore tree.
        store = HTTPStore(base)
        payload = encode_entry({"successes": 42, "trials": RUNS, "smoke": 1})
        key = content_digest(payload)
        assert store.put(key, payload) is True
        assert store.put(key, payload) is False  # put-if-absent over HTTP
        assert store.get(key) == payload
        assert store.exists(key)
        assert key in store.list_keys()
        assert SharedFSStore(objects_dir).get(key) == payload, (
            "object served over HTTP must be readable off the FS tree"
        )
        try:
            # A truncated body under a full digest must be refused.
            bogus = content_digest(b"something else entirely")
            urllib.request.urlopen(
                urllib.request.Request(
                    f"{base}/cache/objects/{bogus}",
                    data=payload[: len(payload) // 2],
                    method="PUT",
                    headers={"X-Repro-Digest": bogus},
                ),
                timeout=30,
            )
            raise AssertionError("digest-mismatched PUT was accepted")
        except urllib.error.HTTPError as exc:
            assert exc.code == 400, exc.code
        assert not store.exists(bogus)
        try:
            store.get("not-a-valid-key")
            raise AssertionError("invalid key was accepted")
        except StoreError:
            pass
        print(f"cache transport OK: HTTPStore round-trip of {key[:12]}…")

        metrics = urllib.request.urlopen(
            base + "/metrics", timeout=30
        ).read().decode("utf-8")
        families = documented_families()
        for family in families:
            assert re.search(
                rf"^# TYPE {family} (counter|gauge|histogram)$", metrics, re.M
            ), f"/metrics has no family matching {family}"
        print(f"metrics OK: all {len(families)} documented families exposed")

        stats = json.loads(
            urllib.request.urlopen(base + "/stats", timeout=30).read()
        )
        # the fig7 point, the streamed point and its plain twin (no cache)
        assert stats["points"]["computed"] == 3
        assert stats["bundles"]["computed"] == 1
        assert stats["cache_objects"]["count"] == 1

    pooled_leg()
    cached_leg()
    mixed_leg()
    print("serve smoke passed")
    return 0


def pooled_leg() -> None:
    """Sequential sharded cold points on one long-lived worker pool."""
    from repro.designs.catalog import DTMB_2_6
    from repro.designs.interstitial import build_with_primary_count
    from repro.serve import BackgroundServer, ServeConfig
    from repro.yieldsim.engine import EnginePoint, SweepEngine
    from repro.yieldsim.kernel import PointSpec

    chip = build_with_primary_count(DTMB_2_6, 60).build()
    seeds = (SEED, SEED + 1, SEED + 2)
    offline = SweepEngine(shard_runs=SHARD_RUNS).run_points([
        EnginePoint(chip, PointSpec("survival", 0.95, 4 * SHARD_RUNS, seed))
        for seed in seeds
    ])
    engine = SweepEngine(jobs=2, shard_runs=SHARD_RUNS)
    with BackgroundServer(ServeConfig(port=0), engine=engine) as handle:
        base = f"http://127.0.0.1:{handle.port}"
        for seed, reference in zip(seeds, offline):
            served = post(base, "/points", {
                "kind": "survival", "param": 0.95, "runs": 4 * SHARD_RUNS,
                "seed": seed, "design": "DTMB(2,6)", "n": 60,
            })
            assert (served["successes"], served["trials"]) == (
                reference.successes, reference.trials
            ), (seed, served, reference)
        assert multiprocessing.active_children(), "no worker pool was used"
    left = multiprocessing.active_children()
    assert not left, f"worker processes outlived the server: {left}"
    print(
        f"pooled server OK: {len(seeds)} sharded cold points == offline "
        "serial engine; no worker left after stop"
    )


def cached_leg() -> None:
    """One cold point, then cache hits over HTTP on a cached server."""
    from repro.designs.catalog import DTMB_2_6
    from repro.designs.interstitial import build_with_primary_count
    from repro.serve import BackgroundServer, ServeConfig
    from repro.yieldsim.engine import SweepEngine
    from repro.yieldsim.scheduler import chip_payload, payload_digest

    body = {
        "kind": "survival", "param": 0.95, "runs": RUNS, "seed": SEED,
        "design": "DTMB(2,6)", "n": 60,
    }
    chip = build_with_primary_count(DTMB_2_6, 60).build()
    cache_dir = tempfile.TemporaryDirectory(prefix="serve-smoke-cache-")
    engine = SweepEngine(cache_dir=cache_dir.name)
    with cache_dir, BackgroundServer(ServeConfig(port=0), engine=engine) as handle:
        base = f"http://127.0.0.1:{handle.port}"
        first = post(base, "/points", body)
        before = engine_stats(base)
        for _ in range(HITS):
            repeat = post(base, "/points", body)
            assert answer(repeat) == answer(first), (repeat, first)
        after = engine_stats(base)
        assert after["cache_hits"] - before["cache_hits"] == HITS, (before, after)
        assert after["cache_misses"] == before["cache_misses"], (before, after)
        offline = payload_digest(chip_payload(chip))
        assert first["chip_digest"] == offline, (first["chip_digest"], offline)

        by_digest = {k: v for k, v in body.items() if k not in ("design", "n")}
        by_digest["chip_digest"] = first["chip_digest"]
        served = post(base, "/points", by_digest)
        assert served["key"] == first["key"], (served["key"], first["key"])
        assert (served["successes"], served["trials"]) == (
            first["successes"], first["trials"]
        )
        last = engine_stats(base)
        assert last["cache_hits"] == after["cache_hits"] + 1, (after, last)
        assert last["cache_misses"] == after["cache_misses"], (after, last)
    print(
        f"cached server OK: {HITS} repeats of one cold point == its first "
        "answer, all cache hits; chip_digest == offline payload digest"
    )


def mixed_leg() -> None:
    """Cache hits sent while a cold point computes on another connection."""
    from repro.serve import BackgroundServer, ServeConfig
    from repro.yieldsim.engine import SweepEngine

    body = {
        "kind": "survival", "param": 0.95, "runs": RUNS, "seed": SEED,
        "design": "DTMB(2,6)", "n": 60,
    }
    cold_body = dict(body, runs=MIXED_COLD_RUNS, seed=SEED + 1)
    cache_dir = tempfile.TemporaryDirectory(prefix="serve-smoke-mixed-")
    engine = SweepEngine(cache_dir=cache_dir.name)
    with cache_dir, BackgroundServer(ServeConfig(port=0), engine=engine) as handle:
        base = f"http://127.0.0.1:{handle.port}"
        first = post(base, "/points", body)
        before = engine_stats(base)
        cold = []
        thread = threading.Thread(
            target=lambda: cold.append(post(base, "/points", cold_body))
        )
        thread.start()
        for _ in range(HITS):
            repeat = post(base, "/points", body)
            assert answer(repeat) == answer(first), (repeat, first)
        thread.join(timeout=600)
        assert cold and cold[0]["trials"] == MIXED_COLD_RUNS, cold
        after = engine_stats(base)
        assert after["cache_hits"] - before["cache_hits"] == HITS, (before, after)
        assert after["cache_misses"] - before["cache_misses"] == 1, (before, after)
    print(
        f"mixed server OK: {HITS} repeats during a cold point == the first "
        "answer, all cache hits; one miss for the cold point"
    )


if __name__ == "__main__":
    sys.exit(main())
