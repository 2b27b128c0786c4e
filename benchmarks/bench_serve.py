"""Serving layer: HTTP overhead and the value of digest coalescing.

Two shape claims:

* The HTTP layer adds bounded overhead on a *cached* point — the
  round-trip for a repeat request (point-cache hit, no Monte-Carlo) must
  be milliseconds, not a re-computation.
* Digest coalescing makes N identical concurrent requests cost ~one
  computation: total wall time for N concurrent identical adaptive
  requests must be far closer to 1x a single computation than to Nx.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

from conftest import report

from repro.serve import BackgroundServer, ServeConfig
from repro.yieldsim.engine import SweepEngine

N_CONCURRENT = 8


def _post_point(base: str, body: dict) -> dict:
    request = urllib.request.Request(
        base + "/points", data=json.dumps(body).encode(), method="POST"
    )
    with urllib.request.urlopen(request, timeout=600) as response:
        return json.loads(response.read())


def test_bench_serve_coalescing(runs, tmp_path):
    body = {
        "kind": "survival", "param": 0.95, "runs": max(runs, 2000),
        "seed": 41, "design": "DTMB(2,6)", "n": 60,
    }
    with BackgroundServer(
        ServeConfig(port=0), engine=SweepEngine(cache_dir=str(tmp_path))
    ) as handle:
        base = f"http://127.0.0.1:{handle.port}"

        # Cold single request: one full computation, the 1x baseline.
        t0 = time.perf_counter()
        first = _post_point(base, dict(body, seed=40))
        t_single = time.perf_counter() - t0

        # N identical concurrent requests on a fresh key: coalesced.
        answers: list = []

        def worker() -> None:
            answers.append(_post_point(base, body))

        threads = [
            threading.Thread(target=worker) for _ in range(N_CONCURRENT)
        ]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        t_coalesced = time.perf_counter() - t0

        # Repeat request: point-cache hit, no Monte-Carlo at all.
        t0 = time.perf_counter()
        repeat = _post_point(base, body)
        t_cached = time.perf_counter() - t0

        stats = json.loads(
            urllib.request.urlopen(base + "/stats", timeout=30).read()
        )

    assert len(answers) == N_CONCURRENT
    assert len({a["value"] for a in answers}) == 1
    assert repeat["value"] == answers[0]["value"]
    # One computation per distinct key, however the N requests landed:
    # concurrent arrivals coalesce onto the in-flight entry, stragglers
    # hit the point cache — either way the Monte-Carlo ran exactly twice
    # (once per distinct seed) across all N+2 requests.
    assert stats["engine"]["cache_misses"] == 2
    assert stats["engine"]["cache_hits"] >= 1   # the repeat request
    coalesced = sum(1 for a in answers if a["coalesced"])

    report(
        "serve: coalescing and cache behaviour",
        "\n".join(
            [
                f"single cold request:            {t_single * 1e3:8.1f} ms",
                f"{N_CONCURRENT} identical concurrent:        "
                f"{t_coalesced * 1e3:8.1f} ms "
                f"({t_coalesced / max(t_single, 1e-9):.2f}x single, "
                f"{coalesced} coalesced)",
                f"repeat (point-cache hit):       {t_cached * 1e3:8.1f} ms",
            ]
        ),
    )
    # N concurrent identical requests must not cost anywhere near N
    # computations; allow generous CI jitter around the 1x ideal.
    assert t_coalesced < max(0.5 * N_CONCURRENT * t_single, 3 * t_single), (
        t_coalesced, t_single
    )
    # A cache-hit round-trip must not look like a recomputation.
    assert t_cached < max(0.5, 0.5 * t_single), (t_cached, t_single)
