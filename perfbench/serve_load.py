"""The ``serve`` workload: a closed-loop load generator against ``repro serve``.

The server runs in its own process (``serve_proc.py``), so the generator's
interpreter lock never counts as server latency.  The generator is this one
process with ``CLIENTS`` threads (= the reference machine's ``nproc``),
each sending its next request only after the previous reply.  The server
answers one request per connection and then closes it, so every request
opens a fresh loopback connection.

One pass launches a fresh server and sends the seeded mix in three phases:

1. cold: distinct matching points whose budget exceeds ``--shard-runs``,
   so each one shards across a fresh process pool;
2. pairs: each thread sends the same new point at the same moment, so one
   request leads and the other coalesces onto it;
3. hits: ``HITS`` repeats of points from phases 1-2, served from cache.

The warm repeat replays the whole mix, ``WARM_REPLAYS`` times, against the
same, now warm, server.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

from harness import SpeedClock
from workloads import HERE, PassResult, expected

CLIENTS = 2
JOBS = 2
RUNS = 20_000
SHARD_RUNS = 5_000
COLD = 8
PAIRS = 4
#: hits per pass; MIN_PASSES passes give every run at least 1000, so
#: serve.hit_p99_ms has at least 10 samples beyond it
HITS = 500
#: hits per thread per round of the mix
HIT_CHUNK = 50
#: back-to-back warm replays of the whole mix per pass; their mean is the
#: pass's warm sample, since one replay (~1 s) is shorter than the swings
#: in machine speed it would otherwise record
WARM_REPLAYS = 3
DESIGNS = (("DTMB(2,6)", 60), ("DTMB(2,6)", 120), ("DTMB(3,6)", 60),
           ("DTMB(3,6)", 120))
P_GRID = tuple(round(0.90 + 0.01 * i, 2) for i in range(11))
LAUNCH_TIMEOUT_S = 60.0
#: idle time before each speed burst (see ``harness.SpeedClock``)
SETTLE_S = 0.03


def mix_points(index: int) -> List[Dict[str, object]]:
    """The distinct points of input set ``index``: COLD + PAIRS of them.

    Designs cycle through ``DESIGNS`` so every input set costs the server
    the same; only p and the point seeds come from the input set.
    """
    rng = random.Random(f"serve-{index}")
    points = []
    for i in range(COLD + PAIRS):
        design, n = DESIGNS[i % len(DESIGNS)]
        points.append({
            "kind": "survival", "design": design, "n": n,
            "param": rng.choice(P_GRID), "runs": RUNS,
            "seed": rng.randrange(1, 2**31),
        })
    return points


def mix_schedule(index: int) -> Tuple[List[List[int]], List[int], List[List[int]]]:
    """Per-thread cold lists, the pair list and per-thread hit lists."""
    rng = random.Random(f"serve-schedule-{index}")
    cold = [list(range(t, COLD, CLIENTS)) for t in range(CLIENTS)]
    pairs = list(range(COLD, COLD + PAIRS))
    hits = [i % (COLD + PAIRS) for i in range(HITS)]  # every point equally often
    rng.shuffle(hits)
    return cold, pairs, [hits[t::CLIENTS] for t in range(CLIENTS)]


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, tmp: str, trace_out: Optional[str]):
        self.dir = tempfile.mkdtemp(prefix="serve-", dir=tmp)
        self.log_path = os.path.join(self.dir, "stderr.log")
        self.trace_out = trace_out
        cmd = [sys.executable, os.path.join(HERE, "serve_proc.py")]
        if trace_out is not None:
            cmd += ["--trace-out", trace_out]
        cmd += ["--", "serve", "--host", "127.0.0.1", "--port", "0",
                "--jobs", str(JOBS), "--shard-runs", str(SHARD_RUNS),
                "--cache", os.path.join(self.dir, "cache")]
        t0 = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=log)
        try:
            self.port = self._wait_port(t0)
            self._wait_health(t0)
        except BaseException:
            self.stop()
            raise

    def _wait_port(self, t0: float) -> int:
        marker = "listening on http://127.0.0.1:"
        while time.perf_counter() - t0 < LAUNCH_TIMEOUT_S:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited early: {self._log_tail()}")
            with open(self.log_path, encoding="utf-8", errors="replace") as fh:
                for line in fh:
                    if marker in line:
                        return int(line.split(marker, 1)[1].split()[0].rstrip("/"))
            time.sleep(0.005)
        raise RuntimeError("repro serve did not report its port")

    def _wait_health(self, t0: float) -> None:
        while time.perf_counter() - t0 < LAUNCH_TIMEOUT_S:
            try:
                status, _ = self.request("GET", "/health")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("repro serve never answered GET /health")

    def _log_tail(self) -> str:
        with open(self.log_path, encoding="utf-8", errors="replace") as fh:
            return fh.read()[-2000:]

    def request(self, method: str, path: str, body: Optional[dict] = None
                ) -> Tuple[int, dict]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            data = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if data else {}
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            payload = response.read()
            return response.status, json.loads(payload) if payload else {}
        finally:
            conn.close()

    def stop(self) -> Optional[dict]:
        """SIGTERM, wait for the drain, and return the server's spans."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        summary = None
        if self.trace_out is not None and os.path.exists(self.trace_out):
            with open(self.trace_out, encoding="utf-8") as fh:
                summary = json.load(fh)
        return summary


class ServeWorkload:
    name = "serve"
    layers = ()  # client side: one span per request; server side: engine
    min_passes = 2

    def __init__(self, index: int, tmp: str):
        self.index = index
        self.tmp = tmp
        self.expected: List[int] = expected(self.name, self.budget(), index)
        self.points = mix_points(index)
        self.cold, self.pairs, self.hits = mix_schedule(index)
        self.launches: List[float] = []

    @staticmethod
    def budget() -> Dict[str, object]:
        return {"runs": RUNS, "shard_runs": SHARD_RUNS, "cold": COLD,
                "pairs": PAIRS, "designs": [list(d) for d in DESIGNS]}

    def launch(self, trace_out: Optional[str]) -> Server:
        """A fresh server; its launch time at reference speed joins the
        set-up samples."""
        clock = SpeedClock(all_cpus=True)
        with clock.segment():
            server = Server(self.tmp, trace_out)
        self.launches.append(clock.ref_s)
        return server

    def setup_samples(self, minimum: int) -> List[float]:
        while len(self.launches) < minimum:
            self.launch(None).stop()
        return list(self.launches)

    def prepare(self) -> Tuple[int, int]:
        return 0, 0

    # -- one pass ------------------------------------------------------------
    def _mix(self, server: Server, recorder, clock: SpeedClock) -> Dict[str, object]:
        """Send the whole mix once on CLIENTS threads; per-request records.

        The mix goes out in rounds (one cold request per thread, one pair,
        or HIT_CHUNK hits per thread), each round a clock segment, so the
        speed bursts between rounds never count as server time.
        """
        records: List[List[Tuple[str, int, int, float, Optional[dict]]]] = [
            [] for _ in range(CLIENTS)
        ]
        cpu_s = 0.0

        def send(thread: int, phase: str, point: int) -> None:
            t0 = time.perf_counter()
            try:
                if recorder is not None:
                    status, body = recorder.call(
                        "serve.request", server.request,
                        ("POST", "/points", self.points[point]), {}, None,
                    )
                else:
                    status, body = server.request("POST", "/points", self.points[point])
            except (OSError, http.client.HTTPException, ValueError):
                status, body = 0, None
            records[thread].append(
                (phase, point, status, time.perf_counter() - t0, body)
            )

        def send_round(phase: str, per_thread: List[List[int]],
                       together: bool = False) -> None:
            nonlocal cpu_s
            barrier = threading.Barrier(CLIENTS)

            def client(thread: int) -> None:
                for point in per_thread[thread]:
                    if together:
                        barrier.wait()
                    send(thread, phase, point)

            threads = [threading.Thread(target=client, args=(t,))
                       for t in range(CLIENTS)]
            with clock.segment():
                cpu0 = time.process_time()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                cpu_s += time.process_time() - cpu0

        for i in range(max(len(c) for c in self.cold)):
            send_round("cold", [c[i:i + 1] for c in self.cold])
        for point in self.pairs:
            send_round("pair", [[point]] * CLIENTS, together=True)
        for lo in range(0, max(len(h) for h in self.hits), HIT_CHUNK):
            send_round("hit", [h[lo:lo + HIT_CHUNK] for h in self.hits])
        return {"cpu_s": cpu_s, "records": [r for per in records for r in per]}

    def _check(self, records) -> Tuple[int, int, int]:
        """(attempted, failed, rejected) for one mix."""
        failed = rejected = 0
        for _phase, point, status, _lat, body in records:
            if status == 503:
                rejected += 1
            if status != 200 or body is None or (
                body.get("successes"), body.get("trials")
            ) != (self.expected[point], RUNS):
                failed += 1
        return len(records), failed, rejected

    def run_pass(self, recorder=None) -> PassResult:
        trace_out = None
        if recorder is not None:
            trace_out = os.path.join(self.tmp, f"server-trace-{len(self.launches)}.json")
        server = self.launch(trace_out)
        try:
            _, stats0 = server.request("GET", "/stats")
            cold_clock = SpeedClock(SETTLE_S, all_cpus=True)
            cold = self._mix(server, recorder, cold_clock)
            _, stats1 = server.request("GET", "/stats")
            warm_clock = SpeedClock(SETTLE_S, all_cpus=True)
            warms = [self._mix(server, recorder, warm_clock)
                     for _ in range(WARM_REPLAYS)]
        finally:
            summary = server.stop()

        attempted = failed = rejected = 0
        for mix in [cold] + warms:
            a, f, r = self._check(mix["records"])
            attempted += a
            failed += f
            rejected += r
        records = cold["records"]
        hits = [lat for phase, _, status, lat, _ in records
                if phase == "hit" and status == 200]
        colds = [lat for phase, _, status, lat, _ in records
                 if phase == "cold" and status == 200]
        pair_bodies = [body for phase, _, _, _, body in records if phase == "pair"]
        coalesced = sum(1 for body in pair_bodies if body and body.get("coalesced"))
        engine0, engine1 = stats0["engine"], stats1["engine"]
        d_hits = engine1["cache_hits"] - engine0["cache_hits"]
        d_misses = engine1["cache_misses"] - engine0["cache_misses"]
        if d_misses != COLD + PAIRS:
            failed += 1  # some point was computed twice, or not at all
        outputs = [
            sorted((point, body["successes"]) for phase, point, status, _, body
                   in mix["records"] if status == 200)
            for mix in [cold] + warms
        ]
        return PassResult(
            wall_s=cold_clock.ref_s, warm_wall_s=warm_clock.ref_s / WARM_REPLAYS,
            raw_wall_s=cold_clock.raw_s, mc_runs=d_misses * RUNS, attempted=attempted, failed=failed,
            outputs=outputs,
            extra={
                "hit_ms": [1e3 * x for x in hits],
                "cold_ms": [1e3 * x for x in colds],
                "requests": len(records),
                "pair_requests": len(pair_bodies),
                "coalesced": coalesced,
                "rejected": rejected,
                "cache_hit_frac": d_hits / max(1, d_hits + d_misses),
                "client_cpu_frac": cold["cpu_s"] / cold_clock.raw_s,
                "server": summary,
            },
        )
