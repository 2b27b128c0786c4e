"""Telemetry overhead: armed tracing + logging must cost at most 5%.

The observability acceptance target mirrors the resilience one: running
the Figure 7 survival grid with the full telemetry stack armed — span
tracer on the engine, JSON event logging configured at INFO, worker
phase timers (always on) — must cost at most 5% over a plain engine, and
must not change a single number (telemetry is out-of-band by contract).

Timing noise on shared CI runners easily exceeds 5% on small budgets, so
both configurations run several rounds and the *minimum* is compared,
with a small absolute floor absorbing scheduler jitter on fast runs.
"""

from __future__ import annotations

import io
import time

from conftest import report

from repro.designs.catalog import DTMB_1_6
from repro.designs.interstitial import build_with_primary_count
from repro.obs.events import configure_logging
from repro.obs.trace import Tracer, validate_trace
from repro.yieldsim.engine import SweepEngine
from repro.yieldsim.sweeps import DEFAULT_P_GRID

#: The Figure 7 design and array size whose Monte-Carlo check the paper plots.
FIG7_N = 60

ROUNDS = 3

#: Allowed relative overhead of armed tracing + logging.
MAX_OVERHEAD = 0.05

#: Absolute jitter floor (seconds): below this, timer noise dominates and
#: a ratio assertion would test the OS scheduler, not the code.
JITTER_FLOOR = 0.10


def _grid_points(seed):
    return [(p, seed + i + 1) for i, p in enumerate(DEFAULT_P_GRID)]


def _run(engine, chip, runs):
    return [
        (e.successes, e.trials)
        for e in engine.survival_estimates(chip, _grid_points(2005), runs)
    ]


def _best_of(make_engine, chip, runs):
    best, result = float("inf"), None
    for round_index in range(ROUNDS):
        engine = make_engine(round_index)
        t0 = time.perf_counter()
        result = _run(engine, chip, runs)
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_bench_obs_overhead(runs):
    chip = build_with_primary_count(DTMB_1_6, FIG7_N).build()

    t_plain, plain = _best_of(lambda i: SweepEngine(), chip, runs)

    # Armed: a live tracer on the engine plus NDJSON event logging at
    # INFO draining into memory (the worst case — a real run writes to a
    # buffered file).  Each round gets a fresh tracer so the span list
    # grows from empty, as in a real traced run.
    sink = io.StringIO()
    configure_logging("info", json_lines=True, stream=sink)
    try:
        tracers = []

        def make_armed(_round):
            tracer = Tracer()
            tracers.append(tracer)
            return SweepEngine(tracer=tracer)

        t_armed, armed = _best_of(make_armed, chip, runs)
    finally:
        configure_logging("warning")  # restore the quiet default

    overhead = t_armed / max(t_plain, 1e-9) - 1.0
    report(
        "Telemetry overhead (Fig. 7 grid, tracer + JSON log armed)",
        f"plain engine:  {t_plain:.3f}s (best of {ROUNDS})\n"
        f"armed engine:  {t_armed:.3f}s (tracer + NDJSON logging)\n"
        f"trace spans:   {len(tracers[-1])} per round\n"
        f"overhead:      {100.0 * overhead:+.1f}% "
        f"(budget {100.0 * MAX_OVERHEAD:.0f}%)",
    )

    # Armed telemetry must not change a single number...
    assert armed == plain
    # ...its trace must be well-formed and span every grid point...
    events = validate_trace(tracers[-1].to_dict())
    points = [e for e in events if e["name"] == "point"]
    assert len(points) == len(DEFAULT_P_GRID)
    # ...and it must fit the overhead budget (jitter floor absorbs timer
    # noise when the reduced CI budget finishes in milliseconds).
    assert t_armed <= t_plain * (1.0 + MAX_OVERHEAD) + JITTER_FLOOR, (
        f"telemetry stack costs {100.0 * overhead:.1f}% "
        f"(budget {100.0 * MAX_OVERHEAD:.0f}%)"
    )
