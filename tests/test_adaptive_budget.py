"""Statistical tests for adaptive sequential budgets.

The claims under test, from strongest to softest:

* the :class:`~repro.yieldsim.stats.StopRule` honors its min/max bounds
  and its batch plan covers exactly the capped budget;
* on synthetic Bernoulli streams, a stopped stream's achieved Wilson
  half-width meets the target (or the stream spent its whole cap);
* adaptive execution at max budget is *exactly* the fixed-budget batched
  result — the stopping logic can end a point early but never perturb a
  number it reports;
* effective budgets are deterministic given the seed, whatever ``jobs``;
* post-stopping coverage: the adaptive estimator still brackets the known
  analytical yield on the degree-1 flower design.

Every stream here is seeded, so the "statistical" assertions are exact
reruns, not flaky tail events — the CI lane (``pytest -m statistical``)
runs them at the same fixed seeds as the tier-1 pass.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.designs.interstitial import build_flower_chip
from repro.errors import SimulationError
from repro.yieldsim.analytical import dtmb16_yield
from repro.yieldsim.engine import SweepEngine
from repro.yieldsim.stats import (
    StopRule,
    wilson_half_width,
    wilson_interval,
)

pytestmark = pytest.mark.statistical


def sequential_bernoulli(rule: StopRule, p: float, seed: int, budget: int):
    """Run the rule against a synthetic Bernoulli(p) stream.

    Returns ``(successes, trials)`` at the stopping point — the reference
    semantics the engine's batched path must follow: whole batches, folded
    in order, rule checked after each fold.
    """
    rng = np.random.default_rng(seed)
    successes = 0
    trials = 0
    for size in rule.plan(budget):
        successes += int((rng.random(size) < p).sum())
        trials += size
        if rule.should_stop(successes, trials):
            break
    return successes, trials


class TestStopRuleContract:
    def test_validation(self):
        with pytest.raises(SimulationError):
            StopRule(target_half_width=0.0)
        with pytest.raises(SimulationError):
            StopRule(target_half_width=-0.01)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(SimulationError):
                StopRule(target_half_width=bad)
        with pytest.raises(SimulationError):
            StopRule(target_half_width=0.01, min_runs=0)
        with pytest.raises(SimulationError):
            StopRule(target_half_width=0.01, batch_runs=0)
        with pytest.raises(SimulationError):
            StopRule(target_half_width=0.01, min_runs=500, max_runs=100)
        with pytest.raises(SimulationError):
            StopRule(target_half_width=0.01, z=0.0)

    def test_plan_covers_exactly_the_cap(self):
        rule = StopRule(target_half_width=0.01, min_runs=10, batch_runs=300)
        assert sum(rule.plan(1000)) == 1000
        assert rule.plan(1000) == (300, 300, 300, 100)
        assert rule.plan(300) == (300,)
        assert rule.plan(7) == (7,)
        capped = StopRule(
            target_half_width=0.01, min_runs=10, max_runs=500, batch_runs=200
        )
        assert sum(capped.plan(10_000)) == 500

    def test_cap_respects_budget_and_max_runs(self):
        rule = StopRule(target_half_width=0.01, min_runs=10, max_runs=800)
        assert rule.cap(500) == 500
        assert rule.cap(5000) == 800
        unbounded = StopRule(target_half_width=0.01, min_runs=10)
        assert unbounded.cap(5000) == 5000

    def test_digest_distinguishes_rules(self):
        a = StopRule(target_half_width=0.01)
        b = StopRule(target_half_width=0.02)
        c = StopRule(target_half_width=0.01, batch_runs=500)
        assert a.digest() == StopRule(target_half_width=0.01).digest()
        assert len({a.digest(), b.digest(), c.digest()}) == 3

    def test_should_stop_blocked_below_min_runs(self):
        rule = StopRule(target_half_width=0.5, min_runs=100, batch_runs=10)
        # A huge target is met immediately — but not before min_runs.
        assert not rule.should_stop(10, 10)
        assert rule.should_stop(100, 100)


class TestBernoulliStreams:
    """The rule against raw synthetic Bernoulli streams (no chips)."""

    RULE = StopRule(
        target_half_width=0.02, min_runs=200, batch_runs=200
    )
    BUDGET = 20_000

    @pytest.mark.parametrize("p", [0.5, 0.8, 0.95, 0.99, 1.0])
    def test_achieved_half_width_meets_target(self, p):
        for seed in range(20):
            successes, trials = sequential_bernoulli(
                self.RULE, p, seed, self.BUDGET
            )
            achieved = wilson_half_width(successes, trials)
            assert achieved <= self.RULE.target_half_width or trials == self.BUDGET, (
                f"p={p} seed={seed}: stopped at {trials} with ±{achieved:.4f}"
            )

    @pytest.mark.parametrize("p", [0.3, 0.9, 0.999])
    def test_min_and_max_bounds_honored(self, p):
        rule = StopRule(
            target_half_width=0.5, min_runs=400, max_runs=600, batch_runs=100
        )
        for seed in range(10):
            _, trials = sequential_bernoulli(rule, p, seed, self.BUDGET)
            # Target ±0.5 is trivially met, so the floor binds exactly...
            assert trials == 400
        tight = StopRule(
            target_half_width=1e-9, min_runs=400, max_runs=600, batch_runs=100
        )
        for seed in range(10):
            _, trials = sequential_bernoulli(tight, p, seed, self.BUDGET)
            # ...and an unreachable target runs to the max-runs ceiling.
            assert trials == 600

    def test_easy_streams_stop_early_hard_streams_spend_more(self):
        easy = [
            sequential_bernoulli(self.RULE, 0.999, seed, self.BUDGET)[1]
            for seed in range(10)
        ]
        hard = [
            sequential_bernoulli(self.RULE, 0.5, seed, self.BUDGET)[1]
            for seed in range(10)
        ]
        assert max(easy) < min(hard)
        assert max(easy) <= 600  # near-degenerate streams stop within batches

    def test_stream_estimate_stays_calibrated(self):
        """Coverage after optional stopping: the 95% interval still brackets
        the true p in (at least) 18 of 20 fixed-seed streams."""
        hits = 0
        for seed in range(20):
            successes, trials = sequential_bernoulli(
                self.RULE, 0.9, seed, self.BUDGET
            )
            lo, hi = wilson_interval(successes, trials)
            hits += lo <= 0.9 <= hi
        assert hits >= 18


class TestAdaptiveEngine:
    """The engine's batched path against the reference semantics."""

    def test_adaptive_at_max_budget_equals_flat_batched(self, dtmb26_chip):
        """A rule that never fires spends the whole plan — bit-identical to
        the fixed-budget batched (sharded) run of the same point."""
        never = StopRule(target_half_width=1e-12, min_runs=100, batch_runs=400)
        adaptive = SweepEngine().survival_estimates(
            dtmb26_chip, [(0.93, 7), (0.97, 8)], 2000, stop=never
        )
        flat = SweepEngine(shard_runs=400).survival_estimates(
            dtmb26_chip, [(0.93, 7), (0.97, 8)], 2000
        )
        assert [(e.successes, e.trials) for e in adaptive] == [
            (e.successes, e.trials) for e in flat
        ]
        assert all(e.trials == 2000 for e in adaptive)

    def test_adaptive_deterministic_given_seed(self, dtmb26_chip):
        rule = StopRule(target_half_width=0.02, min_runs=200, batch_runs=200)
        runs = [
            SweepEngine(jobs=jobs).survival_estimates(
                dtmb26_chip, [(0.995, 11)], 20_000, stop=rule
            )[0]
            for jobs in (1, 1, 3)
        ]
        assert len({(e.successes, e.trials) for e in runs}) == 1
        assert runs[0].trials < 20_000  # and it genuinely stopped early

    def test_effective_budget_within_bounds(self, dtmb26_chip):
        rule = StopRule(
            target_half_width=0.05, min_runs=300, max_runs=900, batch_runs=300
        )
        estimates = SweepEngine().survival_estimates(
            dtmb26_chip, [(0.999, 3), (0.5, 4)], 5000, stop=rule
        )
        for estimate in estimates:
            assert 300 <= estimate.trials <= 900

    def test_each_point_meets_target_or_spends_cap(self, dtmb26_chip):
        rule = StopRule(target_half_width=0.03, min_runs=200, batch_runs=200)
        budget = 4000
        points = [(p, 50 + i) for i, p in enumerate((0.90, 0.95, 0.99, 1.0))]
        estimates = SweepEngine().survival_estimates(
            dtmb26_chip, points, budget, stop=rule
        )
        for estimate in estimates:
            achieved = wilson_half_width(estimate.successes, estimate.trials)
            assert achieved <= rule.target_half_width or estimate.trials == budget

    def test_adaptive_estimator_brackets_analytical_yield(self):
        """Post-stopping coverage on the flower design, where the exact
        yield is known analytically: 9 of 10 fixed-seed adaptive estimates
        must bracket it."""
        chip = build_flower_chip(60)
        truth = dtmb16_yield(0.95, 60)
        rule = StopRule(target_half_width=0.015, min_runs=500, batch_runs=500)
        engine = SweepEngine()
        estimates = engine.survival_estimates(
            chip, [(0.95, 1000 + i) for i in range(10)], 20_000, stop=rule
        )
        hits = sum(est.consistent_with(truth) for est in estimates)
        assert hits >= 9
        assert all(est.trials < 20_000 for est in estimates)  # all stopped early

    def test_point_log_records_requested_vs_effective(self, dtmb26_chip):
        rule = StopRule(target_half_width=0.02, min_runs=200, batch_runs=200)
        engine = SweepEngine()
        engine.survival_estimates(dtmb26_chip, [(0.999, 5)], 10_000, stop=rule)
        engine.survival_estimates(dtmb26_chip, [(0.93, 6)], 500)
        adaptive_rec, flat_rec = engine.point_log
        assert adaptive_rec.requested == 10_000
        assert adaptive_rec.effective < 10_000
        assert adaptive_rec.adaptive
        assert (flat_rec.requested, flat_rec.effective) == (500, 500)
        assert not flat_rec.adaptive
        assert engine.runs_requested == 10_500
        assert engine.runs_effective == adaptive_rec.effective + 500
