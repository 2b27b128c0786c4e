"""Tests for the pluggable spatial defect-model subsystem.

Covers the satellite checklist of the defect-model PR: per-model
distribution sanity (mean kill rate, cluster size), digest discipline
(params change -> digest changes; distinct models never share a cache
key at equal severity), bit-identity of the ``IIDBernoulli`` path with
the pre-model engine stream, ``SeedSequence`` seed normalization, CRN
nesting, and the scenario-pack experiments' defect-model provenance.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.designs.catalog import DTMB_2_6
from repro.designs.interstitial import build_chip
from repro.errors import FaultModelError, SimulationError
from repro.experiments import registry
from repro.faults.injection import make_rng
from repro.yieldsim.defects import (
    DefectModel,
    FixedCount,
    IIDBernoulli,
    NegativeBinomialClustered,
    RadialGradient,
    SpotDefects,
    family_from_spec,
    geometry_for,
)
from repro.yieldsim.engine import EnginePoint, SweepEngine
from repro.yieldsim.kernel import (
    GOOD,
    PointSpec,
    RepairStructure,
    classify_repairable,
    model_successes,
    point_model,
    survival_batch_sizes,
)
from repro.yieldsim.sweeps import defect_model_sweep, survival_sweep

#: Specs with a non-finite number.  Each once crashed (a NaN or infinite
#: spot radius), killed every cell (an infinite Gamma shape) or silently
#: became i.i.d. (a NaN gradient spread); the parser now rejects them.
NON_FINITE_SPECS = (
    "spot:radius=nan",
    "spot:radius=inf",
    "negbin:alpha=inf",
    "gradient:spread=nan",
)

ALL_MODELS = (
    IIDBernoulli(0.95),
    FixedCount(6),
    SpotDefects(0.004, radius=1),
    NegativeBinomialClustered(0.95, alpha=1.5),
    RadialGradient(0.98, 0.90),
)


class TestGeometry:
    def test_ball_matches_injector_footprint(self, dtmb26_chip):
        """Radius-r balls equal the BFS spot the old injector killed."""
        geometry = geometry_for(dtmb26_chip)
        coords = dtmb26_chip.coords
        idx, mask = geometry.ball(1)
        for c in (0, 17, len(coords) - 1):
            got = {coords[i] for i in idx[c][mask[c]]}
            want = {coords[c]} | set(dtmb26_chip.neighbors(coords[c]))
            assert got == want

    def test_ball_radius_zero_is_self(self, dtmb26_chip):
        geometry = geometry_for(dtmb26_chip)
        idx, mask = geometry.ball(0)
        assert (mask.sum(axis=1) == 1).all()
        assert (idx[:, 0] == np.arange(geometry.n_cells)).all()

    def test_huge_radius_ball_stops_at_the_chip(self, dtmb26_chip):
        """A radius past the chip's diameter (say ``spot:radius=1e9`` in a
        served request) is the whole component, found without walking
        the radius out step by step."""
        geometry = geometry_for(dtmb26_chip)
        idx, mask = geometry.ball(10**9)
        want_idx, want_mask = geometry.ball(geometry.n_cells)
        assert (idx == want_idx).all() and (mask == want_mask).all()

    def test_geometry_cached_per_chip(self, dtmb26_chip):
        assert geometry_for(dtmb26_chip) is geometry_for(dtmb26_chip)

    def test_geometry_cache_lets_chips_die(self, small_region):
        """The cached geometry must not keep its chip alive: callers that
        build a fresh chip per experiment would otherwise grow without
        bound."""
        chip = build_chip(DTMB_2_6, small_region)
        geometry_for(chip).ball(1)
        alive = weakref.ref(chip)
        del chip
        gc.collect()
        assert alive() is None

    def test_neighbor_lists_follow_chip_adjacency(self, dtmb26_chip):
        coords = dtmb26_chip.coords
        index = {c: i for i, c in enumerate(coords)}
        want = tuple(
            tuple(index[n] for n in dtmb26_chip.neighbors(c)) for c in coords
        )
        assert geometry_for(dtmb26_chip).neighbor_lists == want

    def test_radial_t_spans_unit_interval(self, dtmb26_chip):
        t = geometry_for(dtmb26_chip).radial_t
        assert t.min() >= 0.0 and t.max() == pytest.approx(1.0)

    def test_structure_geometry_is_lazy_and_cached(self, dtmb26_chip):
        struct = RepairStructure(dtmb26_chip)
        assert struct._geometry is None
        assert struct.geometry is struct.geometry


class TestProtocol:
    def test_all_models_satisfy_protocol(self):
        for model in ALL_MODELS:
            assert isinstance(model, DefectModel)
            assert isinstance(model.severity, float)
            assert isinstance(model.params(), dict)
            assert len(model.digest()) == 16

    def test_digest_changes_when_params_change(self):
        assert IIDBernoulli(0.95).digest() != IIDBernoulli(0.96).digest()
        assert FixedCount(5).digest() != FixedCount(6).digest()
        assert (
            SpotDefects(0.004, radius=1).digest()
            != SpotDefects(0.004, radius=2).digest()
        )
        assert (
            SpotDefects(0.004, radius=1).digest()
            != SpotDefects(0.004, radius=1, rate_cap=0.01).digest()
        )
        assert (
            NegativeBinomialClustered(0.95, alpha=1.0).digest()
            != NegativeBinomialClustered(0.95, alpha=2.0).digest()
        )
        assert (
            RadialGradient(0.98, 0.90).digest()
            != RadialGradient(0.98, 0.90, power=2.0).digest()
        )

    def test_distinct_models_distinct_digests_at_equal_severity(self):
        digests = {
            model.name: model.digest()
            for model in (
                IIDBernoulli(0.95),
                NegativeBinomialClustered(0.95, alpha=1.5),
                RadialGradient(0.95, 0.95),
            )
        }
        assert len(set(digests.values())) == len(digests)

    def test_parameter_validation(self):
        with pytest.raises(FaultModelError):
            IIDBernoulli(1.5)
        with pytest.raises(FaultModelError):
            FixedCount(-1)
        with pytest.raises(FaultModelError):
            SpotDefects(-0.1)
        with pytest.raises(FaultModelError):
            SpotDefects(0.5, rate_cap=0.1)  # cap below rate
        with pytest.raises(FaultModelError):
            NegativeBinomialClustered(0.9, alpha=0.0)
        with pytest.raises(FaultModelError):
            NegativeBinomialClustered(0.9, alpha=float("inf"))
        for rate in (float("nan"), float("inf")):
            with pytest.raises(FaultModelError):
                SpotDefects(rate)
        with pytest.raises(FaultModelError):
            RadialGradient(1.2, 0.9)


class TestDistributions:
    """Fixed-seed sanity checks on each model's sampling distribution."""

    RUNS = 4000

    def test_iid_mean_kill_rate(self, dtmb26_chip):
        geometry = geometry_for(dtmb26_chip)
        alive = IIDBernoulli(0.95).sample_batch(
            geometry, self.RUNS, make_rng(1)
        )
        assert alive.shape == (self.RUNS, geometry.n_cells)
        assert (~alive).mean() == pytest.approx(0.05, abs=0.005)

    def test_fixed_count_exact_per_run(self, dtmb26_chip):
        geometry = geometry_for(dtmb26_chip)
        alive = FixedCount(7).sample_batch(geometry, 200, make_rng(2))
        assert ((~alive).sum(axis=1) == 7).all()

    def test_spot_mean_kill_matches_closed_form(self, dtmb26_chip):
        geometry = geometry_for(dtmb26_chip)
        model = SpotDefects(0.004, radius=1)
        alive = model.sample_batch(geometry, self.RUNS, make_rng(3))
        assert (~alive).mean() == pytest.approx(
            model.mean_kill_fraction(geometry), abs=0.004
        )

    def test_spot_kills_come_in_clusters(self, dtmb26_chip):
        """Conditional on any kill, a spot run loses ~a whole ball of
        cells — far more than the single cells an i.i.d. model loses."""
        geometry = geometry_for(dtmb26_chip)
        model = SpotDefects(0.0008, radius=1)
        alive = model.sample_batch(geometry, self.RUNS, make_rng(4))
        kills = (~alive).sum(axis=1)
        hit = kills[kills > 0]
        assert hit.size > 30
        assert hit.mean() > 3.0  # radius-1 balls kill up to 7 cells

    def test_spot_calibration_matches_iid_severity(self, dtmb26_chip):
        geometry = geometry_for(dtmb26_chip)
        model = SpotDefects.calibrate(geometry, 0.05, radius=1)
        assert model.mean_kill_fraction(geometry) == pytest.approx(0.05, abs=1e-9)

    def test_negbin_mean_matches_but_overdisperses(self, dtmb26_chip):
        geometry = geometry_for(dtmb26_chip)
        rng = make_rng(5)
        alive = NegativeBinomialClustered(0.95, alpha=0.5).sample_batch(
            geometry, self.RUNS, rng
        )
        kills = (~alive).sum(axis=1)
        n = geometry.n_cells
        assert kills.mean() / n == pytest.approx(0.05, abs=0.006)
        # Rate mixing inflates the fault-count variance well past binomial.
        binomial_var = n * 0.05 * 0.95
        assert kills.var() > 2.0 * binomial_var

    def test_gradient_edge_cells_die_more(self, dtmb26_chip):
        geometry = geometry_for(dtmb26_chip)
        model = RadialGradient(0.99, 0.85)
        alive = model.sample_batch(geometry, self.RUNS, make_rng(6))
        death = (~alive).mean(axis=0)
        inner = geometry.radial_t < 0.3
        outer = geometry.radial_t > 0.8
        assert death[outer].mean() > death[inner].mean() + 0.05

    def test_gradient_calibration_hits_mean(self, dtmb26_chip):
        geometry = geometry_for(dtmb26_chip)
        model = RadialGradient.calibrate(geometry, 0.95, spread=0.08)
        assert model.mean_survival(geometry) == pytest.approx(0.95, abs=1e-9)
        assert model.p_center - model.p_edge == pytest.approx(0.08)
        # A perfect process has no room for a gradient: degenerates cleanly.
        flat = RadialGradient.calibrate(geometry, 1.0, spread=0.08)
        assert flat.p_center == flat.p_edge == 1.0
        # A NaN spread would clamp to zero and quietly become i.i.d.
        with pytest.raises(FaultModelError):
            RadialGradient.calibrate(geometry, 0.95, spread=float("nan"))


class TestCRNNesting:
    def test_capped_spot_fault_sets_nested_across_rates(self, dtmb26_chip):
        geometry = geometry_for(dtmb26_chip)
        cap = 0.01
        lo = SpotDefects(0.002, radius=1, rate_cap=cap)
        hi = SpotDefects(0.008, radius=1, rate_cap=cap)
        alive_lo = lo.sample_batch(geometry, 500, make_rng(7))
        alive_hi = hi.sample_batch(geometry, 500, make_rng(7))
        # Every cell dead at the low rate is dead at the high rate.
        assert (alive_hi <= alive_lo).all()
        assert (~alive_hi).sum() > (~alive_lo).sum()

    def test_spot_family_shares_cap_and_orders_yield(self, dtmb26_chip):
        geometry = geometry_for(dtmb26_chip)
        family = SpotDefects.family(geometry, (0.02, 0.05, 0.08), radius=1)
        caps = {model.rate_cap for model in family}
        assert len(caps) == 1
        points = defect_model_sweep(
            dtmb26_chip, family, runs=400, seed=11
        )
        yields = [pt.yield_value for pt in points]
        assert yields == sorted(yields, reverse=True)  # monotone, no slack

    def test_negbin_nested_across_p(self, dtmb26_chip):
        geometry = geometry_for(dtmb26_chip)
        worse = NegativeBinomialClustered(0.92, alpha=1.0)
        better = NegativeBinomialClustered(0.97, alpha=1.0)
        alive_worse = worse.sample_batch(geometry, 300, make_rng(8))
        alive_better = better.sample_batch(geometry, 300, make_rng(8))
        assert (alive_worse <= alive_better).all()


class TestBitIdentity:
    """The model path must reproduce the pre-model engine streams exactly."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_iid_reproduces_legacy_survival_stream(self, dtmb26_chip, dtype):
        struct = RepairStructure(dtmb26_chip)
        runs, p, seed = 3000, 0.94, 123
        # The pre-model engine loop, inlined: batched uniform draws
        # thresholded at p, decided by the screening funnel.
        rng = make_rng(seed)
        legacy = 0
        for size in survival_batch_sizes(runs, struct.n_cells):
            alive = rng.random((size, struct.n_cells), dtype=dtype) < p
            verdict, _ = classify_repairable(struct, alive)
            legacy += int((verdict == GOOD).sum())
        via_model, _, _ = model_successes(
            struct, IIDBernoulli(p), runs, seed, dtype=dtype
        )
        assert legacy == via_model

    def test_model_point_equals_survival_point(self, dtmb26_chip):
        """An explicit IIDBernoulli point computes the same number as the
        legacy "survival" kind at equal seed (same stream, same screen)."""
        engine = SweepEngine()
        legacy = engine.run_points(
            [EnginePoint(dtmb26_chip, PointSpec("survival", 0.93, 800, 42))]
        )[0]
        explicit = engine.run_points(
            [
                EnginePoint(
                    dtmb26_chip,
                    PointSpec.from_model(IIDBernoulli(0.93), 800, 42),
                )
            ]
        )[0]
        assert legacy.successes == explicit.successes
        assert legacy.trials == explicit.trials

    def test_point_model_resolves_legacy_kinds(self):
        assert point_model(PointSpec("survival", 0.9, 10, 1)) == IIDBernoulli(0.9)
        assert point_model(PointSpec("fixed", 4, 10, 1)) == FixedCount(4)
        spot = SpotDefects(0.003)
        assert point_model(PointSpec.from_model(spot, 10, 1)) is spot
        with pytest.raises(SimulationError):
            point_model(PointSpec("model", 0.5, 10, 1))

    def test_serial_parallel_sharded_identical_for_model_points(
        self, dtmb26_chip
    ):
        geometry = geometry_for(dtmb26_chip)
        models = [
            SpotDefects.calibrate(geometry, 0.05, radius=1),
            NegativeBinomialClustered(0.95, alpha=1.0),
            RadialGradient.calibrate(geometry, 0.95, spread=0.06),
        ]
        serial = defect_model_sweep(dtmb26_chip, models, runs=600, seed=9)
        parallel = defect_model_sweep(
            dtmb26_chip, models, runs=600, seed=9, engine=SweepEngine(jobs=2)
        )
        sharded = defect_model_sweep(
            dtmb26_chip,
            models,
            runs=600,
            seed=9,
            engine=SweepEngine(jobs=2, shard_runs=200),
        )
        for a, b in zip(serial, parallel):
            assert a.estimate == b.estimate
        for a, b in zip(
            defect_model_sweep(
                dtmb26_chip, models, runs=600, seed=9,
                engine=SweepEngine(shard_runs=200),
            ),
            sharded,
        ):
            assert a.estimate == b.estimate


class TestEngineCache:
    def test_no_collision_across_models_at_equal_p(self, dtmb26_chip, tmp_path):
        """Same chip, runs, seed and severity p: every model family gets
        its own cache entry and its own (different) estimate."""
        p = 0.94
        geometry = geometry_for(dtmb26_chip)
        models = [
            IIDBernoulli(p),
            NegativeBinomialClustered(p, alpha=0.5),
            RadialGradient.calibrate(geometry, p, spread=0.08),
            SpotDefects.calibrate(geometry, 1.0 - p, radius=1),
        ]
        engine = SweepEngine(cache_dir=str(tmp_path / "cache"))
        first = defect_model_sweep(
            dtmb26_chip, models, runs=1200, seed=21, engine=engine
        )
        assert engine.cache_misses == len(models)
        # Distinct distributions at the same severity: the estimates must
        # not all coincide (collision would make them identical).
        assert len({pt.estimate.successes for pt in first}) > 1
        again = defect_model_sweep(
            dtmb26_chip, models, runs=1200, seed=21, engine=engine
        )
        assert engine.cache_hits == len(models)
        for a, b in zip(first, again):
            assert a.estimate == b.estimate

    def test_model_point_does_not_collide_with_legacy_key(
        self, dtmb26_chip, tmp_path
    ):
        engine = SweepEngine(cache_dir=str(tmp_path / "cache"))
        spec_legacy = PointSpec("survival", 0.93, 500, 3)
        spec_model = PointSpec.from_model(IIDBernoulli(0.93), 500, 3, param=0.93)
        engine.run_points([EnginePoint(dtmb26_chip, spec_legacy)])
        engine.run_points([EnginePoint(dtmb26_chip, spec_model)])
        # Same numbers, but two cache entries: the digest keys them apart.
        assert engine.cache_misses == 2 and engine.cache_hits == 0

    def test_adaptive_stop_applies_to_model_points(self, dtmb26_chip):
        from repro.yieldsim.stats import StopRule

        rule = StopRule(target_half_width=0.05, min_runs=100, batch_runs=100)
        engine = SweepEngine()
        models = [IIDBernoulli(0.999)]  # easy point: stops at min_runs
        points = defect_model_sweep(
            dtmb26_chip, models, runs=2000, seed=5, engine=engine, stop=rule
        )
        assert points[0].estimate.trials < 2000


class TestSeedNormalization:
    def test_make_rng_accepts_seed_sequence(self):
        ss = np.random.SeedSequence(1234)
        a = make_rng(ss).random(8)
        b = np.random.default_rng(np.random.SeedSequence(1234)).random(8)
        assert (a == b).all()

    def test_model_successes_accepts_seed_sequence(self, dtmb26_chip):
        """A spawned shard seed feeds model sampling directly — the
        engine's shard plumbing needs no int round-trip."""
        struct = RepairStructure(dtmb26_chip)
        ss = np.random.SeedSequence(99, spawn_key=(3,))
        got_a, _, _ = model_successes(struct, IIDBernoulli(0.95), 400, seed=ss)
        got_b, _, _ = model_successes(
            struct,
            IIDBernoulli(0.95),
            400,
            seed=np.random.SeedSequence(99, spawn_key=(3,)),
        )
        assert got_a == got_b


class TestModelFamilies:
    def test_known_specs_parse(self, dtmb26_chip):
        for text in (
            "iid",
            "spot",
            "spot:radius=2",
            "negbin:alpha=0.5",
            "gradient:spread=0.08,power=2",
        ):
            family = family_from_spec(text)
            model = family(dtmb26_chip, 0.95)
            assert isinstance(model, DefectModel)

    def test_spot_family_calibrates_severity(self, dtmb26_chip):
        family = family_from_spec("spot:radius=1")
        model = family(dtmb26_chip, 0.95)
        assert model.mean_kill_fraction(
            geometry_for(dtmb26_chip)
        ) == pytest.approx(0.05, abs=1e-9)

    def test_bad_specs_rejected(self):
        with pytest.raises(FaultModelError):
            family_from_spec("nope")
        with pytest.raises(FaultModelError):
            family_from_spec("spot:radius")
        with pytest.raises(FaultModelError):
            family_from_spec("spot:radius=abc")
        with pytest.raises(FaultModelError):
            family_from_spec("spot:bogus=1")
        for text in NON_FINITE_SPECS:
            with pytest.raises(FaultModelError, match="finite"):
                family_from_spec(text)

    def test_survival_sweep_model_knob_labels_points(self):
        points = survival_sweep(
            [DTMB_2_6], [60], [0.94], runs=200, seed=3,
            model=family_from_spec("negbin:alpha=1"),
        )
        assert points[0].model == "negbin"
        default = survival_sweep([DTMB_2_6], [60], [0.94], runs=200, seed=3)
        assert default[0].model is None


class TestScenarioExperiments:
    def test_provenance_names_defect_model_and_digest(self):
        result = registry.execute(
            "fig9-clustered",
            runs=60,
            seed=7,
            knobs={"ns": [60], "ps": (0.95,)},
        )
        prov = result.provenance
        assert prov.defect_models, "scenario must record its defect models"
        for name, digest in prov.defect_models:
            assert name == "spot"
            assert len(digest) == 16
        block = prov.as_dict()["budget"]["defect_models"]
        assert block and block[0]["name"] == "spot"
        assert prov.stable_dict()["defect_models"] == block

    def test_gradient_scenario_runs_all_regimes(self):
        result = registry.execute(
            "scenario-gradient",
            runs=60,
            seed=7,
            knobs={"n": 60, "ps": (0.95,)},
        )
        names = {name for name, _ in result.provenance.defect_models}
        assert names == {"iid", "gradient", "negbin"}

    def test_classic_fig9_records_no_defect_models(self):
        result = registry.execute(
            "fig9", runs=60, seed=7, knobs={"ns": [60], "ps": (0.95,)}
        )
        assert result.provenance.defect_models == ()

    def test_fig9_clustered_yield_below_iid_at_high_p(self):
        """The headline scenario claim: clustered defects beat the
        independence assumption's yield at high survival probability."""
        clustered = registry.execute(
            "fig9-clustered", runs=800, seed=7,
            knobs={"ns": [60], "ps": (0.97,)},
        )
        classic = registry.execute(
            "fig9", runs=800, seed=7, knobs={"ns": [60], "ps": (0.97,)}
        )
        for design in ("DTMB(2,6)", "DTMB(3,6)", "DTMB(4,4)"):
            assert (
                clustered.raw.yield_at(design, 60, 0.97)
                < classic.raw.yield_at(design, 60, 0.97) + 0.02
            )


class TestCLIDefectModel:
    def test_defect_model_flag_reruns_fig9(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "bundle"
        assert main(
            [
                "fig9", "--runs", "60", "--seed", "5",
                "--defect-model", "spot:radius=1", "--out", str(out),
            ]
        ) == 0
        import json

        manifest = json.loads((out / "manifest.json").read_text())
        models = manifest["experiments"]["fig9"]["provenance"]["budget"][
            "defect_models"
        ]
        assert models and models[0]["name"] == "spot"

    def test_defect_model_rejected_on_fixed_regime_experiment(self, capsys):
        from repro.cli import main

        code = main(["fig13", "--defect-model", "spot"])
        assert code == 2
        assert "--defect-model" in capsys.readouterr().err

    def test_malformed_defect_model_fails_cleanly(self, capsys):
        from repro.cli import main

        code = main(["fig9", "--defect-model", "spot:radius=?"])
        assert code == 2
        assert "numeric" in capsys.readouterr().err
        for text in NON_FINITE_SPECS:
            assert main(["fig9", "--runs", "10", "--defect-model", text]) == 2
            assert capsys.readouterr().err.startswith("repro: error: ")
