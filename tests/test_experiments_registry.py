"""Tests for the experiment registry, generic dispatch and artifact pipeline.

Every registered experiment must run at a tiny budget through the generic
dispatcher, its CSV/JSON artifacts must round-trip (headers <-> rows <->
parsed file), and its manifest provenance must record the seed and budget
actually used.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import pickle

import pytest

from repro.cli import main
from repro.experiments import registry
from repro.experiments.artifacts import MANIFEST_NAME, ArtifactRun
from repro.experiments.registry import BudgetPolicy, ExperimentResult

TINY_SEED = 77
TINY_RUNS = 60

#: Per-experiment grid shrinks so the whole registry dispatches in seconds.
TINY_KNOBS = {
    "table1": {"sizes": [8, 16]},
    "figs3to6": {"size": 8},
    "fig7": {"ns": [60]},
    "fig9": {"ns": [60], "ps": [0.92, 1.0]},
    "fig10": {"ps": [0.90, 0.99]},
    "fig13": {"ms": [5, 35]},
    "ablation-matching": {"n": 60},
    "ablation-defects": {"n": 60, "expected_faults": (2.0,)},
    "ablation-hexsquare": {"side": 8},
    "targeting": {"n": 60, "targets": (0.50,), "ps": (0.99,)},
    "fig7-clustered": {"n": 60, "ps": (0.92, 1.0)},
    "fig9-clustered": {"ns": [60], "ps": (0.92, 1.0)},
    "scenario-gradient": {"n": 60, "ps": (0.92, 0.99)},
    "fig7-functional": {"n": 60, "ps": (0.92, 1.0)},
    "fig9-functional": {"ns": [60], "ps": (0.92, 1.0)},
    "scenario-multiplexed": {"ps": (0.93, 0.99)},
}


def execute_all():
    """Every experiment executed once through the generic dispatcher."""
    return {
        experiment.name: registry.execute(
            experiment,
            runs=TINY_RUNS,
            seed=TINY_SEED,
            options={"mc_check": True},
            knobs=TINY_KNOBS.get(experiment.name, {}),
        )
        for experiment in registry.all_experiments()
    }


@pytest.fixture(scope="module")
def results():
    return execute_all()


@pytest.fixture(scope="module")
def run_dir(results, tmp_path_factory):
    """An artifact run directory holding every experiment's artifacts."""
    out = tmp_path_factory.mktemp("artifacts")
    run = ArtifactRun(str(out), runs=TINY_RUNS, seed=TINY_SEED)
    for result in results.values():
        run.add(result)
    run.finalize()
    return out


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        assert registry.names() == [
            "table1",
            "fig2",
            "figs3to6",
            "fig7",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "ablation-matching",
            "ablation-defects",
            "ablation-hexsquare",
            "targeting",
            "fig7-clustered",
            "fig9-clustered",
            "scenario-gradient",
            "fig7-functional",
            "fig9-functional",
            "scenario-multiplexed",
        ]

    def test_alias_resolves(self):
        assert registry.get("design-targeting").name == "targeting"

    def test_unknown_name_lists_known(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError, match="fig9"):
            registry.get("fig99")

    def test_duplicate_registration_rejected(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError, match="already registered"):
            registry.register(
                "other", title="x", paper_ref="x", order=999, aliases=("fig9",)
            )(lambda **kwargs: None)

    def test_budget_policies(self):
        assert BudgetPolicy().effective(123, {}) == 123
        assert BudgetPolicy(divisor=5, floor=100).effective(10_000, {}) == 2000
        assert BudgetPolicy(divisor=5, floor=100).effective(50, {}) == 100
        assert BudgetPolicy(deterministic=True).effective(10_000, {}) == 0
        gated = BudgetPolicy(gate="mc_check")
        assert gated.effective(500, {}) == 0
        assert gated.effective(500, {"mc_check": True}) == 500

    def test_budget_policy_resolves_stop_rule(self):
        from repro.yieldsim.stats import StopRule

        rule = StopRule(target_half_width=0.01, min_runs=500, batch_runs=250)
        override = StopRule(target_half_width=0.05)
        capable = BudgetPolicy(stop_rule=rule)
        # Opt-in only: flat unless adaptive is requested.
        assert capable.resolve_stop(False) is None
        assert capable.resolve_stop(True) is rule
        assert capable.resolve_stop(False, override=override) is override
        assert capable.resolve_stop(True, override=override) is override
        # --target-ci re-targets the registered rule, keeping its
        # batching (and therefore the RNG stream and cache identity).
        retargeted = capable.resolve_stop(True, target=0.03)
        assert retargeted.target_half_width == 0.03
        assert retargeted.batch_runs == rule.batch_runs
        assert retargeted.min_runs == rule.min_runs
        # Non-capable experiments stay flat whatever was requested.
        flat = BudgetPolicy()
        assert flat.resolve_stop(True) is None
        assert flat.resolve_stop(True, override=override) is None
        assert flat.resolve_stop(True, target=0.03) is None
        assert capable.adaptive_capable and not flat.adaptive_capable
        assert "--adaptive" in capable.describe()

    def test_sweep_experiments_registered_adaptive_capable(self):
        for name in ("fig7", "fig9", "fig10", "fig13"):
            assert registry.get(name).budget.adaptive_capable, name
        for name in ("table1", "fig2", "figs3to6", "ablation-matching"):
            assert not registry.get(name).budget.adaptive_capable, name


class TestGenericDispatch:
    def test_every_experiment_runs(self, results):
        for name, result in results.items():
            assert isinstance(result, ExperimentResult)
            assert result.report.strip(), name

    def test_tabular_results_carry_consistent_tables(self, results):
        for name, result in results.items():
            if not result.experiment.tabular:
                assert result.headers is None and result.rows is None
                continue
            assert result.headers and result.rows, name
            for row in result.rows:
                assert len(row) == len(result.headers), name

    def test_provenance_records_dispatch(self, results):
        for name, result in results.items():
            prov = result.provenance
            assert prov.experiment == name
            assert prov.seed == TINY_SEED
            assert prov.runs_requested == TINY_RUNS
            assert prov.runs_effective == result.experiment.budget.effective(
                TINY_RUNS, {"mc_check": True}
            )
            assert prov.wall_time_s >= 0
            assert len(prov.digest) == 64 and int(prov.digest, 16) >= 0

    def test_results_pickle_round_trip(self, results):
        """`repro all --jobs N` ships real results between processes:
        the experiment crosses as a registry reference and the charts
        re-render from the unpickled raw result."""
        for name, result in results.items():
            # Pickle before the lazy charts render, as a worker does.
            fresh = dataclasses.replace(result, _charts=None)
            copy = pickle.loads(pickle.dumps(fresh))
            assert copy.experiment is registry.get(name)
            assert copy.report_text() == result.report_text(), name
            assert copy.charts == result.charts, name
            prov, copied = result.provenance, copy.provenance
            assert copied.as_dict() == prov.as_dict(), name
            assert copied.stable_dict() == prov.stable_dict(), name

    def test_report_matches_direct_driver_call(self):
        """The dispatcher adds nothing to what the driver itself renders."""
        from repro.experiments import table1

        via_registry = registry.execute("table1", runs=50, seed=1).report
        assert via_registry == table1.run().format_report()

    def test_seed_threads_through_to_driver(self):
        a = registry.execute("fig13", runs=80, seed=3, knobs={"ms": [10]})
        b = registry.execute("fig13", runs=80, seed=3, knobs={"ms": [10]})
        c = registry.execute("fig13", runs=80, seed=4, knobs={"ms": [10]})
        assert a.rows == b.rows
        assert a.provenance.digest == b.provenance.digest
        assert c.provenance.seed == 4

    def test_engine_config_recorded(self, tmp_path):
        from repro.yieldsim.engine import SweepEngine

        cache = str(tmp_path / "cache")
        engine = SweepEngine(jobs=1, cache_dir=cache)
        first = registry.execute(
            "fig13", runs=60, seed=9, engine=engine, knobs={"ms": [5, 10]}
        )
        again = registry.execute(
            "fig13", runs=60, seed=9, engine=engine, knobs={"ms": [5, 10]}
        )
        assert first.provenance.engine_cache_dir == cache
        assert first.provenance.cache_misses == 2
        assert again.provenance.cache_hits == 2
        assert again.rows == first.rows

    def test_provenance_records_requested_vs_effective_per_point(self):
        """Flat dispatch: every executed Monte-Carlo point appears in the
        provenance with requested == effective."""
        result = registry.execute("fig13", runs=80, seed=3, knobs={"ms": [5, 10]})
        prov = result.provenance
        assert len(prov.mc_points) == 2
        for kind, param, requested, effective in prov.mc_points:
            assert kind == "fixed" and param in (5, 10)
            assert requested == effective == 80
        assert prov.mc_runs_requested == prov.mc_runs_effective == 160
        assert prov.stop_rule is None

    def test_adaptive_dispatch_records_stop_rule_and_savings(self):
        from repro.yieldsim.stats import StopRule

        rule = StopRule(target_half_width=0.05, min_runs=100, batch_runs=100)
        result = registry.execute(
            "fig13", runs=2000, seed=3, knobs={"ms": [5, 50]}, stop=rule
        )
        prov = result.provenance
        assert prov.stop_rule is not None
        assert prov.stop_rule["target_half_width"] == 0.05
        assert prov.stop_rule["digest"] == rule.digest()
        assert prov.mc_runs_effective < prov.mc_runs_requested == 4000
        for _kind, _param, requested, effective in prov.mc_points:
            assert effective <= requested == 2000
        # The easy point (m=5, yield ~1) stops well before the hard one.
        assert prov.mc_points[0][3] < prov.mc_points[1][3]

    def test_adaptive_option_uses_registered_rule_and_skips_flat_experiments(self):
        adaptive = registry.execute(
            "fig13", runs=2000, seed=3, knobs={"ms": [5]},
            options={"adaptive": True},
        )
        assert adaptive.provenance.stop_rule is not None
        expected = registry.get("fig13").budget.stop_rule
        assert adaptive.provenance.stop_rule["digest"] == expected.digest()
        # Non-capable experiments quietly ignore the option.
        flat = registry.execute(
            "table1", runs=50, seed=1, options={"adaptive": True},
            knobs={"sizes": [8]},
        )
        assert flat.provenance.stop_rule is None


class TestArtifacts:
    def test_manifest_lists_every_experiment(self, run_dir, results):
        manifest = json.loads((run_dir / MANIFEST_NAME).read_text())
        assert sorted(manifest["experiments"]) == sorted(results)
        assert manifest["command"]["seed"] == TINY_SEED
        assert manifest["command"]["runs"] == TINY_RUNS

    def test_tabular_experiments_get_csv_json_pair(self, run_dir, results):
        manifest = json.loads((run_dir / MANIFEST_NAME).read_text())
        for name, result in results.items():
            files = manifest["experiments"][name]["files"]
            assert os.path.exists(run_dir / files["report"])
            if result.experiment.tabular:
                assert files["csv"] == f"{name}/{name}.csv"
                assert files["json"] == f"{name}/{name}.json"
            else:
                assert "csv" not in files and "json" not in files

    def test_csv_roundtrip(self, run_dir, results):
        for name, result in results.items():
            if not result.experiment.tabular:
                continue
            with open(run_dir / name / f"{name}.csv", newline="") as handle:
                header, *rows = csv.reader(handle)
            assert header == list(result.headers)
            assert rows == [[str(v) for v in row] for row in result.rows]

    def test_json_roundtrip_and_provenance(self, run_dir, results):
        for name, result in results.items():
            if not result.experiment.tabular:
                continue
            payload = json.loads((run_dir / name / f"{name}.json").read_text())
            assert payload["headers"] == list(result.headers)
            got = [[str(v) for v in row] for row in payload["rows"]]
            want = [[str(v) for v in row] for row in result.rows]
            assert got == want
            prov = payload["provenance"]
            assert prov["seed"] == TINY_SEED
            assert prov["digest"] == result.provenance.digest
            # The JSON artifact must be byte-identical across engine
            # configurations and machines: volatile/engine fields live
            # only in manifest.json.
            assert "engine" not in prov and "wall_time_s" not in prov

    def test_manifest_provenance_matches_result(self, run_dir, results):
        manifest = json.loads((run_dir / MANIFEST_NAME).read_text())
        for name, result in results.items():
            prov = manifest["experiments"][name]["provenance"]
            assert prov["seed"] == result.provenance.seed
            assert prov["runs_effective"] == result.provenance.runs_effective
            assert prov["digest"] == result.provenance.digest
            assert prov["engine"]["jobs"] == result.provenance.engine_jobs

    def test_report_artifact_includes_epilogue(self, run_dir, results):
        text = (run_dir / "fig10" / "report.txt").read_text()
        assert "crossovers:" in text

    def test_report_artifact_independent_of_chart_flag(self, tmp_path):
        """--chart only prints the charts: the figs3to6 bundle it writes
        equals the one written without it (bundles stay diffable across
        flag sets)."""
        import filecmp

        dirs = []
        for tag, flags in (("a", ["--chart"]), ("b", [])):
            out = tmp_path / tag
            assert main(["figs3to6", "--out", str(out), *flags]) == 0
            dirs.append(out / "figs3to6")
        names = sorted(os.listdir(dirs[0]))
        assert names == sorted(os.listdir(dirs[1]))
        match, mismatch, errors = filecmp.cmpfiles(
            dirs[0], dirs[1], names, shallow=False
        )
        assert not mismatch and not errors
        assert "report.txt" in match

    def test_charts_written(self, run_dir):
        assert (run_dir / "fig9" / "chart-n-60.txt").exists()

    def test_bundle_byte_identical_except_manifest(self, tmp_path):
        """Equal (runs, seed) bundles of the whole registry differ only in
        manifest.json, which alone carries the volatile wall time /
        timestamp / cache fields."""
        import filecmp

        listings = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            run = ArtifactRun(str(out), runs=TINY_RUNS, seed=TINY_SEED)
            for result in execute_all().values():
                run.add(result)
            run.finalize()
            listings.append(
                sorted(
                    str(p.relative_to(out))
                    for p in out.rglob("*")
                    if p.is_file() and p.name != MANIFEST_NAME
                )
            )
        assert listings[0] == listings[1]
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "a", tmp_path / "b", listings[0], shallow=False
        )
        assert not mismatch and not errors
        assert {f"{name}/report.txt" for name in registry.names()} <= set(match)

    def test_manifest_provenance_lists_per_point_budgets(self, run_dir, results):
        """Satellite: the manifest records requested vs. effective runs for
        every Monte-Carlo point each experiment executed."""
        manifest = json.loads((run_dir / MANIFEST_NAME).read_text())
        budget = manifest["experiments"]["fig13"]["provenance"]["budget"]
        assert budget["points"], "fig13 must log its sweep points"
        for kind, _param, requested, effective in budget["points"]:
            assert kind == "fixed"
            assert requested == TINY_RUNS
            assert effective == TINY_RUNS  # flat dispatch spends the ceiling
        assert budget["mc_runs_requested"] == sum(
            point[2] for point in budget["points"]
        )
        assert budget["mc_runs_effective"] == sum(
            point[3] for point in budget["points"]
        )
        assert budget["stop_rule"] is None

    def test_adaptive_and_flat_bundles_differ_only_where_documented(
        self, tmp_path
    ):
        """Satellite: at equal seed, an adaptive bundle differs from the
        flat one only in the Monte-Carlo values (tables/report/charts) and
        the provenance budget block — same file set, same schema, and the
        adaptive JSON declares its stop rule."""
        bundles = {}
        for tag, options in (("flat", {}), ("adaptive", {"adaptive": True})):
            out = tmp_path / tag
            run = ArtifactRun(str(out), runs=2000, seed=TINY_SEED)
            run.add(
                registry.execute(
                    "fig13", runs=2000, seed=TINY_SEED,
                    options=options, knobs={"ms": [5, 50]},
                )
            )
            run.finalize()
            bundles[tag] = out

        flat_files = sorted(
            p.relative_to(bundles["flat"]).as_posix()
            for p in bundles["flat"].rglob("*") if p.is_file()
        )
        adaptive_files = sorted(
            p.relative_to(bundles["adaptive"]).as_posix()
            for p in bundles["adaptive"].rglob("*") if p.is_file()
        )
        assert flat_files == adaptive_files

        flat_json = json.loads((bundles["flat"] / "fig13" / "fig13.json").read_text())
        adaptive_json = json.loads(
            (bundles["adaptive"] / "fig13" / "fig13.json").read_text()
        )
        assert flat_json["headers"] == adaptive_json["headers"]
        assert len(flat_json["rows"]) == len(adaptive_json["rows"])
        flat_prov = flat_json["provenance"]
        adaptive_prov = adaptive_json["provenance"]
        assert flat_prov["stop_rule"] is None
        assert adaptive_prov["stop_rule"] is not None
        assert (
            adaptive_prov["mc_runs_effective"] < flat_prov["mc_runs_effective"]
        )
        # Identical schema: adaptive adds no fields, it only fills them.
        assert sorted(flat_prov) == sorted(adaptive_prov)

    def test_incremental_fill_preserves_entries(self, tmp_path, results):
        out = str(tmp_path / "run")
        first = ArtifactRun(out, runs=TINY_RUNS, seed=TINY_SEED)
        first.add(results["table1"])
        first.finalize()
        second = ArtifactRun(out, runs=TINY_RUNS, seed=TINY_SEED)
        second.add(results["fig2"])
        second.finalize()
        manifest = json.loads(
            open(os.path.join(out, MANIFEST_NAME)).read()
        )
        assert set(manifest["experiments"]) == {"table1", "fig2"}


class TestExportReaders:
    def test_write_csv_validates_before_opening(self, tmp_path):
        from repro.errors import ReproError
        from repro.viz.export import write_csv

        target = tmp_path / "out.csv"
        with pytest.raises(ReproError):
            write_csv(str(target), ["a", "b"], [(1,)])
        assert not target.exists()  # nothing written on invalid input


class TestCLI:
    def test_list_enumerates_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in registry.names():
            assert name in out
        assert "ablation-hexsquare" in out

    def test_show_describes_experiment(self, capsys):
        assert main(["show", "ablation-hexsquare"]) == 0
        out = capsys.readouterr().out
        assert "Section 3 (ablation)" in out
        assert "ablation_hexsquare.run" in out

    def test_ablation_hexsquare_smoke(self, capsys):
        """Satellite: the hex-vs-square ablation is reachable from the CLI."""
        assert main(["ablation-hexsquare", "--runs", "50", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "hex route advantage" in out
        assert "neighbors per interior cell" in out

    def test_single_experiment_out_dir(self, capsys, tmp_path):
        out = tmp_path / "bundle"
        assert main(
            ["fig2", "--out", str(out)]
        ) == 0
        assert (out / MANIFEST_NAME).exists()
        assert (out / "fig2" / "fig2.csv").exists()
        assert (out / "fig2" / "fig2.json").exists()

    def test_csv_on_report_only_experiment_fails(self, tmp_path, capsys):
        code = main(["fig12", "--csv", str(tmp_path / "nope.csv")])
        assert code == 2
        assert "no tabular data" in capsys.readouterr().err

    def test_all_rejects_csv(self, tmp_path, capsys):
        code = main(["all", "--csv", str(tmp_path / "nope.csv")])
        assert code == 2
        assert "--out" in capsys.readouterr().err

    def test_unknown_show_target_fails_cleanly(self, capsys):
        code = main(["show", "not-an-experiment"])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_adaptive_flag_cuts_budget_and_reports(self, capsys, tmp_path):
        out = tmp_path / "bundle"
        assert main(
            ["fig13", "--runs", "2000", "--seed", "5", "--adaptive",
             "--out", str(out)]
        ) == 0
        err = capsys.readouterr().err
        assert "adaptive budget:" in err
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        budget = manifest["experiments"]["fig13"]["provenance"]["budget"]
        assert budget["stop_rule"] is not None
        assert budget["mc_runs_effective"] < budget["mc_runs_requested"]
        assert all(eff <= req for _k, _p, req, eff in budget["points"])

    def test_target_ci_overrides_registered_target(self, capsys):
        assert main(
            ["fig13", "--runs", "1500", "--target-ci", "0.05"]
        ) == 0
        err = capsys.readouterr().err
        assert "adaptive budget:" in err

    def test_target_ci_validation(self, capsys):
        code = main(["fig13", "--target-ci", "-0.5"])
        assert code == 2
        assert "--target-ci" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig9", "--runs", "0"],
            ["fig9", "--runs", "-5"],
            ["fig9", "--jobs", "0"],
            ["fig9", "--shard-runs", "0"],
            ["fig9", "--seed", "-3"],
            ["all", "--jobs", "0"],
        ],
    )
    def test_bad_numeric_flag_is_a_cli_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro: error: {argv[1]} must be >= ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["all", "--jobs", "0"],
            ["fig7", "--jobs", "0"],
            ["fig7", "--shard-runs", "0"],
            ["fig9", "--target-ci", "nan"],
            ["fig13", "--unit-timeout", "nan"],
            ["fig13", "--jobs", "2", "--shard-runs", "50", "--retries", "1",
             "--unit-timeout", "inf"],
        ],
    )
    def test_bad_engine_flag_creates_no_out_dir(self, argv, tmp_path, capsys):
        out = tmp_path / "X"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("repro: error: ")
        assert not out.exists()

    def test_unwritable_out_fails_cleanly(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        code = main(["fig2", "--out", str(blocker)])
        assert code == 2
        assert "not a directory" in capsys.readouterr().err
