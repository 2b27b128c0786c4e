"""End-to-end CLI test: `python -m repro all` regenerates every artifact."""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from repro.cli import main
from repro.experiments import registry


@pytest.fixture(scope="module")
def cli_all(tmp_path_factory):
    """One `repro all --runs 300 --seed 123 --out DIR` pass shared by the
    tests below: (exit code, captured stdout, artifact directory)."""
    out_dir = tmp_path_factory.mktemp("cli_all") / "artifacts"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(
            ["all", "--runs", "300", "--seed", "123", "--out", str(out_dir)]
        )
    return code, stdout.getvalue(), out_dir


@pytest.mark.slow
def test_cli_all_reduced_budget(cli_all):
    """One pass over every experiment at a tiny budget must succeed and
    print each section header."""
    code, out, _ = cli_all
    assert code == 0
    for section in (
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
    ):
        assert f"=== {section} ===" in out
    # The exact headline number must appear regardless of budget.
    assert "0.3378" in out


@pytest.mark.slow
def test_cli_all_writes_artifact_bundle(cli_all):
    """The acceptance path: `repro all --runs N --out DIR` produces a
    manifest plus one CSV+JSON pair per tabular experiment, with the
    dispatch seed recorded in every provenance block."""
    code, stdout, out = cli_all
    assert code == 0
    assert "wrote" in stdout

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == {
        "runs": 300, "seed": 123, "jobs": 1, "cache_dir": None,
    }
    assert sorted(manifest["experiments"]) == sorted(registry.names())
    for experiment in registry.all_experiments():
        entry = manifest["experiments"][experiment.name]
        assert entry["provenance"]["seed"] == 123
        assert (out / entry["files"]["report"]).exists()
        if experiment.tabular:
            assert (out / entry["files"]["csv"]).exists()
            assert (out / entry["files"]["json"]).exists()
        else:
            assert "csv" not in entry["files"]
