"""Byte-level pins for the rendered output of the scenario experiments.

Perfbench references and artifact digests cover only tables; this module
pins what a user actually reads for the six scenario experiments — the
report with its epilogue, every chart, and the headers and rows — on the
small grids the registry tests use.  Any refactor of the scenario result
types must keep all of it byte-identical.

After a deliberate output change, regenerate the expected file with::

    PYTHONPATH=src python tests/test_scenario_outputs.py
"""

from __future__ import annotations

import json
import os

import pytest

from test_experiments_registry import TINY_KNOBS

from repro.experiments import registry

RUNS = 200
SEED = 77

#: The scenario experiments, on the small grids the registry tests use.
KNOBS = {
    name: TINY_KNOBS[name]
    for name in (
        "fig7-clustered",
        "fig9-clustered",
        "scenario-gradient",
        "fig7-functional",
        "fig9-functional",
        "scenario-multiplexed",
    )
}

EXPECTED_PATH = os.path.join(
    os.path.dirname(__file__), "data", "scenario_outputs.json"
)


def render(name):
    """Everything a user reads of one experiment, as JSON-ready values."""
    result = registry.execute(name, runs=RUNS, seed=SEED, knobs=KNOBS[name])
    return {
        "report_text": result.report_text(),
        "charts": [[label, chart] for label, chart in result.charts],
        "headers": list(result.headers),
        "rows": [list(row) for row in result.rows],
        "digest": result.provenance.digest,
    }


@pytest.fixture(scope="module")
def expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_expected_file_covers_every_scenario(expected):
    assert sorted(expected) == sorted(KNOBS)


@pytest.mark.parametrize("name", sorted(KNOBS))
def test_rendered_output_is_pinned(name, expected):
    got = render(name)
    want = expected[name]
    assert got["headers"] == want["headers"]
    assert got["rows"] == want["rows"]
    assert got["report_text"] == want["report_text"]
    assert got["charts"] == want["charts"]
    assert got["digest"] == want["digest"]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(EXPECTED_PATH), exist_ok=True)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(
            {name: render(name) for name in KNOBS},
            fh, indent=1, ensure_ascii=False, sort_keys=True,
        )
        fh.write("\n")
