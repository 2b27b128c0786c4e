"""Artifact pipeline: a diffable run directory for paper reproductions.

``repro all --out artifacts/`` (or any single experiment with ``--out``)
writes one directory per experiment plus a top-level ``manifest.json``::

    artifacts/
      manifest.json            run metadata + per-experiment provenance
      table1/
        table1.csv             the experiment's rows (tabular experiments)
        table1.json            same rows + provenance, machine-readable
        report.txt             exactly what the CLI prints
      fig9/
        fig9.csv
        fig9.json
        report.txt
        chart-n-60.txt         one file per ASCII chart the driver renders
        ...
      ...

The manifest records, for every experiment: the paper reference, the list
of files written, and the full :class:`~repro.experiments.registry.Provenance`
block (seed, requested/effective budget, engine jobs/cache traffic, wall
time and the result digest).  Pipeline-added volatile values (the
manifest timestamp, wall times, cache hit counts) live **only** in
``manifest.json``: every other file in the bundle — CSVs, JSONs,
reports, charts — is byte-identical between runs at equal (runs, seed),
so ``diff -r a b --exclude manifest.json`` between two run directories
shows exactly which *results* moved, and the per-experiment digests in
the manifest answer the same question file-free.

A run directory is incremental: opening an existing one preserves the
manifest entries of experiments not re-run, so a full reproduction can be
assembled one experiment at a time.
"""

from __future__ import annotations

import json
import os
import re
import time
from typing import Dict, List, Optional

from repro.errors import ArtifactError
from repro.experiments.registry import ExperimentResult
from repro.viz.export import write_csv, write_json

__all__ = [
    "ArtifactRun",
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA",
    "bundle_payload",
]

MANIFEST_NAME = "manifest.json"
MANIFEST_SCHEMA = 1


def _slug(text: str) -> str:
    """File-name-safe slug for chart labels (``n=60`` -> ``n-60``)."""
    slug = re.sub(r"[^A-Za-z0-9.]+", "-", text).strip("-")
    return slug or "chart"


def bundle_payload(result: ExperimentResult) -> Dict[str, object]:
    """One result as a machine-readable bundle (the serving response body).

    Everything a remote consumer needs without filesystem access: the
    table (for tabular experiments), the report, and the full
    provenance block whose ``digest`` equals the one a local
    ``repro <name> --out`` run records in ``manifest.json`` — so a served
    bundle can be verified against an artifact directory by digest alone.
    """
    return {
        "experiment": result.name,
        "title": result.experiment.title,
        "paper_ref": result.experiment.paper_ref,
        "headers": list(result.headers) if result.headers is not None else None,
        "rows": [list(row) for row in result.rows] if result.rows is not None else None,
        "report": result.report_text(),
        "provenance": result.provenance.as_dict(),
        "digest": result.provenance.digest,
    }


class ArtifactRun:
    """One run directory being filled with experiment artifacts."""

    def __init__(
        self,
        out_dir: str,
        *,
        runs: int,
        seed: int,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
    ):
        if os.path.exists(out_dir) and not os.path.isdir(out_dir):
            raise ArtifactError(
                f"artifact path {out_dir!r} exists and is not a directory"
            )
        try:
            # Create the run directory up front so an unwritable --out
            # fails before any experiment budget is spent.
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ArtifactError(
                f"cannot create artifact directory {out_dir!r}: {exc}"
            ) from exc
        self.out_dir = out_dir
        self.runs = runs
        self.seed = seed
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.entries: Dict[str, Dict[str, object]] = {}
        #: experiments written by add() in *this* invocation (adopted
        #: manifest entries from an earlier fill do not count)
        self.added = 0
        self._load_existing()

    def _load_existing(self) -> None:
        """Adopt entries from a previous run so fills can be incremental."""
        path = self.manifest_path
        if not os.path.exists(path):
            return
        try:
            with open(path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
            experiments = manifest.get("experiments", {})
            if isinstance(experiments, dict):
                self.entries.update(experiments)
        except (OSError, ValueError):
            raise ArtifactError(
                f"existing manifest {path!r} is unreadable; "
                "remove it or choose a fresh --out directory"
            ) from None

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.out_dir, MANIFEST_NAME)

    def add(self, result: ExperimentResult) -> Dict[str, object]:
        """Write one experiment's artifacts; returns its manifest entry.

        Tabular experiments get a ``<name>.csv`` + ``<name>.json`` pair;
        every experiment gets ``report.txt`` (report + epilogue — the CLI
        stdout at default flags) and one ``chart-<label>.txt`` per ASCII
        chart.
        """
        name = result.name
        files: Dict[str, object] = {}
        try:
            exp_dir = os.path.join(self.out_dir, name)
            os.makedirs(exp_dir, exist_ok=True)

            # Manifest-relative paths always use "/" so bundles are
            # identical (and cross-consumable) whatever OS wrote them;
            # os.path.join only assembles the local absolute path.
            report_rel = f"{name}/report.txt"
            with open(
                os.path.join(self.out_dir, report_rel), "w", encoding="utf-8"
            ) as handle:
                handle.write(result.report_text())
                handle.write("\n")
            files["report"] = report_rel

            if result.tabular:
                csv_rel = f"{name}/{name}.csv"
                json_rel = f"{name}/{name}.json"
                write_csv(
                    os.path.join(self.out_dir, csv_rel),
                    result.headers,
                    result.rows,
                )
                write_json(
                    os.path.join(self.out_dir, json_rel),
                    result.headers,
                    result.rows,
                    metadata={
                        "experiment": name,
                        "paper_ref": result.experiment.paper_ref,
                        # Only the run-invariant provenance subset: the JSON
                        # artifact must be byte-identical at equal
                        # (runs, seed).  Wall time and cache traffic live in
                        # manifest.json.
                        "provenance": result.provenance.stable_dict(),
                    },
                )
                files["csv"] = csv_rel
                files["json"] = json_rel

            chart_rels: List[str] = []
            for label, chart in result.charts:
                chart_rel = f"{name}/chart-{_slug(label)}.txt"
                with open(
                    os.path.join(self.out_dir, chart_rel), "w", encoding="utf-8"
                ) as handle:
                    handle.write(chart)
                    handle.write("\n")
                chart_rels.append(chart_rel)
            if chart_rels:
                files["charts"] = chart_rels
        except OSError as exc:
            raise ArtifactError(
                f"cannot write {name} artifacts under {self.out_dir!r}: {exc}"
            ) from exc

        entry: Dict[str, object] = {
            "title": result.experiment.title,
            "paper_ref": result.experiment.paper_ref,
            "files": files,
            "provenance": result.provenance.as_dict(),
        }
        self.entries[name] = entry
        self.added += 1
        return entry

    def finalize(self) -> str:
        """Write ``manifest.json`` and return its path.

        The ``command`` block records the settings of the invocation that
        last wrote the manifest; in an incrementally filled directory,
        entries adopted from earlier runs may have been produced at other
        settings — each entry's own ``provenance`` block is authoritative.
        """
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "generated_at": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            "command": {
                "runs": self.runs,
                "seed": self.seed,
                "jobs": self.jobs,
                "cache_dir": self.cache_dir,
            },
            "experiments": {
                name: self.entries[name] for name in sorted(self.entries)
            },
        }
        tmp = f"{self.manifest_path}.tmp.{os.getpid()}"
        try:
            os.makedirs(self.out_dir, exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, indent=2)
                handle.write("\n")
            os.replace(tmp, self.manifest_path)
        except OSError as exc:
            raise ArtifactError(
                f"cannot write manifest under {self.out_dir!r}: {exc}"
            ) from exc
        return self.manifest_path
