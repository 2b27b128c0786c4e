"""CI shared-cache driver — not a pytest module.

Proves the shared cache store is pure acceleration at full-pipeline
scale, over both transports:

1. Reference: ``repro all`` with no cache at all.
2. Cold:      ``repro all`` against an empty :class:`SharedFSStore`
   (``--cache-url``) with its own local tier — populates the store.
3. Warm:      the identical command with a **fresh** local tier against
   the now-populated store.  Every point must come from the store:
   zero cache misses, zero quarantines, remote hits for every hit.
4. HTTP:      another fresh-tier run, this time through ``repro serve
   --cache-objects`` mounted over the same object tree, via
   ``--cache-url http://...`` — the HTTPStore must serve the objects
   the SharedFSStore wrote.

Every artifact file (minus ``manifest.json``, which carries volatile
telemetry) must be byte-identical across all four runs, and the
per-experiment result digests must agree for every experiment.

Exits non-zero on any mismatch.  Run as::

    PYTHONPATH=src python tests/shared_cache_smoke.py

``REPRO_SMOKE_RUNS`` shrinks the budget for a quick local pass.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile

RUNS = os.environ.get("REPRO_SMOKE_RUNS", "50")


def run_all(out: pathlib.Path, *extra: str) -> None:
    subprocess.run(
        [
            sys.executable, "-m", "repro", "all",
            "--runs", RUNS, "--out", str(out), *extra,
        ],
        check=True,
        stdout=subprocess.DEVNULL,
    )


def manifest(out: pathlib.Path) -> dict:
    return json.loads((out / "manifest.json").read_text())


def stable_files(out: pathlib.Path) -> list:
    return sorted(
        p.relative_to(out)
        for p in out.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    )


def assert_bundles_identical(ref: pathlib.Path, other: pathlib.Path,
                             label: str) -> None:
    ref_files = stable_files(ref)
    assert ref_files, "reference run produced no artifacts"
    assert stable_files(other) == ref_files, f"{label}: file sets differ"
    mismatched = [
        str(rel)
        for rel in ref_files
        if (other / rel).read_bytes() != (ref / rel).read_bytes()
    ]
    assert not mismatched, f"{label}: bytes differ:\n  " + "\n  ".join(
        mismatched
    )
    print(f"{label}: {len(ref_files)} artifact files byte-identical")


def cache_traffic(out: pathlib.Path) -> dict:
    """Summed engine cache counters across the manifest's experiments."""
    totals: dict = {"hits": 0, "misses": 0}
    for entry in manifest(out)["experiments"].values():
        engine = entry["provenance"]["engine"]
        totals["hits"] += engine.get("cache_hits", 0)
        totals["misses"] += engine.get("cache_misses", 0)
        for key, value in engine.get("cache", {}).items():
            totals[key] = totals.get(key, 0) + value
    return totals


def main() -> int:
    base = pathlib.Path(tempfile.mkdtemp(prefix="repro-shared-cache-"))
    shared = base / "shared-store"
    out_ref, out_cold, out_warm, out_http = (
        base / "out-ref", base / "out-cold", base / "out-warm",
        base / "out-http",
    )

    run_all(out_ref)
    run_all(
        out_cold,
        "--cache-dir", str(base / "tier-cold"),
        "--cache-url", str(shared),
    )
    run_all(
        out_warm,
        "--cache-dir", str(base / "tier-warm"),  # fresh: only the store is warm
        "--cache-url", str(shared),
    )

    assert_bundles_identical(out_ref, out_cold, "cold vs reference")
    assert_bundles_identical(out_ref, out_warm, "warm vs reference")

    cold = cache_traffic(out_cold)
    warm = cache_traffic(out_warm)
    print(f"cold traffic: {cold}")
    print(f"warm traffic: {warm}")
    assert cold["uploads"] > 0, "cold run uploaded nothing to the store"
    assert warm["misses"] == 0, f"warm run missed: {warm}"
    assert warm["hits"] > 0, "warm run hit nothing"
    assert warm.get("remote_hits", 0) == warm["hits"], (
        "warm hits must all come from the shared store", warm
    )
    assert warm.get("uploads", 0) == 0, "warm run re-uploaded objects"

    # Per-experiment digests agree everywhere.
    ref_digests = {
        name: entry["provenance"]["digest"]
        for name, entry in manifest(out_ref)["experiments"].items()
    }
    for label, out in (("cold", out_cold), ("warm", out_warm)):
        digests = {
            name: entry["provenance"]["digest"]
            for name, entry in manifest(out)["experiments"].items()
        }
        assert digests == ref_digests, f"{label}: result digests diverged"
    print(f"result digests OK: {len(ref_digests)} experiments")

    # HTTP transport parity: serve the same object tree over
    # ``/cache/objects`` and reproduce from it with another fresh tier.
    from repro.serve import BackgroundServer, ServeConfig

    with BackgroundServer(
        ServeConfig(port=0, cache_objects=str(shared))
    ) as handle:
        run_all(
            out_http,
            "--cache-dir", str(base / "tier-http"),
            "--cache-url", f"http://127.0.0.1:{handle.port}",
        )
    assert_bundles_identical(out_ref, out_http, "http vs reference")
    http = cache_traffic(out_http)
    print(f"http traffic: {http}")
    assert http["misses"] == 0, f"http-warm run missed: {http}"
    assert http.get("remote_hits", 0) == http["hits"], (
        "http hits must all come from the served store", http
    )
    print("shared-cache smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
