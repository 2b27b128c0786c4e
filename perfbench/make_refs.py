"""Regenerate the committed reference outputs in ``perfbench/refs``.

Usage::

    python3 perfbench/make_refs.py [WORKLOAD ...]

References are computed serially and without any cache, so a benchmark
pass (pool workers, tiered caches, a served engine) must reproduce them
exactly — the program's bit-identity contract.  Rerun only when a
workload's inputs or budget change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from functools import partial

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from repro.designs.catalog import ALL_DESIGNS  # noqa: E402
from repro.designs.interstitial import build_with_primary_count  # noqa: E402
from repro.yieldsim.engine import EnginePoint, SweepEngine  # noqa: E402
from repro.yieldsim.kernel import PointSpec  # noqa: E402

import serve_load  # noqa: E402
from workloads import (  # noqa: E402
    INPUT_SETS,
    UNSTABLE_DIGESTS,
    Pipeline,
    SweepMatching,
    refs_path,
)


def sweep_refs(cls, index: int, tmp: str):
    got, _ = cls(index, tmp).sweep(SweepEngine(jobs=1))
    if None in got:
        raise RuntimeError(f"{cls.name} input set {index} raised")
    return got


def pipeline_refs(index: int, tmp: str):
    digests, _ = Pipeline(index, tmp).execute_all(SweepEngine(jobs=1), None)
    if None in digests.values():
        raise RuntimeError(f"pipeline input set {index} raised")
    return {k: v for k, v in digests.items() if k not in UNSTABLE_DIGESTS}


def serve_refs(index: int, tmp: str):
    designs = {d.name: d for d in ALL_DESIGNS}
    chips = {}
    tasks = []
    for point in serve_load.mix_points(index):
        key = (point["design"], point["n"])
        if key not in chips:
            chips[key] = build_with_primary_count(designs[key[0]], key[1]).build()
        tasks.append(EnginePoint(
            chips[key],
            PointSpec(point["kind"], point["param"], point["runs"], point["seed"]),
        ))
    engine = SweepEngine(jobs=1, shard_runs=serve_load.SHARD_RUNS)
    return [estimate.successes for estimate in engine.run_points(tasks)]


#: workload -> (budget the references are valid for, maker of one input set)
MAKERS = {
    SweepMatching.name: (SweepMatching.budget, partial(sweep_refs, SweepMatching)),
    Pipeline.name: (Pipeline.budget, pipeline_refs),
    "serve": (serve_load.ServeWorkload.budget, serve_refs),
}


def make_set(name: str, index: int):
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        result = MAKERS[name][1](index, tmp)
    print(f"{name}: input set {index} done", file=sys.stderr, flush=True)
    return result


def main(argv) -> int:
    for name in argv or list(MAKERS):
        if os.path.exists(refs_path(name)):
            os.remove(refs_path(name))  # stale references must not be loaded
        with ProcessPoolExecutor(max_workers=os.cpu_count()) as pool:
            results = list(pool.map(make_set, [name] * INPUT_SETS, range(INPUT_SETS)))
        with open(refs_path(name), "w", encoding="utf-8") as fh:
            json.dump(
                {"workload": name, "budget": MAKERS[name][0](),
                 "sets": {str(i): r for i, r in enumerate(results)}},
                fh, indent=1, sort_keys=True,
            )
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
