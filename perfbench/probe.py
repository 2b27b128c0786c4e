"""Time one workload's set-up in a fresh interpreter.

Usage::

    python3 perfbench/probe.py WORKLOAD INPUT_SET TMPDIR

Prints ``{"setup_s": ...}``: the imports plus the workload's ``setup()``
(for the sweeps, building every chip's repair structure and funnel
context; for the pipeline, nothing more — ``repro all`` builds its engine,
pool and cache on every pass).  Interpreter start-up is not counted.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402

if __name__ == "__main__":
    name, index, tmp = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.make_workload(name, index, tmp).setup()
    print(json.dumps({"setup_s": time.perf_counter() - T0}))
