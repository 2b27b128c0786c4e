"""Run ``repro serve`` in this process, optionally with spans recorded.

Usage::

    python3 perfbench/serve_proc.py [--trace-out FILE] -- serve --port 0 ...

Everything after ``--`` goes to the ``repro`` command line unchanged.  With
``--trace-out`` the scheduler, executor and point-cache entry points are
wrapped (see :mod:`harness`) for the life of the server, and their span and
counter summary is written to FILE as JSON once the server has drained
after SIGTERM.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def main(argv) -> int:
    split = argv.index("--")
    own, repro_args = argv[:split], argv[split + 1:]
    trace_out = own[own.index("--trace-out") + 1] if "--trace-out" in own else None

    from repro.cli import main as repro_main

    if trace_out is None:
        return repro_main(repro_args)

    from harness import instrument

    with instrument(["engine"]) as recorder:
        code = repro_main(repro_args)
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(recorder.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
