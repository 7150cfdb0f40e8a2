#!/usr/bin/env python3
"""Runs one cell on one build of barrec and prints the result.

    python3 perfbench/worker.py {program|reference} WORKLOAD SEED INDEX

``program`` loads ``src/``; ``reference`` loads the frozen build under
``perfbench/reference/``.  The cell is ``workloads.build_cells(WORKLOAD,
SEED)[INDEX]``.  The last stdout line is the JSON result of
``run.time_cell`` plus this process's peak RSS.
"""

from __future__ import annotations

import gc
import json
import resource
import sys

import run
import workloads
from tracer import installed_wrappers


def main():
    build, workload = sys.argv[1], sys.argv[2]
    seed, index = int(sys.argv[3]), int(sys.argv[4])
    modules = run.load_barrec(run.SRC if build == "program"
                              else run.REFERENCE)
    leftover = installed_wrappers(modules)
    if leftover:
        run.fail("tracer wrappers installed in an untraced run: %s"
                 % leftover)
    golden = run.load_golden()
    cell = workloads.build_cells(workload, seed)[index]
    gc.collect()
    result = run.time_cell(modules["cli"], cell, golden)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["peak_rss_mb"] = peak / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
