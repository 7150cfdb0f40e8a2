#!/usr/bin/env python3
"""Write ``golden.json``: the outputs every benchmark run is checked
against.

    python3 perfbench/make_golden.py

It runs every cell of every workload once, and the verify cell for each of
the recorded check seeds, and records what ``workloads.observe`` extracts:
``mode``, ``domain_size``, ``i``, ``calls`` and ``valid`` per row, and the
passed/failed count per check suite.  The table defines correctness, so
regenerate it only from a commit whose outputs are known to be right; a
change that alters these numbers on purpose says so.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main():
    modules = run.load_barrec()
    cells = {}
    for workload in workloads.WORKLOADS:
        seeds = (range(workloads.VERIFY_SEEDS) if workload == "verify"
                 else (0,))
        for seed in seeds:
            for cell in workloads.build_cells(workload, seed):
                rc, out, err = run.run_cell(modules["cli"], cell)
                if rc != 0:
                    sys.exit("cell %s exited %r:\n%s" % (cell.id, rc, err))
                cells[cell.id] = workloads.observe(cell, out)
                print(cell.id, json.dumps(cells[cell.id]), flush=True)
    table = {"source_sha256": run.source_digest(), "cells": cells}
    run.GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
