"""Checks of the benchmark itself: the tracer's counts repeat exactly,
its wrappers come off, and the golden-table scoring catches wrong output.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, installed_wrappers  # noqa: E402

MODULES = run.load_barrec()
GOLDEN = run.load_golden()


def _cell(*argv, kind="rows"):
    return workloads.Cell(" ".join(argv), argv, kind)


# Small cells that reach every traced layer: both solvers, the DSL path
# and all seven check suites.
SMALL = (
    _cell("bench", "--recursor", "spector", "--family", "prod", "--n", "6",
          "--format", "json"),
    _cell("bench", "--recursor", "symmetric", "--family", "leastinc",
          "--n", "20", "--format", "json"),
    _cell("solve", "--h", "least i <= 8 st g(i) < g(i + 1) else 8",
          "--recursor", "spector", "--mode", "memoized", "--format", "json"),
    _cell("check", "--seed", "1", "--cases", "5", kind="check"),
)


def _traced_small_run():
    tracer = Tracer()
    tracer.install(MODULES)
    try:
        for cell in SMALL:
            tracer.cell = cell.id
            rc, _, err = run.run_cell(MODULES["cli"], cell)
            assert rc == 0, err
    finally:
        tracer.uninstall()
    return tracer


def _counts(tracer):
    return {k: v for k, v in tracer.layers().items() if isinstance(v, int)}


def _namespace_snapshot():
    snap = {}
    for modname, mod in MODULES.items():
        for attr, value in vars(mod).items():
            snap[(modname, attr)] = id(value)
            if isinstance(value, type):
                for meth, fn in vars(value).items():
                    snap[(modname, attr, meth)] = id(fn)
    for suite, fn in MODULES["checks"].ALL_SUITES.items():
        snap[("suite", suite)] = id(fn)
    return snap


def test_counts_repeat_exactly_across_traced_runs():
    first = _counts(_traced_small_run())
    second = _counts(_traced_small_run())
    assert first == second
    for name, unit in run.result_layers().items():
        if unit == "count" and name != "context.memo.hits":
            assert first[name] > 0, name


def test_uninstall_restores_every_original():
    before = _namespace_snapshot()
    tracer = Tracer()
    tracer.install(MODULES)
    try:
        assert installed_wrappers(MODULES)
    finally:
        tracer.uninstall()
    assert installed_wrappers(MODULES) == []
    assert _namespace_snapshot() == before


def test_spans_nest_inside_their_parents():
    tracer = _traced_small_run()
    spans = {sid: (name, start, end, parent, cell)
             for sid, name, start, end, parent, cell in tracer.spans}
    assert spans
    for name, start, end, parent, cell in spans.values():
        assert start <= end
        if parent is not None:
            _, pstart, pend, _, pcell = spans[parent]
            assert pstart <= start and end <= pend and cell == pcell
    for count, layer_s, self_s in tracer.agg.values():
        assert count > 0 and self_s >= 0 and layer_s >= 0


def test_score_flags_output_that_differs_from_the_golden_table():
    cell = workloads.build_cells("seq-deep", 0)[0]
    rc, out, _ = run.run_cell(MODULES["cli"], cell)
    golden = GOLDEN[cell.id]
    assert workloads.score(cell, rc, out, golden) == (1, 0)
    rows = json.loads(out)
    rows[0]["calls"] += 1
    assert workloads.score(cell, 0, json.dumps(rows), golden) == (1, 1)
    assert workloads.score(cell, 4, out, golden) == (1, 1)
    assert workloads.score(cell, None, "", golden) == (1, 1)


def test_score_counts_suite_checks_on_verify():
    golden = {"threads": [10, 0], "dsl": [4, 0]}
    cell = workloads.Cell("check", ("check",), "check")
    good = ("threads          passed=10    failed=0\n"
            "dsl              passed=4     failed=0\n")
    bad = good.replace("passed=4     failed=0", "passed=3     failed=1")
    assert workloads.score(cell, 0, good, golden) == (14, 0)
    assert workloads.score(cell, 0, bad, golden) == (14, 4)
    assert workloads.score(cell, 4, bad, golden) == (14, 14)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(20))) == (50, 9)
    assert run.tail_percentile(list(range(100))) == (90, 89)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "seq-deep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
