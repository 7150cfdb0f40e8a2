"""Guard against drift from the benchmark's golden table.

The benchmark checks every cell's output against ``perfbench/golden.json``.
This test reads that file (it imports nothing from ``perfbench/``) and
runs ten of its cells in-process, so a change in suite counts, call
counts or the generators' random stream fails here rather than only as
``correct: false`` in a benchmark run.
"""

import json
from pathlib import Path

import pytest

from barrec import cli
from barrec.noinjection import builtin_dsl

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())["cells"]


@pytest.mark.parametrize("seed", [0, 1, 63])
def test_check_suite_counts(seed, golden, capsys):
    assert cli.main(["check", "--seed", str(seed), "--cases", "150"]) == 0
    seen = {}
    for line in capsys.readouterr().out.splitlines():
        name, passed, failed = line.split()
        seen[name] = [int(passed.split("=")[1]), int(failed.split("=")[1])]
    assert seen == golden["check:seed%d:cases150" % seed]


@pytest.mark.parametrize("recursor,family,n", [
    ("spector", "leastinc", 30),
    ("spector", "prod", 10),
    # The 4,097-slot carrier, with a sibling fork deep in its recursion.
    ("spector", "prod", 12),
    ("symmetric", "contrived", 200),
    ("symmetric", "leastinc", 200),
])
def test_bench_rows(recursor, family, n, golden, capsys):
    assert cli.main(["bench", "--recursor", recursor, "--family", family,
                     "--n", str(n), "--format", "json"]) == 0
    rows = [[r["mode"], r["domain_size"], r["i"], r["calls"], r["valid"]]
            for r in json.loads(capsys.readouterr().out)]
    assert rows == golden["bench:%s:%s:%d" % (recursor, family, n)]


@pytest.mark.parametrize("mode", ["plain", "memoized"])
def test_dsl_solve_rows(mode, golden, capsys):
    assert cli.main(["solve", "--h", builtin_dsl("leastinc", 30),
                     "--recursor", "spector", "--mode", mode,
                     "--format", "json"]) == 0
    rows = [[r["mode"], r["domain_size"], r["i"], r["calls"], r["valid"]]
            for r in json.loads(capsys.readouterr().out)]
    assert rows == golden["solve-dsl:spector:leastinc:30:%s" % mode]
