"""The benchmark's workloads: the CLI calls that make up one pass, and the
checks each call's output must pass against the golden table.

A cell is one in-process call to ``barrec.cli.main`` with the argv a user
would type.  Passes run their cells one after another in one thread: a
closed loop with a single client.

Why these workloads:

* ``seq-deep`` -- the sequential solver on carriers of up to 4,097 slots.
  ``FiniteSeq.append``/``overlay`` copy O(n^2) items and memoized mode
  keeps every prefix alive, so carrier work and peak memory dominate.
* ``seq-branch`` -- the sequential solver on ``leastinc``: carriers stay
  at most 51 slots but entries reach 2,653, each reading n+2 extension
  points.  Control evaluation and the DSL dominate; carrier copies do
  not, so this is the bypass case for carrier work.  Each ``n`` runs
  through the built-in ``H`` and through the same ``H`` written in the
  DSL.
* ``sym-demand`` -- the demand-driven solver on partial functions:
  ``PartialFn.update``/``merge``, ``defined_at`` scans, ``extend_hat``
  rebuilds and thread decomposition.  The sequential engine is idle.
* ``verify`` -- all seven ``check`` suites: thousands of tiny generated
  instances through the generic recursors, the translations, the thread
  witnesses, the DSL and the generators.  Carriers stay at most eight
  entries, so per-call costs show here.  It is the only seeded workload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

SEQ_DEEP = (("prod", 10), ("prod", 11), ("prod", 12), ("prodpow", 4))
SEQ_BRANCH = (30, 50)
SYM_DEMAND = (("leastinc", 200), ("leastinc", 300), ("contrived", 200),
              ("prod", 12), ("prodpow", 5))
MODES = ("plain", "memoized")

# ``check --cases`` count for the verify workload, and the number of
# check seeds whose suite counts the golden table records.  The run's
# seed picks one of them.
VERIFY_CASES = 150
VERIFY_SEEDS = 64

WORKLOADS = ("seq-deep", "seq-branch", "sym-demand", "verify")


@dataclass(frozen=True)
class Cell:
    """One CLI call.  ``kind`` is ``"rows"`` for ``bench``/``solve`` JSON
    output and ``"check"`` for the suite table."""

    id: str
    argv: tuple
    kind: str


def _bench(recursor, family, n):
    return Cell("bench:%s:%s:%d" % (recursor, family, n),
                ("bench", "--recursor", recursor, "--family", family,
                 "--n", str(n), "--format", "json"), "rows")


def verify_seed(seed):
    return seed % VERIFY_SEEDS


def build_cells(workload, seed):
    """The cells of one pass.  Only ``verify`` reads the seed."""
    if workload == "seq-deep":
        return [_bench("spector", f, n) for f, n in SEQ_DEEP]
    if workload == "seq-branch":
        from barrec.noinjection import builtin_dsl
        cells = []
        for n in SEQ_BRANCH:
            cells.append(_bench("spector", "leastinc", n))
            for mode in MODES:
                cells.append(Cell(
                    "solve-dsl:spector:leastinc:%d:%s" % (n, mode),
                    ("solve", "--h", builtin_dsl("leastinc", n),
                     "--recursor", "spector", "--mode", mode,
                     "--format", "json"), "rows"))
        return cells
    if workload == "sym-demand":
        return [_bench("symmetric", f, n) for f, n in SYM_DEMAND]
    if workload == "verify":
        s = verify_seed(seed)
        return [Cell("check:seed%d:cases%d" % (s, VERIFY_CASES),
                     ("check", "--seed", str(s), "--cases",
                      str(VERIFY_CASES)), "check")]
    raise ValueError("unknown workload %r" % (workload,))


def observe(cell, out):
    """The part of a cell's output the golden table pins down."""
    if cell.kind == "rows":
        return [[r["mode"], r["domain_size"], r["i"], r["calls"], r["valid"]]
                for r in json.loads(out)]
    suites = {}
    for line in out.splitlines():
        if line.startswith("  FAIL"):
            continue
        name, passed, failed = line.split()
        suites[name] = [int(passed.split("=")[1]), int(failed.split("=")[1])]
    return suites


def expected_attempts(cell, golden):
    """Checks a cell counts as attempted: one per ``bench``/``solve``
    call, one per suite check on ``check``."""
    if cell.kind == "rows":
        return 1
    return sum(p + f for p, f in golden.values())


def score(cell, rc, out, golden):
    """``(attempted, failed)`` for one cell.  A failure is a nonzero exit,
    an exception (``rc`` is ``None``), unparsable output, ``valid`` false
    or a count that differs from the golden table."""
    attempted = expected_attempts(cell, golden)
    if rc != 0:
        return attempted, attempted
    try:
        seen = observe(cell, out)
    except (ValueError, KeyError, IndexError, TypeError):
        return attempted, attempted
    if cell.kind == "rows":
        ok = seen == golden and all(row[4] is True for row in seen)
        return attempted, 0 if ok else 1
    failed = 0
    for suite, counts in golden.items():
        got = seen.get(suite)
        failed += counts[1] if got == counts else sum(counts)
    return attempted, failed
