#!/usr/bin/env python3
"""Benchmark for barrec: end-to-end cost of the CLI, and a layer split.

One workload per process:

    python3 perfbench/run.py --workload seq-deep --seed 1 --seconds 15 --trace 0

All four, each in a fresh process, with a summary table:

    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

With ``--trace 0`` a run times passes over the workload's cells (see
``workloads.py``).  Each cell runs in a fresh worker process
(``worker.py``) on the program in ``src/``, back to back with the same
cell in another fresh worker on the frozen seed build in ``reference/``;
the pair shares a hash seed.  ``wall_vs_seed`` is the program's time
relative to the reference's (see ``wall_vs_seed()``).  Pass time on a
shared virtual machine drifts by tens of percent between stretches of a
minute or so; the two builds drift together, so their ratio stays put
while the raw ``wall_s`` (reported in the detail line) does not.
``peak_rss_mb`` is the program workers' peak, and ``setup_s`` the median
of fresh interpreters importing barrec and building the argv list.

With ``--trace 1`` it alternates untraced and traced passes, reports the
per-layer counts and times of the traced passes and their overhead ratio,
and writes the spans of the last traced pass to ``perfbench/out/``.  Every
cell's output is checked against ``golden.json``; the last stdout line is
the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer, installed_wrappers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
BENCHMARK = ROOT / "BENCHMARK.json"

LAYER_MODULES = ("pfun", "context", "choice", "recursors", "threads",
                 "noinjection", "hdsl", "interdef", "checks", "gen", "cli")

# Fresh interpreters that each time ``import barrec.cli`` plus building
# the argv list; ``setup_s`` is their median.
SETUP_PROBES = 11
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

PROBE = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
import workloads
t0 = time.perf_counter()
import barrec.cli
workloads.build_cells(sys.argv[3], int(sys.argv[4]))
print(repr(time.perf_counter() - t0))
"""



def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(2)


def load_barrec(src=SRC):
    """Import barrec from ``src`` (the checkout's own ``src/`` unless
    told otherwise), never an installed copy."""
    if not (src / "barrec" / "__init__.py").is_file():
        fail("no barrec sources under %s" % src)
    sys.path.insert(0, str(src))
    import importlib
    modules = {name: importlib.import_module("barrec." + name)
               for name in LAYER_MODULES}
    modules["barrec"] = sys.modules["barrec"]
    if Path(modules["barrec"].__file__).resolve().parent \
            != (src / "barrec").resolve():
        fail("imported barrec from %s, not from %s"
             % (modules["barrec"].__file__, src))
    return modules


def result_layers():
    """``{name: unit}`` of the per-layer metrics a traced run puts in its
    result line, as ``BENCHMARK.json`` lists them.  The full table goes to
    the detail line and the trace file; times of layers that only some
    workloads reach are left to the table, so that every time in the
    result line is measured on every workload."""
    return {m["name"]: m["unit"]
            for m in json.loads(BENCHMARK.read_text())["per_layer"]}


def load_golden():
    if not GOLDEN.is_file():
        fail("missing %s" % GOLDEN)
    return json.loads(GOLDEN.read_text())["cells"]


def measure_setup(workload, seed):
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC), str(HERE), workload,
             str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail("set-up probe failed:\n%s" % proc.stderr)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_cell(cli, cell):
    """Call ``cli.main`` once; ``rc`` is ``None`` when it raised."""
    out, err = io.StringIO(), io.StringIO()
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(cell.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a failed cell is counted, the run goes on
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def time_cell(cli, cell, golden):
    """Run and check one cell; the time covers both."""
    t0 = time.perf_counter()
    rc, out, err = run_cell(cli, cell)
    attempted, failed = workloads.score(cell, rc, out, golden[cell.id])
    result = {"s": time.perf_counter() - t0, "attempted": attempted,
              "failed": failed, "error": None, "rows_ms": {}}
    if failed:
        result["error"] = {"cell": cell.id, "rc": rc, "stderr": err[-2000:],
                           "stdout": out[:2000]}
    elif cell.kind == "rows":
        for row in json.loads(out):
            result["rows_ms"][row["mode"]] = row["wall_ms"]
    return result


class Pass:
    """One closed-loop pass: each cell starts when the previous one has
    returned and been checked.  ``wall_s`` sums the program's cells only;
    ``ref_s`` sums the reference build's runs of the same cells."""

    def __init__(self):
        self.wall_s = self.ref_s = 0.0
        self.attempted = self.failed = 0
        self.peak_rss_mb = 0.0
        self.cell_s, self.ref_cell_s = {}, {}
        self.rows_ms, self.errors = {}, []

    def add(self, cell, result):
        self.wall_s += result["s"]
        self.cell_s[cell.id] = result["s"]
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        if result["error"]:
            self.errors.append(result["error"])
        for mode, ms in result["rows_ms"].items():
            self.rows_ms["%s:%s" % (cell.id, mode)] = ms


def program_pass(cli, cells, golden, tracer=None):
    """A pass in this process, for the traced run."""
    p = Pass()
    gc.collect()
    for cell in cells:
        if tracer is not None:
            tracer.cell = cell.id
        p.add(cell, time_cell(cli, cell, golden))
    return p


def run_worker(build, args, index, hash_seed):
    """Run cell ``index`` once in a fresh process on one build --
    ``program`` (``src/``) or ``reference`` (``reference/``) -- and return
    ``worker.py``'s result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), build, args.workload,
         str(args.seed), str(index)],
        cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)),
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        fail("%s worker exited %d:\n%s" % (build, proc.returncode,
                                            proc.stderr[-3000:]))
    return json.loads(proc.stdout.splitlines()[-1])


def paired_pass(args, cells, index):
    """A pass of the program over the cells, each cell in a fresh worker
    run back to back with the same cell on the reference build in another
    fresh worker, alternating which goes first.  Each pair shares a hash
    seed, so string hashing costs the same on both sides, and a fresh pair
    per cell averages out what else a process's layout costs."""
    p = Pass()
    for i, cell in enumerate(cells):
        hash_seed = (args.seed * 7919 + index * 131 + i) % 2 ** 32
        order = ("reference", "program") if (i + index) % 2 \
            else ("program", "reference")
        results = {build: run_worker(build, args, i, hash_seed)
                   for build in order}
        ref = results["reference"]
        if ref["failed"]:
            fail("reference build failed cell %s: %s"
                 % (cell.id, ref["error"]))
        p.ref_s += ref["s"]
        p.ref_cell_s[cell.id] = ref["s"]
        p.add(cell, results["program"])
        p.peak_rss_mb = max(p.peak_rss_mb, results["program"]["peak_rss_mb"])
    return p


def wall_vs_seed(passes):
    """Program time relative to the reference build: per cell, the median
    over passes of program time over reference time, averaged with each
    cell's share of the reference's time as its weight.  The median drops
    the pairs a burst of noise hit; the weights keep the result a ratio
    of whole-pass times."""
    ref = {c: statistics.median(p.ref_cell_s[c] for p in passes)
           for c in passes[0].ref_cell_s}
    total = sum(ref.values())
    return sum(ref[c] / total * statistics.median(
        p.cell_s[c] / p.ref_cell_s[c] for p in passes) for c in ref)


def tail_percentile(values):
    """The highest whole percentile with at least ten samples above it
    (nearest rank), or ``None`` with ten samples or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if 1 <= rank <= n - 10:
            return p, ordered[rank - 1]
    return None


def wall_stats(walls):
    tail = tail_percentile(walls)
    return {"median": statistics.median(walls),
            "tail_percentile": tail and tail[0],
            "tail_s": tail and tail[1], "samples": len(walls),
            "passes": walls}


def medians(dicts):
    keys = dicts[0].keys()
    return {k: statistics.median(d[k] for d in dicts if k in d)
            for k in keys}


def git_commit():
    """The checked-out commit, read from ``.git`` without running git;
    ``None`` outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over the barrec sources, which identifies the program where
    no git metadata is available."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "barrec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args):
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "workload": args.workload, "seed": args.seed,
            "verify_seed": workloads.verify_seed(args.seed),
            "cases": workloads.VERIFY_CASES,
            "seconds": args.seconds, "trace": args.trace}


def untraced_run(args, cells):
    """Paired passes until ``--seconds`` of cell time (program and
    reference) have gone by, and at least ``MIN_PASSES``."""
    passes = []
    while len(passes) < MIN_PASSES or sum(
            p.wall_s + p.ref_s for p in passes) < args.seconds:
        passes.append(paired_pass(args, cells, len(passes)))
    return passes


def traced_run(args, modules, cells, golden):
    """Alternate untraced and traced passes until ``--seconds`` have gone
    by and at least two traced passes ran.  Every count must repeat
    exactly across the traced passes."""
    cli = modules["cli"]
    tracer = Tracer()
    plain, traced, layers, problems = [], [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_TRACED_PASSES \
            or time.perf_counter() - start < args.seconds:
        plain.append(program_pass(cli, cells, golden))
        tracer.reset()
        tracer.install(modules)
        try:
            traced.append(program_pass(cli, cells, golden, tracer))
        finally:
            tracer.uninstall()
        leftover = installed_wrappers(modules)
        if leftover:
            problems.append("wrappers left installed: %s" % leftover)
        layers.append(tracer.layers())
    counts = [{k: v for k, v in table.items() if isinstance(v, int)}
              for table in layers]
    for k, other in enumerate(counts[1:], 1):
        if other != counts[0]:
            diff = sorted(key for key in set(other) | set(counts[0])
                          if other.get(key) != counts[0].get(key))
            problems.append("traced pass %d counts differ: %s" % (k, diff))
    table = medians(layers)
    table.update(counts[0])
    table["trace.overhead_ratio"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in plain))
    return plain, traced, table, tracer, problems


def write_trace(args, tracer, table):
    """Spans of the last traced pass, one JSON array per line, after a
    header line with the layer table and the per-cell self times."""
    OUT.mkdir(exist_ok=True)
    path = OUT / ("trace-%s-seed%d.jsonl.gz" % (args.workload, args.seed))
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write(json.dumps({"fields": ["id", "name", "start", "end",
                                        "parent", "cell"],
                             "layers": table,
                             "cell_self_s": tracer.cell_split()}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return path


def run_workload(args):
    modules = load_barrec()
    golden = load_golden()
    cells = workloads.build_cells(args.workload, args.seed)
    missing = [c.id for c in cells if c.id not in golden]
    if missing:
        fail("no golden entry for %s" % missing)
    env = environment(args)
    if args.trace:
        plain, traced, table, tracer, problems = traced_run(
            args, modules, cells, golden)
        passes = plain + traced
        trace_path = write_trace(args, tracer, table)
        metrics = {name: {"value": table.get(name, 0), "unit": unit}
                   for name, unit in result_layers().items()}
        detail = {"env": env, "layers": table,
                  "wall_s": wall_stats([p.wall_s for p in plain]),
                  "traced_wall_s": wall_stats([p.wall_s for p in traced]),
                  "cell_s": medians([p.cell_s for p in plain]),
                  "traced_cell_s": medians([p.cell_s for p in traced]),
                  "rows_ms": medians([p.rows_ms for p in plain]),
                  "traced_rows_ms": medians([p.rows_ms for p in traced]),
                  "trace_file": str(trace_path.relative_to(ROOT)),
                  "problems": problems}
    else:
        setup = measure_setup(args.workload, args.seed)
        passes = untraced_run(args, cells)
        problems = []
        metrics = {
            "wall_vs_seed": {"value": wall_vs_seed(passes),
                             "unit": "ratio"},
            "peak_rss_mb": {"value": statistics.median(
                p.peak_rss_mb for p in passes), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
        detail = {"env": env,
                  "wall_s": wall_stats([p.wall_s for p in passes]),
                  "reference_wall_s": wall_stats([p.ref_s for p in passes]),
                  "pass_ratios": [p.wall_s / p.ref_s for p in passes],
                  "peak_rss_mb": [p.peak_rss_mb for p in passes],
                  "setup_s": {"median": statistics.median(setup),
                              "samples": setup},
                  "cell_s": medians([p.cell_s for p in passes]),
                  "rows_ms": medians([p.rows_ms for p in passes])}
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors][:5]
    detail.update({"attempted": attempted, "failed": failed,
                   "fail_ratio": failed / attempted, "errors": errors})
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in a fresh process of its own, then one table."""
    results = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            fail("workload %s exited %d" % (workload, proc.returncode))
        results[workload] = (json.loads(lines[-2])["detail"],
                             json.loads(lines[-1]))
    print_summary(args, results)
    ok = all(res["correct"] for _, res in results.values())
    print(json.dumps({w: res for w, (_, res) in results.items()}))
    return 0 if ok else 1


def print_summary(args, results):
    if not args.trace:
        print("%-11s %10s %22s %13s %12s %10s %10s" % (
            "workload", "wall_s", "wall_s tail", "wall_vs_seed",
            "peak_rss_mb", "setup_s", "fail_ratio"))
        for workload, (detail, res) in results.items():
            m, w = res["metrics"], detail["wall_s"]
            tail = ("p%d %.4f s (n=%d)" % (w["tail_percentile"], w["tail_s"],
                                           w["samples"])
                    if w["tail_percentile"] else "- (n=%d)" % w["samples"])
            print("%-11s %8.4f s %22s %7.4f ratio %9.1f MB %8.4f s %10.4f" % (
                workload, w["median"], tail, m["wall_vs_seed"]["value"],
                m["peak_rss_mb"]["value"], m["setup_s"]["value"],
                detail["fail_ratio"]))
        return
    names = sorted(set().union(*(d["layers"] for d, _ in results.values())))
    print("%-34s" % "layer metric"
          + "".join("%14s" % w for w in results))
    for name in names:
        cells = []
        for detail, _ in results.values():
            v = detail["layers"].get(name, 0)
            cells.append("%14d" % v if isinstance(v, int) else "%14.5f" % v)
        print("%-34s" % name + "".join(cells))
    for label, key in (("wall_s (untraced median)", "wall_s"),
                       ("wall_s (traced median)", "traced_wall_s")):
        print("%-34s" % label + "".join(
            "%14.4f" % d[key]["median"] for d, _ in results.values()))
    print("%-34s" % "fail_ratio" + "".join(
        "%14.4f" % d["fail_ratio"] for d, _ in results.values()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
