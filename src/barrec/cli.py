"""Command-line surface.

Subcommands: ``solve`` extracts and verifies one collision, ``bench``
regenerates the comparison tables over the built-in families, ``check``
runs the seeded verification suites, ``thread`` prints a step-by-step
thread construction, and ``interdef-test`` runs the translation
differential suite.

Exit codes: 0 success, 2 malformed input (a DSL syntax error, a DSL term
nested too deeply, a bad argument value, a ``BARREC_FUEL`` that is not a
non-negative integer where no ``--fuel`` overrides it, an unwritable
``--output``, or a ``thread`` whose control names an index of more
digits than the interpreter prints, ``sys.get_int_max_str_digits()``),
3 fuel exhausted, 4 failed verification, 5 recursion too deep (the
sequential solver recurses once per carrier slot, so a control with
values in the thousands outgrows the interpreter's recursion limit),
6 out of memory (a ``MemoryError``: fuel bounds the work a run does, not
the memory it holds, so a run well inside its fuel can still exhaust
the process's address space; a code of its own tells a budget the
caller set from a limit of the machine, and a ``check`` law that runs
out of memory stops the run with it, where any other exception a law
raises counts as one failed check).
``--fuel`` bounds recursor entries plus thread steps, and what is left
of it after a solve must cover both printed prefixes, ``alpha`` and
``beta``, ``2 * (max(i, 8) + 1)`` points; ``EvalContext.require`` decides
both.  ``solve`` and ``bench`` print text, CSV or JSON; ``thread`` prints
text or JSON.
``bench`` reports a cell that runs out of fuel or memory or recurses too
deep as a row with an ``error`` field and still exits 0.
CSV and JSON output is byte-deterministic for a fixed configuration
except for the ``wall_ms`` field.
JSON keeps ``json.dumps(indent=2)``'s layout byte for byte, but json's C
encoder writes it on every supported Python (``_json_text``): on
CPython 3.11 and 3.12 ``indent`` sends ``json.dumps`` to json's
pure-Python encoder, and printing the prefixes of a large collision cost
more than finding it.  On 3.11 the two ``prodpow:5`` symmetric rows now
format in 6.1 ms instead of 27.2, with a tracemalloc peak of 2.9 times
the output instead of 8.4, and the benchmark's ``sym-demand`` peak RSS
fell from 26.0 to 24.0 MB (``BENCH_29.json``).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
import time

from . import checks, hdsl
from .context import DEFAULT_FUEL, MODES, PLAIN, EvalContext, FuelExhausted
from .noinjection import (BENCH_RANGES, FAMILIES, RECURSORS, builtin_dsl,
                          builtin_h, counterexample, report_row,
                          verify_counterexample)
from .pfun import EMPTY, PartialFn, extend_hat
from .threads import trace_thread

CSV_COLUMNS = ("family", "n", "recursor", "mode", "domain_size", "calls",
               "i", "valid", "error", "wall_ms")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_FUEL = 3
EXIT_INVALID = 4
EXIT_DEPTH = 5
EXIT_MEMORY = 6


class UsageError(ValueError):
    """A malformed argument value; ``main`` reports it with exit code 2."""


def _fuel(args) -> int:
    """``--fuel``, else ``BARREC_FUEL``, else ``DEFAULT_FUEL``."""
    if args.fuel is not None:
        return args.fuel
    env = os.environ.get("BARREC_FUEL")
    if not env:
        return DEFAULT_FUEL
    try:
        return _count(env)
    except argparse.ArgumentTypeError as exc:
        raise UsageError("BARREC_FUEL %s" % exc) from None


def _count(text: str) -> int:
    """Argument type of ``--fuel``, ``--steps`` and ``--cases``: a
    non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            "wants a non-negative integer, got %r" % text)
    return int(text)


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError("--output: %s" % exc) from None
    else:
        sys.stdout.write(text)


def _resolve_h(args) -> tuple:
    """Returns (family label, n or None, functional).  ``--builtin``
    names its family's DSL rendering, which takes ``--h``'s one parse
    and compile."""
    label, n, text = "dsl", None, args.h
    if args.builtin is not None:
        label, _, num = args.builtin.partition(":")
        if label not in FAMILIES or not num.isdecimal():
            raise UsageError("--builtin wants FAMILY:N with FAMILY in %s"
                             % (", ".join(FAMILIES)))
        try:
            n = int(num)
        except ValueError:
            raise UsageError("--builtin: N has %d digits, more than %d"
                             % (len(num), sys.get_int_max_str_digits())
                             ) from None
        text = builtin_dsl(label, n)
    try:
        expr = hdsl.parse(text)
    except (hdsl.ParseError, hdsl.UnboundVariable) as exc:
        raise UsageError(str(exc)) from None
    return label, n, hdsl.as_functional(expr)


def _rows_to_csv(rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_csv_cell(row.get(col)) for col in CSV_COLUMNS])
    return buf.getvalue()


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2) + "\\n"``, byte for byte, written by
    json's C encoder.

    Dict keys must be ``str``: a dict that holds containers has its keys
    encoded here, as strings."""
    pieces = []
    _json_pieces(obj, "\n", pieces)
    pieces.append("\n")
    return "".join(pieces)


def _json_pieces(obj, newline: str, pieces: list) -> None:
    """Appends ``obj``'s JSON text to ``pieces``, laid out as ``indent=2``
    lays it out; ``newline`` is a line break plus the indent of the line
    that ``obj`` ends on.

    A container whose members are all scalars is one C encoder call
    whose item separator carries the newline and indent; around a
    container that holds containers, this lays out the members."""
    is_dict = isinstance(obj, dict)
    if not (is_dict or isinstance(obj, (list, tuple))) or not obj:
        pieces.append(json.dumps(obj))
        return
    members = obj.values() if is_dict else obj
    opening, closing = "{}" if is_dict else "[]"
    inner = newline + "  "
    if set(map(type, members)) <= _SCALAR_TYPES:
        text = json.dumps(obj, separators=("," + inner, ": "))
        pieces += (opening, inner, text[1:-1], newline, closing)
        return
    keys = ([json.dumps(key) + ": " for key in obj] if is_dict
            else ("",) * len(obj))
    separator = opening + inner
    for key, value in zip(keys, members):
        pieces += (separator, key)
        _json_pieces(value, inner, pieces)
        separator = "," + inner
    pieces += (newline, closing)


def _run_cell(h, family, n, recursor, ctx) -> dict:
    started = time.perf_counter()
    c = counterexample(h, recursor, ctx)
    # The report reads both printed prefixes point by point, and the fuel
    # left bounds that work as it bounds the recursion's.
    ctx.require(2 * c.prefix_length())
    valid = verify_counterexample(h, c)
    row = report_row(family, n, recursor, c.metrics, c, valid)
    row["wall_ms"] = _ms(started)
    return row


def _ms(started: float) -> float:
    return round((time.perf_counter() - started) * 1000.0, 3)


def _recursors(args) -> tuple:
    return RECURSORS if args.recursor == "both" else (args.recursor,)


def cmd_solve(args) -> int:
    family, n, h = _resolve_h(args)
    fuel = _fuel(args)
    rows = [_run_cell(h, family, n, recursor,
                      EvalContext(fuel=fuel, mode=args.mode))
            for recursor in _recursors(args)]
    _emit(_format_rows(rows, args.format), args.output)
    if not all(row["valid"] for row in rows):
        return EXIT_INVALID
    return EXIT_OK


def _format_rows(rows: list, fmt: str) -> str:
    if fmt == "csv":
        return _rows_to_csv(rows)
    if fmt == "json":
        return _json_text(rows)
    lines = []
    for row in rows:
        lines.append(
            "%s n=%s %s [%s]: domain=%d calls=%d i=%d valid=%s"
            % (row["family"], row["n"], row["recursor"], row["mode"],
               row["domain_size"], row["calls"], row["i"], row["valid"]))
        lines.append("  alpha prefix: %s (then constant)"
                     % row["alpha_prefix"])
        lines.append("  beta  prefix: %s (then constant)"
                     % row["beta_prefix"])
    return "\n".join(lines) + "\n"


def _parse_range(text: str, family: str) -> range:
    if not text:
        return BENCH_RANGES[family]
    lo, sep, hi = text.partition("..")
    try:
        ns = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        ns = range(0)
    if not ns or ns.start < 0:
        raise UsageError("--n wants A or A..B with integers 0 <= A <= B, "
                         "got %r" % text)
    return ns


def cmd_bench(args) -> int:
    families = FAMILIES if args.family == "all" else (args.family,)
    ranges = [(family, _parse_range(args.n, family)) for family in families]
    fuel = _fuel(args)
    rows = []
    for family, ns in ranges:
        for n in ns:
            h = builtin_h(family, n)
            for recursor in _recursors(args):
                for mode in MODES:
                    ctx = EvalContext(fuel=fuel, mode=mode)
                    rows.append(_bench_cell(h, family, n, recursor, ctx))
    if args.format == "text":
        _emit(_bench_text(rows), args.output)
    else:
        _emit(_format_rows(rows, args.format), args.output)
    return EXIT_OK


def _bench_cell(h, family, n, recursor, ctx) -> dict:
    """``_run_cell``, or when the fuel, the memory or the interpreter's
    stack runs out, a row carrying the calls made so far."""
    started = time.perf_counter()
    try:
        return _run_cell(h, family, n, recursor, ctx)
    except FuelExhausted:
        error = "fuel-exhausted"
    except RecursionError:
        error = "recursion-too-deep"
    except MemoryError:
        error = "out-of-memory"
    row = report_row(family, n, recursor, ctx.metrics())
    row.update(error=error, wall_ms=_ms(started))
    return row


def _bench_text(rows: list) -> str:
    lines = []
    cells = {}
    for row in rows:
        cells.setdefault((row["family"], row["n"], row["recursor"]),
                         {})[row["mode"]] = row
    header = ("%-10s %-3s %-10s %-22s %s"
              % ("family", "n", "recursor", "domain / calls(plain)",
                 "domain / calls(memo)"))
    lines.append(header)
    lines.append("-" * len(header))
    for (family, n, recursor), modes in cells.items():
        lines.append("%-10s %-3s %-10s %-22s %s" % (
            family, n, recursor,
            *(_cell_text(modes.get(mode)) for mode in MODES)))
    return "\n".join(lines) + "\n"


# How the text table shows a cell that stopped early, by its error field.
_ERROR_TEXT = {"fuel-exhausted": "fuel!", "recursion-too-deep": "depth!",
               "out-of-memory": "memory!"}


def _cell_text(row) -> str:
    if row is None:
        return "-"
    if row.get("error"):
        return _ERROR_TEXT[row["error"]]
    return "%d / %d" % (row["domain_size"], row["calls"])


def cmd_check(args) -> int:
    results = checks.run_suites(args.suite, seed=args.seed, cases=args.cases)
    for res in results:
        print("%-16s passed=%-5d failed=%d"
              % (res.name, res.passed, res.failed))
        for failure in res.failures:
            print("  FAIL: %s" % failure)
    return EXIT_OK if all(r.ok for r in results) else EXIT_INVALID


def cmd_thread(args) -> int:
    _, _, control = _resolve_h(args)
    u = EMPTY
    if args.u:
        try:
            table = json.loads(args.u)
            if not all(type(v) is int for v in table.values()):
                raise ValueError
            u = PartialFn((int(k), v) for k, v in table.items())
        except (ValueError, TypeError, AttributeError):
            raise UsageError("--u wants a JSON object with integer keys and "
                             "values, got %r" % args.u) from None
    steps = args.steps if args.steps is not None else len(u) + 1
    source = extend_hat(u, args.default) if args.total else u
    trace = trace_thread(control, source, steps, args.default,
                         EvalContext(fuel=_fuel(args)))
    try:
        text = (_json_text(trace.to_json()) if args.format == "json"
                else _thread_text(trace))
    except ValueError:
        # An int longer than the interpreter writes in decimal.
        raise UsageError("the control named an index of more than %d "
                         "digits, too long to print"
                         % sys.get_int_max_str_digits()) from None
    _emit(text, args.output)
    return EXIT_OK


def _thread_text(trace) -> str:
    lines = []
    for k, step in enumerate(trace.steps):
        if step.defined:
            lines.append("step %d: index %s value %s" % (k, step.n,
                                                         step.value))
        else:
            lines.append("step %d: index %s undefined, stabilised"
                         % (k, step.n))
    lines.append("final: %s" % (trace.final.to_json(),))
    return "\n".join(lines) + "\n"


def cmd_interdef_test(args) -> int:
    rng = random.Random(args.seed)
    results = [{"case": case, "direction": direction, "agree": agree}
               for case in range(args.cases)
               for direction, law in (("sequential", checks.br_from_sbr_law),
                                      ("symmetric", checks.sbr_from_br_law))
               for agree, _ in law(rng)]
    failed = sum(not r["agree"] for r in results)
    report = {"seed": args.seed, "cases": args.cases,
              "passed": len(results) - failed, "failed": failed,
              "results": results}
    _emit(_json_text(report), args.output)
    return EXIT_OK if failed == 0 else EXIT_INVALID


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barrec",
        description="Bar recursion engines, collision extraction, and "
                    "verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("text", "csv", "json"), with_h=False):
        p.add_argument("--fuel", type=_count, default=None,
                       help="budget of recursor entries, thread steps and "
                            "the points of both printed prefixes "
                            "(env BARREC_FUEL)")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", default=None,
                       help="write to a file instead of stdout")
        if with_h:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--builtin", metavar="FAMILY:N")
            group.add_argument("--h", metavar="TEXT",
                               help="control functional in the DSL")

    p_solve = sub.add_parser("solve", help="extract and verify a collision")
    add_common(p_solve, with_h=True)
    p_solve.add_argument("--recursor", choices=RECURSORS + ("both",),
                         default="both")
    p_solve.add_argument("--mode", choices=MODES, default=PLAIN)
    p_solve.set_defaults(fn=cmd_solve)

    p_bench = sub.add_parser("bench", help="regenerate comparison tables")
    add_common(p_bench)
    p_bench.add_argument("--family", choices=FAMILIES + ("all",),
                         default="all")
    p_bench.add_argument("--n", default="",
                         help="range A..B (defaults per family)")
    p_bench.add_argument("--recursor", choices=RECURSORS + ("both",),
                         default="both")
    p_bench.set_defaults(fn=cmd_bench)

    p_check = sub.add_parser("check", help="run seeded verification suites")
    p_check.add_argument("--suite", action="append",
                         choices=tuple(checks.ALL_SUITES))
    p_check.add_argument("--cases", type=_count, default=None,
                         help="bound on every loop of each suite "
                              "(default: each suite's own)")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(fn=cmd_check)

    p_thread = sub.add_parser("thread", help="print a thread construction")
    add_common(p_thread, formats=("text", "json"), with_h=True)
    p_thread.add_argument("--u", default=None,
                          help='partial function as JSON, e.g. {"1": 1}')
    p_thread.add_argument("--steps", type=_count, default=None)
    p_thread.add_argument("--total", action="store_true",
                          help="treat the input's extension as a total "
                               "sequence (always extends)")
    p_thread.add_argument("--default", type=int, default=0)
    p_thread.set_defaults(fn=cmd_thread)

    p_inter = sub.add_parser("interdef-test",
                             help="translation differential suite")
    p_inter.add_argument("--cases", type=_count, default=200)
    p_inter.add_argument("--seed", type=int, default=0)
    p_inter.add_argument("--output", default=None)
    p_inter.set_defaults(fn=cmd_interdef_test)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_PARSE
    except FuelExhausted:
        sys.stderr.write("error: fuel exhausted\n")
        return EXIT_FUEL
    except RecursionError:
        sys.stderr.write("error: recursion too deep\n")
        return EXIT_DEPTH
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())
