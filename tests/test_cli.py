"""Command-line behaviour: formats, determinism, exit codes."""

import csv
import json
import os
import subprocess
import sys

import pytest

from barrec import checks, cli
from conftest import child_env


def run_main(args, capsys):
    rc = cli.main(args)
    out = capsys.readouterr().out
    return rc, out


def test_solve_builtin_text(capsys):
    rc, out = run_main(["solve", "--builtin", "prod:4", "--recursor",
                        "both"], capsys)
    assert rc == 0
    assert "domain=17" in out and "domain=1" in out
    assert "valid=True" in out


def test_solve_dsl_symmetric(capsys):
    rc, out = run_main(["solve", "--h", "prod i < 5 : 1 + g(i)",
                        "--recursor", "symmetric"], capsys)
    assert rc == 0
    assert "i=32" in out and "domain=1" in out


def test_solve_parse_error_exit_2(capsys):
    rc = cli.main(["solve", "--h", "prod i <", "--recursor", "both"])
    assert rc == 2


@pytest.mark.parametrize("h", [
    "(" * 300 + "1" + ")" * 300,
    "if " + "not " * 2000 + "1 < 0 then 1 else 0",
], ids=["parentheses", "not"])
def test_solve_deeply_nested_dsl_exit_2(h, capsys):
    assert cli.main(["solve", "--h", h]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("h", [
    "+".join("g(%d)" % i for i in range(101)),
    "-".join(["1"] * 50000),
], ids=["101-terms", "50000-terms"])
def test_solve_long_operator_chain(h, capsys):
    assert cli.main(["solve", "--h", h, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["valid"] for r in rows] == [True, True]


def test_solve_fuel_exit_3(capsys):
    rc = cli.main(["solve", "--builtin", "prod:6", "--fuel", "5"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err == "error: fuel exhausted\n"
    assert captured.out == ""


def test_solve_too_deep_recursion_exit_5(capsys):
    # The sequential solver recurses once per carrier slot, and a control
    # answering 8000 wants 8001 of them.
    rc = cli.main(["solve", "--h", "8000", "--recursor", "spector"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_DEPTH == 5
    assert captured.err == "error: recursion too deep\n"
    assert captured.out == ""


def test_solve_csv_schema(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    rc = cli.main(["solve", "--builtin", "leastinc:3", "--recursor", "both",
                   "--format", "csv", "--output", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == list(cli.CSV_COLUMNS)
    assert len(rows) == 3
    assert rows[1][0] == "leastinc" and rows[1][2] == "spector"
    assert rows[2][4] == "4"  # symmetric domain size


def _strip_wall_csv(text):
    rows = [line.rsplit(",", 1)[0] for line in text.strip().splitlines()]
    return "\n".join(rows)


def _strip_wall_json(text):
    data = json.loads(text)
    for row in data:
        row.pop("wall_ms", None)
    return data


def test_bench_csv_deterministic(tmp_path):
    paths = []
    for k in (0, 1):
        p = tmp_path / ("bench%d.csv" % k)
        rc = cli.main(["bench", "--family", "leastinc", "--n", "3..4",
                       "--format", "csv", "--output", str(p)])
        assert rc == 0
        paths.append(p)
    a, b = (path.read_text() for path in paths)
    assert _strip_wall_csv(a) == _strip_wall_csv(b)
    header = a.splitlines()[0].split(",")
    assert header == list(cli.CSV_COLUMNS)
    modes = {line.split(",")[3] for line in a.splitlines()[1:]}
    assert modes == {"plain", "memoized"}


def test_bench_json_deterministic(tmp_path):
    datas = []
    for k in (0, 1):
        p = tmp_path / ("bench%d.json" % k)
        rc = cli.main(["bench", "--family", "prod", "--n", "4..4",
                       "--format", "json", "--output", str(p)])
        assert rc == 0
        datas.append(_strip_wall_json(p.read_text()))
    assert datas[0] == datas[1]
    spector = [r for r in datas[0] if r["recursor"] == "spector"][0]
    assert spector["domain_size"] == 17
    assert spector["alpha_prefix"][16] == 2


def test_bench_csv_and_json_numeric_content_agree(tmp_path):
    pc = tmp_path / "b.csv"
    pj = tmp_path / "b.json"
    cli.main(["bench", "--family", "contrived", "--n", "2..3",
              "--format", "csv", "--output", str(pc)])
    cli.main(["bench", "--family", "contrived", "--n", "2..3",
              "--format", "json", "--output", str(pj)])
    rows = list(csv.DictReader(pc.read_text().splitlines()))
    data = _strip_wall_json(pj.read_text())
    for crow, jrow in zip(rows, data):
        for key in ("family", "n", "recursor", "mode", "domain_size",
                    "calls", "i"):
            assert str(jrow[key]) == crow[key]


def test_bench_text_shows_only_measured_counts(capsys):
    rc, out = run_main(["bench", "--family", "prodpow"], capsys)
    assert rc == 0
    assert "prodpow    3   spector    37 / 39                37 / 39\n" in out
    assert "577 / 2350" not in out and "(?)" not in out


def test_bench_non_integer_range_exit_2(capsys):
    # Negative bounds too: there is no index -1 to report a collision at.
    for text in ("x", "-1", "-3..2"):
        rc = cli.main(["bench", "--n=" + text])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: --n") and err.count("\n") == 1


def test_bench_keeps_rows_when_a_cell_recurses_too_deep(capsys):
    # prodpow:5 wants a carrier of thousands of slots on the sequential
    # solver, more frames than the interpreter allows.
    rc, out = run_main(["bench", "--recursor", "spector", "--family",
                        "prodpow", "--n", "4..5", "--format", "csv"], capsys)
    assert rc == 0
    rc4, out4 = run_main(["bench", "--recursor", "spector", "--family",
                          "prodpow", "--n", "4", "--format", "csv"], capsys)
    assert rc4 == 0
    rows = _strip_wall_csv(out).splitlines()
    assert rows[:3] == _strip_wall_csv(out4).splitlines()
    assert len(rows) == 5
    assert [row.split(",")[-1] for row in rows[1:3]] == ["", ""]
    for row in rows[3:]:
        family, n, _, _, domain, calls, i, valid, error = row.split(",")
        assert (family, n, domain, i, valid) == ("prodpow", "5", "", "", "")
        assert error == "recursion-too-deep"
        assert int(calls) > 0
    # With less fuel the same cell runs out of fuel first.
    rc, out = run_main(["bench", "--recursor", "spector", "--family",
                        "prodpow", "--n", "5", "--fuel", "100", "--format",
                        "csv"], capsys)
    assert rc == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert [(r["mode"], r["calls"], r["valid"], r["error"]) for r in rows] \
        == [("plain", "100", "", "fuel-exhausted"),
            ("memoized", "100", "", "fuel-exhausted")]


# prod:12 on the demand-driven solver makes 3 calls and walks no thread but
# names i = 4096, so its report reads 4,097 points of each of the two
# printed prefixes.  The fuel left after the solve must cover both: 8,197
# in all.
PROD12_SYMMETRIC = ["--family", "prod", "--n", "12", "--recursor",
                    "symmetric", "--format", "csv"]


def test_fuel_bounds_the_printed_prefix(capsys):
    argv = ["solve", "--builtin", "prod:12", "--recursor", "symmetric",
            "--format", "csv"]
    assert cli.main(argv + ["--fuel", "4000"]) == 3
    assert capsys.readouterr().err == "error: fuel exhausted\n"
    assert cli.main(argv + ["--fuel", "8196"]) == 3
    assert capsys.readouterr().err == "error: fuel exhausted\n"
    assert cli.main(argv + ["--fuel", "8197"]) == 0
    capsys.readouterr()
    rc, out = run_main(["bench", "--fuel", "4000"] + PROD12_SYMMETRIC, capsys)
    assert rc == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert [(r["i"], r["error"]) for r in rows] \
        == [("", "fuel-exhausted")] * 2


@pytest.mark.parametrize("fuel, i, error", [("8196", "", "fuel-exhausted"),
                                            ("8197", "4096", "")])
def test_bench_fuel_covers_both_printed_prefixes(fuel, i, error, capsys):
    rc, out = run_main(["bench", "--fuel", fuel] + PROD12_SYMMETRIC, capsys)
    assert rc == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert [(r["calls"], r["i"], r["error"]) for r in rows] \
        == [("3", i, error)] * 2


def test_bench_text_marks_error_rows():
    def row(mode, error):
        return {"family": "prodpow", "n": 5, "recursor": "spector",
                "mode": mode, "domain_size": None, "calls": 7, "i": None,
                "error": error}
    text = cli._bench_text([row("plain", "recursion-too-deep"),
                            row("memoized", "fuel-exhausted")])
    assert text.splitlines()[2].split()[3:5] == ["depth!", "fuel!"]
    text = cli._bench_text([row("plain", "out-of-memory")])
    assert text.splitlines()[2].split()[3:5] == ["memory!", "-"]


@pytest.mark.parametrize("n", ["6..4", "3.."])
def test_bench_empty_range_exit_2(n, capsys):
    rc, out = run_main(["bench", "--n", n], capsys)
    assert rc == 2
    assert out == ""


def test_thread_non_integer_index_exit_2(capsys):
    rc = cli.main(["thread", "--h", "g(0)", "--u", '{"a": 3}'])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: --u") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["Infinity", "1e999", "2.9", "true"])
def test_thread_non_integer_value_exit_2(value, capsys):
    rc = cli.main(["thread", "--builtin", "prod:2", "--u",
                   '{"0": %s}' % value])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --u wants ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("extra", [
    ["--steps", "1"], ["--steps", "1", "--format", "json"],
    ["--total", "--steps", "2"],
    ["--total", "--steps", "2", "--format", "json"],
], ids=["text", "json", "total-text", "total-json"])
def test_thread_index_too_long_to_print_exit_2(extra, capsys):
    # The control names 10^5000, longer than str() converts.
    rc = cli.main(["thread", "--h", "10 ^ 5000", *extra])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == ("error: the control named an index of more than "
                            "%d digits, too long to print\n"
                            % sys.get_int_max_str_digits())


@pytest.mark.parametrize("argv", [
    ["thread", "--builtin", "prod:3", "--steps", "-4"],
    ["check", "--cases", "-3"],
    ["interdef-test", "--cases", "-2"],
    ["solve", "--builtin", "prod:4", "--fuel", "-1"],
    ["bench", "--family", "prod", "--n", "4", "--fuel", "-1"],
])
def test_negative_count_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "non-negative integer" in captured.err


@pytest.mark.parametrize("suite", list(checks.ALL_SUITES))
def test_check_subcommand(suite, capsys):
    rc, out = run_main(["check", "--suite", suite, "--cases", "3",
                        "--seed", "1"], capsys)
    assert rc == 0
    assert suite in out and "failed=0" in out


def _suite_counts(out):
    counts = {}
    for line in out.splitlines():
        name, passed, failed = line.split()
        counts[name] = (int(passed.split("=")[1]), int(failed.split("=")[1]))
    return counts


def test_check_cases_0_runs_nothing(capsys):
    rc, out = run_main(["check", "--cases", "0"], capsys)
    assert rc == 0
    assert _suite_counts(out) == {name: (0, 0) for name in checks.ALL_SUITES}


def test_check_cases_bounds_the_builtin_and_staged_loops(capsys):
    # One generated case, one built-in cell, one staged thread case and
    # one DSL family on one sequence.
    rc, out = run_main(["check", "--seed", "1", "--cases", "1"], capsys)
    assert rc == 0
    counts = _suite_counts(out)
    for name, most in (("spector", 4), ("counterexamples", 4),
                       ("interdef", 6), ("dsl", 2)):
        assert 0 < counts[name][0] <= most and counts[name][1] == 0, name


def test_check_counts_a_law_that_raises_as_one_failure(monkeypatch, capsys):
    def raising(rng):
        yield True, "passes"
        raise ZeroDivisionError("no solution")

    monkeypatch.setattr(checks, "choice_law", raising)
    rc, out = run_main(["check", "--suite", "threads", "--suite", "spector",
                        "--cases", "3"], capsys)
    assert rc == 4
    lines = out.splitlines()
    assert lines[0].split()[0] == "threads" and lines[0].endswith("failed=0")
    # Each case passes once and raises once; each built-in cell passes
    # twice.
    assert lines[1].split() == ["spector", "passed=9", "failed=3"]
    assert lines[2:] == ["  FAIL: case %d: raised ZeroDivisionError: no "
                         "solution" % k for k in range(3)]


def test_check_stops_with_exit_6_when_a_law_runs_out_of_memory(
        monkeypatch, capsys):
    def exhausting(rng):
        yield True, "passes"
        raise MemoryError

    monkeypatch.setattr(checks, "roundtrip_law", exhausting)
    rc = cli.main(["check", "--suite", "dsl", "--cases", "1"])
    out, err = capsys.readouterr()
    assert (rc, out, err) == (cli.EXIT_MEMORY, "", "error: out of memory\n")


def test_thread_subcommand_json(capsys):
    rc, out = run_main(["thread", "--h", "g(0)", "--u", '{"0": 3}',
                        "--steps", "4", "--format", "json"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["final"] == {"0": 3}
    assert data["steps"][0]["n"] == 0


def test_thread_format_csv_exit_2(capsys):
    # thread prints text or JSON only, so it refuses csv rather than
    # printing the text trace under that name.
    with pytest.raises(SystemExit) as exc:
        cli.main(["thread", "--builtin", "prod:3", "--format", "csv"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "invalid choice: 'csv'" in captured.err


def test_thread_total_flag(capsys):
    rc, out = run_main(["thread", "--h", "g(0)", "--u", '{"0": 2, "2": 9}',
                        "--steps", "4", "--total", "--format", "json"],
                       capsys)
    assert rc == 0
    data = json.loads(out)
    # Always-extends: index 0 holds 2, the control then names index 2.
    assert data["final"] == {"0": 2, "2": 9}


def test_interdef_test_subcommand(tmp_path):
    p = tmp_path / "inter.json"
    rc = cli.main(["interdef-test", "--cases", "10", "--seed", "4",
                   "--output", str(p)])
    assert rc == 0
    data = json.loads(p.read_text())
    assert data["passed"] == 20 and data["failed"] == 0
    assert len(data["results"]) == 20


def test_unwritable_output_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert cli.main(["interdef-test", "--cases", "1",
                     "--output", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --output: ") and err.count("\n") == 1
    assert not target.exists()


def test_failed_verification_exit_4(monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_counterexample",
                        lambda h, c: False)
    rc = cli.main(["solve", "--builtin", "prod:4", "--recursor",
                   "symmetric"])
    assert rc == 4


def test_thread_fuel_exit_3(capsys):
    args = ["thread", "--builtin", "prod:3", "--total", "--steps", "10"]
    assert cli.main(args + ["--fuel", "1"]) == 3
    assert cli.main(args + ["--fuel", "2"]) == 0


def test_malformed_env_fuel_exit_2(monkeypatch, capsys):
    monkeypatch.setenv("BARREC_FUEL", "abc")
    assert cli.main(["solve", "--builtin", "prod:4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: BARREC_FUEL")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["solve", "--builtin", "prod:4"],
    ["bench", "--family", "prod", "--n", "4", "--format", "csv"],
])
def test_negative_env_fuel_exit_2(argv, monkeypatch, capsys):
    monkeypatch.setenv("BARREC_FUEL", "-1")
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: BARREC_FUEL wants a non-negative "
                            "integer, got '-1'\n")


@pytest.mark.parametrize("argv, env_fuel", [
    (["solve", "--builtin", "prod:\u00b2"], None),
    (["solve", "--builtin="], None),
    (["solve", "--builtin", "prod:4"], "\u00b2"),
    (["solve", "--h", "g(0) + " + "1" * 5000], None),
    (["solve", "--builtin", "prod:" + "1" * 5000], None),
], ids=["superscript-n", "empty-builtin", "superscript-env-fuel",
        "5000-digit-dsl-numeral", "5000-digit-builtin-n"])
def test_digit_like_or_empty_text_exit_2(argv, env_fuel, monkeypatch,
                                         capsys):
    # "\u00b2".isdigit() holds, but int() refuses it, as it refuses
    # decimal text longer than sys.get_int_max_str_digits().
    if env_fuel is not None:
        monkeypatch.setenv("BARREC_FUEL", env_fuel)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_zero_fuel_exit_3(capsys):
    assert cli.main(["solve", "--builtin", "prod:4", "--fuel", "0"]) == 3
    assert capsys.readouterr().err == "error: fuel exhausted\n"


@pytest.mark.parametrize("argv", [
    ["solve", "--builtin", "prod:4", "--fuel", "1000"],
    ["check", "--suite", "dsl", "--cases", "1"],
    ["interdef-test", "--cases", "1", "--output", os.devnull],
])
def test_malformed_env_fuel_ignored_when_unused(argv, monkeypatch, capsys):
    monkeypatch.setenv("BARREC_FUEL", "abc")
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""


def test_env_var_fuel(tmp_path):
    script = ("import sys; from barrec import cli; "
              "sys.exit(cli.main(['solve', '--builtin', 'prod:6']))")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=child_env(BARREC_FUEL="5"),
                          capture_output=True, text=True)
    assert proc.returncode == 3


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "barrec.cli", "solve",
                           "--builtin", "contrived:3", "--recursor", "both"],
                          env=child_env(), capture_output=True, text=True)
    assert proc.returncode == 0
    assert "valid=True" in proc.stdout
