"""Byte snapshots of CLI output.

Each command's stdout must match its file under ``tests/snapshots/`` byte
for byte once ``wall_ms`` is stripped, the one field a run may change.
A refactor that means to keep every output the same is held to that here.

JSON output must also keep ``json.dumps(indent=2)``'s layout byte for
byte, whatever document it writes.

To re-record the snapshots after a deliberate change of output, run
``PYTHONPATH=src python tests/test_cli_bytes.py`` from the checkout.
"""

import io
import json
import re
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barrec import cli
from barrec.noinjection import builtin_dsl

SNAPSHOTS = Path(__file__).resolve().parent / "snapshots"

THREAD = ["thread", "--builtin", "prod:3"]

COMMANDS = {
    "bench.txt": ["bench"],
    "bench.csv": ["bench", "--format", "csv"],
    "bench-leastinc.json": ["bench", "--family", "leastinc",
                            "--format", "json"],
    "check-seed1-cases20.txt": ["check", "--seed", "1", "--cases", "20"],
    "thread-steps4.txt": THREAD + ["--steps", "4"],
    "thread-steps4.json": THREAD + ["--steps", "4", "--format", "json"],
    "thread-total-steps10.txt": THREAD + ["--total", "--steps", "10"],
    "thread-total-steps10.json": THREAD + ["--total", "--steps", "10",
                                           "--format", "json"],
    "solve-prod6.json": ["solve", "--builtin", "prod:6", "--format", "json"],
    "solve-contrived3-dsl.json": ["solve", "--h", builtin_dsl("contrived", 3),
                                  "--format", "json"],
    "solve-leastinc30-spector.json": ["solve", "--builtin", "leastinc:30",
                                      "--recursor", "spector",
                                      "--format", "json"],
    "solve-leastinc30-dsl-spector.json": ["solve", "--h",
                                          builtin_dsl("leastinc", 30),
                                          "--recursor", "spector",
                                          "--format", "json"],
    "solve-leastinc50-symmetric.json": ["solve", "--builtin", "leastinc:50",
                                        "--recursor", "symmetric",
                                        "--format", "json"],
    "interdef-test-cases20-seed2.json": ["interdef-test", "--cases", "20",
                                         "--seed", "2"],
}


def strip_wall_ms(text: str) -> str:
    """``text`` with every ``wall_ms`` value cut out: the JSON field's
    value and the CSV's last column."""
    text = re.sub(r'("wall_ms": )[0-9.e+-]+', r"\1", text)
    return re.sub(r",[0-9.]+$", ",", text, flags=re.M)


def run(argv) -> str:
    """The stdout of ``barrec ARGV``, run in-process, without ``wall_ms``."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    return strip_wall_ms(out.getvalue())


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_snapshot(name):
    assert run(COMMANDS[name]) == \
        (SNAPSHOTS / name).read_text(encoding="utf-8")


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-10 ** 60, max_value=10 ** 60), st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0]),
    st.text(), st.sampled_from(['say "hi"', "two\nlines", "ünïcödé 日本"]))
KEYS = st.one_of(st.text(), st.sampled_from(['"', "\n", "ключ"]))
DOCUMENTS = st.recursive(
    SCALARS,
    lambda members: st.one_of(st.lists(members),
                              st.lists(members).map(tuple),
                              st.dictionaries(KEYS, members)),
    max_leaves=30)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(doc=DOCUMENTS)
def test_json_text_is_json_dumps_indent_2(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2) + "\n"


def test_large_rows_keep_the_layout_in_little_memory():
    # The two rows carry four prefixes of (5!)^2 + 1 = 14,401 points.
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["bench", "--family", "prodpow", "--n", "5",
                         "--recursor", "symmetric", "--format", "json"]) == 0
    text = out.getvalue()
    rows = json.loads(text)
    assert [len(row["alpha_prefix"]) for row in rows] == [14401, 14401]
    tracemalloc.start()
    try:
        formatted = cli._json_text(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert formatted == text == json.dumps(rows, indent=2) + "\n"
    assert peak < 6 * len(text)


if __name__ == "__main__":
    SNAPSHOTS.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        (SNAPSHOTS / name).write_text(run(argv), encoding="utf-8")
        print("wrote", SNAPSHOTS / name)
