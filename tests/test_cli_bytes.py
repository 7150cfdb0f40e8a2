"""Byte snapshots of CLI output.

Each command's stdout must match its file under ``tests/snapshots/`` byte
for byte once ``wall_ms`` is stripped, the one field a run may change.
A refactor that means to keep every output the same is held to that here.

To re-record the snapshots after a deliberate change of output, run
``PYTHONPATH=src python tests/test_cli_bytes.py`` from the checkout.
"""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

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


if __name__ == "__main__":
    SNAPSHOTS.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        (SNAPSHOTS / name).write_text(run(argv), encoding="utf-8")
        print("wrote", SNAPSHOTS / name)
