"""Tests for the `python -m repro.machine` CLI."""

import pathlib
import subprocess
import sys

import pytest

FIB = """
main:
    MOVE #0, R0
    MOVE #1, R1
    MOVE #9, R2
fib:
    ADD R0, R1, R3
    MOVE R1, R0
    MOVE R3, R1
    SUB R2, #1, R2
    BT R2, fib
    MOVE R1, [A0+0]
    HALT
"""

ECHO = """
echo:
    MOVE [A3+1], R0
    SUSPEND
"""


@pytest.fixture
def program_file(tmp_path):
    def write(source):
        path = tmp_path / "prog.s"
        path.write_text(source)
        return str(path)

    return write


def run_cli(*args):
    result = subprocess.run(
        [sys.executable, "-m", "repro.machine", *args],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_runs_background_main(program_file):
    out = run_cli(program_file(FIB), "--nodes", "2")
    assert "background thread 'main'" in out
    assert "finished at cycle" in out


def test_trace_prints_instructions(program_file):
    out = run_cli(program_file(FIB), "--nodes", "2", "--trace", "0")
    assert "ADD R0, R1, R3" in out
    assert "BACKGROUND" in out


def test_inject_runs_handler(program_file):
    out = run_cli(program_file(ECHO), "--nodes", "4",
                  "--inject", "2:echo:5", "--max-cycles", "10000")
    assert "injected echo([5]) to node 2" in out
    assert "instructions: 2" in out  # MOVE + SUSPEND ran somewhere


def test_dump_shows_memory(program_file):
    source = """
main:
    HALT
table: .word 11, 22
"""
    out = run_cli(program_file(source), "--nodes", "2",
                  "--dump", "200:2")
    assert "[200]" in out


@pytest.mark.parametrize("args", [
    ("--trace", "5"),          # past the last node
    ("--trace", "-1"),         # would index the last node from the end
    ("--inject", "9:main"),
    ("--dump", "5"),           # no COUNT
    ("--nodes", "0"),
])
def test_bad_arguments_are_usage_errors(program_file, args):
    """Node ids are checked against the mesh and ``--dump`` against its
    ``BASE:COUNT`` shape before anything runs: exit 2, a usage line,
    no traceback."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.machine",
         program_file(FIB), "--nodes", "2", *args],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("usage:")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""
