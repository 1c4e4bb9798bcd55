"""Tests for the `python -m repro.bench` entry point."""

import subprocess
import sys


def run_bench(*artifacts):
    result = subprocess.run(
        [sys.executable, "-m", "repro.bench", *artifacts],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result


def test_single_artifact_selection():
    out = run_bench("table2").stdout
    assert "Table 2" in out
    assert "exact match" in out
    assert "Table 3" not in out  # others not selected
    assert out.rstrip().endswith("over 6 rows")  # Table 2's scorecard rows


def test_multiple_artifacts():
    out = run_bench("table2", "fig4").stdout
    assert "Table 2" in out
    assert "Figure 4" in out


def test_reports_scale_and_timing():
    """The report names its scale; timings go to stderr so the report
    itself is byte-comparable between commits."""
    result = run_bench("table2")
    assert "scale: small" in result.stdout
    assert "[table2:" in result.stderr
    assert "[table2:" not in result.stdout


def test_out_writes_report(tmp_path):
    out = tmp_path / "report.md"
    result = run_bench("table2", "--out", str(out))
    assert out.read_text() == result.stdout
