"""``python -m repro.bench trajectory``: render + gate the perf trend.

The CLI reads the committed BENCH_*.json trajectory artifacts and
applies the documented regression rule (newest vs the median of its
priors, only once enough priors exist) with the telemetry gate's
contract-plus-noise limit as the single source of truth.
"""

import json
import subprocess
import sys

import pytest

from repro.bench.trajectory import (LIMIT, MIN_PRIOR_POINTS, check_series,
                                    load_series, main, render, sparkline)


def _artifact(tmp_path, name, minima, snapshot=None, dirty_last=False):
    """Write a trajectory artifact with one benchmark series."""
    entries = []
    for i, value in enumerate(minima):
        entry = {
            "datetime": f"2026-08-0{i + 1}T00:00:00",
            "dirty": dirty_last and i == len(minima) - 1,
            "benchmarks": {"test_bench": {"min": value,
                                          "mean": value * 1.1}},
        }
        if snapshot is not None:
            entry["snapshot"] = snapshot
        entries.append(entry)
    path = tmp_path / name
    path.write_text(json.dumps({"benchmarks": [], "trajectory": entries}))
    return str(path)


class TestSparkline:
    def test_one_glyph_per_value(self):
        assert len(sparkline([1.0, 2.0, 3.0])) == 3
        assert sparkline([]) == ""

    def test_flat_series_is_all_low(self):
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"

    def test_rising_series_ends_high(self):
        line = sparkline([1.0, 2.0, 3.0, 4.0])
        assert line[0] == "▁" and line[-1] == "█"


class TestCheckSeries:
    def _points(self, values, dirty=False):
        return [(f"t{i}", v, dirty) for i, v in enumerate(values)]

    def test_short_series_is_ungated(self):
        verdict, _ = check_series(self._points([1.0, 1.0, 2.0]))
        assert verdict == "ungated"

    def test_newest_within_limit_is_ok(self):
        priors = [1.0] * MIN_PRIOR_POINTS
        verdict, overhead = check_series(
            self._points(priors + [1.0 + LIMIT / 2]))
        assert verdict == "ok"
        assert overhead == pytest.approx(LIMIT / 2)

    def test_newest_beyond_limit_is_regression(self):
        priors = [1.0] * MIN_PRIOR_POINTS
        verdict, overhead = check_series(
            self._points(priors + [1.0 + 2 * LIMIT]))
        assert verdict == "REGRESSION"
        assert overhead == pytest.approx(2 * LIMIT)

    def test_median_not_best_prior(self):
        # One lucky early measurement must not condemn later runs: the
        # newest point is well above the *minimum* prior but right at
        # the median, so it passes.
        priors = [0.5, 1.0, 1.0, 1.0]
        verdict, overhead = check_series(self._points(priors + [1.0]))
        assert verdict == "ok"
        assert overhead == pytest.approx(0.0)

    def test_missing_values_skipped(self):
        points = self._points([1.0, None, 1.0, 1.0, 1.0])
        verdict, _ = check_series(points)
        assert verdict == "ok"


    def test_series_the_newest_run_lacks_has_ended(self):
        # A deleted benchmark's last point is stale, not a regression.
        points = self._points([1.0] * MIN_PRIOR_POINTS + [2.0, None])
        assert check_series(points) == ("ended", None)


class TestLoadSeries:
    def test_benchmarks_and_snapshot_partition(self, tmp_path):
        snapshot = {"macro": {"bytes": 1000, "save_s": 0.01,
                              "restore_s": 0.02}}
        path = _artifact(tmp_path, "a.json", [1.0, 2.0],
                         snapshot=snapshot)
        gated, info = load_series(path)
        assert set(gated) == {"test_bench", "snapshot.macro.bytes"}
        assert set(info) == {"snapshot.macro.save_s",
                             "snapshot.macro.restore_s"}
        assert [v for _s, v, _d in gated["test_bench"]] == [1.0, 2.0]

    def test_retired_benchmark_is_padded_not_dropped(self, tmp_path):
        """One point per run from a series' first appearance on, so a
        benchmark that stops reporting ends with ``None`` instead of
        passing off its last measurement as the newest."""
        entries = [{"datetime": f"2026-08-0{i + 1}T00:00:00",
                    "benchmarks": {name: {"min": 1.0} for name in names}}
                   for i, names in enumerate(
                       [["kept"], ["kept", "retired"], ["kept", "retired"],
                        ["kept"]])]
        path = tmp_path / "retired.json"
        path.write_text(json.dumps({"trajectory": entries}))
        gated, _ = load_series(str(path))
        assert [v for _s, v, _d in gated["kept"]] == [1.0] * 4
        assert [v for _s, v, _d in gated["retired"]] == [1.0, 1.0, None]
        text, status = render(str(path))
        assert status == 0
        assert [line.split()[-1] for line in text.splitlines()
                if line.startswith("retired")] == ["ended"]

    def test_empty_trajectory_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"trajectory": []}))
        with pytest.raises(ValueError):
            load_series(str(path))


class TestMain:
    def test_clean_artifact_exits_zero(self, tmp_path, capsys):
        path = _artifact(tmp_path, "ok.json",
                         [1.0] * (MIN_PRIOR_POINTS + 1))
        assert main([path]) == 0
        out = capsys.readouterr().out
        assert "test_bench" in out and "ok" in out

    def test_regression_exits_one(self, tmp_path, capsys):
        path = _artifact(tmp_path, "bad.json",
                         [1.0] * MIN_PRIOR_POINTS + [2.0])
        assert main([path]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_no_gate_flag_reports_but_passes(self, tmp_path, capsys):
        path = _artifact(tmp_path, "bad.json",
                         [1.0] * MIN_PRIOR_POINTS + [2.0])
        assert main(["--no-gate", path]) == 0
        assert "REGRESSION" in capsys.readouterr().out

    def test_stale_regression_of_an_ended_series_does_not_gate(
            self, tmp_path, capsys):
        path = _artifact(tmp_path, "ended.json",
                         [1.0] * MIN_PRIOR_POINTS + [2.0])
        data = json.loads(open(path).read())
        data["trajectory"].append({"datetime": "2026-08-09T00:00:00",
                                   "benchmarks": {"other": {"min": 1.0}}})
        open(path, "w").write(json.dumps(data))
        assert main([path]) == 0
        assert "REGRESSION" not in capsys.readouterr().out

    def test_unreadable_artifact_exits_two(self, tmp_path):
        assert main([str(tmp_path / "missing.json")]) == 2

    def test_dirty_marker_rendered(self, tmp_path):
        path = _artifact(tmp_path, "dirty.json", [1.0, 1.0],
                         dirty_last=True)
        text, status = render(path)
        assert status == 0
        assert "dirty tree" in text

    def test_committed_artifacts_pass_the_gate(self):
        """The repo's own history must be green (the CLI's defaults)."""
        result = subprocess.run(
            [sys.executable, "-m", "repro.bench", "trajectory"],
            capture_output=True, text=True, cwd=".")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "BENCH_simspeed.json" in result.stdout
