"""Contention-model calibration against the flit-level fabric.

docs/OBSERVABILITY.md §8: :func:`repro.jsim.calibrate.calibrate` sweeps
the random-traffic experiment at several offered loads with a fabric
probe attached, then fits the macro model's ``contention_scale`` in
closed form from the observed midplane utilization.  These tests pin
the fit algebra and the result plumbing on a small, fast sweep.
"""

import pytest

from repro.jsim.calibrate import (CalibrationPoint, CalibrationResult,
                                  calibrate)
from repro.jsim.netmodel import CONTENTION_CAP, LatencyModel
from repro.network.topology import Mesh3D


def _point(idle, utilization, measured, base=20.0, hops=3.0, words=8):
    return CalibrationPoint(idle_cycles=idle, message_words=words,
                            utilization=utilization, mean_hops=hops,
                            measured_latency=measured, base_latency=base)


class TestFitAlgebra:
    def test_exact_linear_data_recovers_scale(self):
        # residual = 5 * u/(1-u) exactly at every point -> scale = 5.
        points = [_point(0, 0.5, 20.0 + 5.0 * 1.0),
                  _point(200, 0.25, 20.0 + 5.0 * (0.25 / 0.75)),
                  _point(1000, 0.1, 20.0 + 5.0 * (0.1 / 0.9))]
        num = sum(p.residual * p.x for p in points)
        den = sum(p.x * p.x for p in points)
        result = CalibrationResult(points=points, scale=num / den,
                                   default_scale=8.0, cap=2000.0)
        assert result.scale == pytest.approx(5.0)
        assert result.residuals(result.scale) == pytest.approx([0, 0, 0])

    def test_regressor_clamps_near_saturation(self):
        # u -> 1 would make u/(1-u) explode; the point clamps at 0.95.
        assert _point(0, 0.999, 50.0).x == pytest.approx(0.95 / 0.05)

    def test_predict_respects_cap(self):
        point = _point(0, 0.95, 500.0)
        result = CalibrationResult(points=[point], scale=1000.0,
                                   default_scale=8.0, cap=30.0)
        assert result.predict(point) == point.base_latency + 30.0

    def test_apply_installs_fitted_scale(self):
        model = LatencyModel(Mesh3D(4, 4, 1))
        result = CalibrationResult(points=[], scale=13.5,
                                   default_scale=model.contention_scale,
                                   cap=CONTENTION_CAP)
        assert result.apply(model) is model
        assert model.contention_scale == 13.5

    def test_format_prints_every_point_and_rms(self):
        points = [_point(0, 0.5, 40.0), _point(200, 0.2, 28.0),
                  _point(1000, 0.1, 22.0)]
        result = CalibrationResult(points=points, scale=6.0,
                                   default_scale=8.0, cap=2000.0)
        text = result.format()
        assert "3 flit-measured load points" in text
        assert "8.00 (default) -> 6.00 (fitted)" in text
        assert "rms residual:" in text
        for point in points:
            assert f"{point.idle_cycles:>6}" in text


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def result(self):
        # Small mesh / short windows: seconds, not the CLI's full sweep.
        return calibrate(mesh=Mesh3D(4, 2, 1), idle_points=(0, 400),
                         warmup_cycles=400, measure_cycles=1200)

    def test_measures_every_load_point(self, result):
        assert [p.idle_cycles for p in result.points] == [0, 400]
        for point in result.points:
            assert 0.0 < point.utilization < 1.0
            assert point.mean_hops > 0
            assert point.measured_latency > point.base_latency > 0

    def test_load_ordering(self, result):
        # Less idle time = more offered load = higher utilization.
        assert result.points[0].utilization > result.points[1].utilization

    def test_fit_is_nonnegative_and_no_worse(self, result):
        assert result.scale >= 0.0
        rms = lambda r: (sum(v * v for v in r) / len(r)) ** 0.5  # noqa: E731
        assert (rms(result.residuals(result.scale))
                <= rms(result.residuals(result.default_scale)) + 1e-9)

    def test_model_defaults_unchanged_by_calibration(self, result):
        # Calibration measures; it only mutates a model via apply().
        assert LatencyModel(Mesh3D(4, 4, 2)).contention_scale == 8.0
