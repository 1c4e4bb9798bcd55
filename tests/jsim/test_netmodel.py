"""Tests for the analytic contention network model."""

import random

import pytest

from repro.core.errors import ConfigurationError
from repro.jsim import netmodel
from repro.jsim.calibrate import CalibrationResult
from repro.jsim.netmodel import (CONTENTION_CAP, CONTENTION_SCALE,
                                 INTERFACE_CYCLES, LatencyModel)
from repro.network.topology import Mesh3D


def model(dims=(4, 4, 4)):
    return LatencyModel(Mesh3D(*dims))


def test_latency_grows_with_distance():
    m = model()
    near = m.latency(0, 1, 4, now=0)
    far = m.latency(0, 63, 4, now=0)
    assert far > near


def test_latency_grows_with_length():
    m = model()
    short = m.latency(0, 1, 2, now=0)
    long_ = m.latency(0, 1, 16, now=0)
    assert long_ == short + 28  # 14 extra words at 2 cycles each


def test_self_message_cheapest():
    m = model()
    assert m.latency(0, 0, 2, now=0) <= m.latency(0, 1, 2, now=0)


def test_contention_raises_crossing_latency():
    quiet = model()
    baseline = quiet.latency(0, 3, 8, now=0)
    busy = model()
    # Saturate the meter with crossing traffic.
    for i in range(3000):
        busy.latency(0, 3, 8, now=i // 4)
    loaded = busy.latency(0, 3, 8, now=750)
    assert loaded > baseline


def test_noncrossing_traffic_mostly_unaffected():
    busy = model()
    for i in range(3000):
        busy.latency(0, 3, 8, now=i // 4)
    local = busy.latency(0, 1, 8, now=750)
    crossing = busy.latency(0, 3, 8, now=750)
    assert local < crossing


def test_saturation_queues_messages():
    """Offered load beyond capacity produces growing queueing delay."""
    m = model((2, 2, 1))  # tiny bisection
    delays = [m.latency(0, 1, 16, now=0) for _ in range(50)]
    assert delays[-1] > delays[0]


def test_counts_crossing_messages():
    """Only traffic across the X midplane fills the utilization bucket."""
    m = model()
    m.latency(0, 1, 4, now=0)   # same side
    assert m._bucket_words == 0
    m.latency(0, 3, 4, now=0)   # crosses
    assert m._bucket_words == 4


# ------------------------------------------------------- the distance rows


def _row_matches_mesh(m, src):
    mesh, hop = m.mesh, m.costs.hop
    row = m._build_row(src)
    assert len(row) == mesh.n_nodes
    for dst, packed in enumerate(row):
        assert packed >> 1 == INTERFACE_CYCLES + hop * mesh.hops(src, dst)
        assert bool(packed & 1) == mesh.crosses_x_midplane(src, dst)


def test_rows_equal_mesh_distance_for_all_pairs_of_the_prototype():
    m = model((8, 8, 8))
    for src in range(512):
        _row_matches_mesh(m, src)


@pytest.mark.parametrize("dims, sources", [
    ((16, 8, 8), [0, 7, 8, 15, 16, 511, 512, 777, 1023]),
    ((3, 1, 1), range(3)),          # odd X: the midplane is off-centre
    ((5, 3, 2), range(30)),
])
def test_rows_equal_mesh_distance(dims, sources):
    m = model(dims)
    for src in sources:
        _row_matches_mesh(m, src)


def test_rows_are_built_on_first_send_only():
    m = model()
    assert not m._rows
    m.latency(5, 6, 2, now=0)
    m.latency(5, 60, 2, now=0)
    assert list(m._rows) == [5]


def test_contention_scale_is_per_model():
    """The calibrator installs its fit on one live model; another model
    of the shape keeps the default scale's latencies."""
    def latencies(m):
        return [m.latency(0, 3, 8, now=i // 4) for i in range(2000)]

    fitted = CalibrationResult(points=[], scale=40.0,
                               default_scale=CONTENTION_SCALE,
                               cap=CONTENTION_CAP).apply(model())
    loaded = latencies(fitted)
    assert latencies(model()) == latencies(model()) != loaded


@pytest.mark.parametrize("src, dst", [
    (0, 64), (64, 0), (0, -1), (-1, 0), (3, 1000), (-64, -64),
])
def test_node_outside_the_mesh_rejected(src, dst):
    """A negative index must not silently wrap into a row."""
    m = model()
    m.latency(0, 1, 2, now=0)
    with pytest.raises(ConfigurationError):
        m.latency(src, dst, 2, now=0)
    assert set(m._rows) == {0}


def test_benchmark_latency_sum_unchanged():
    """``macro_apps``' ``netmodel`` unit at the default seed: 50 000
    seeded pairs on 8x8x8, four words each, three cycles apart
    (pinned as ``latency_sum`` in benchmarks/e2e/expected.json)."""
    rng = random.Random("1993/macro_apps")
    for _ in range(3):
        rng.getrandbits(31)          # the LCS and two radix seeds
    m = model((8, 8, 8))
    now = total = 0
    for _ in range(50_000):
        total += m.latency(rng.randrange(512), rng.randrange(512), 4, now)
        now += 3
    assert total == 1_242_837


def test_utilization_bits_unchanged(monkeypatch):
    """The utilization window's float expressions, bit for bit.  The
    integer latencies above truncate its last bits away (the benchmark
    sum survives ``a / b / c`` rewritten as ``a / c / b``); with a
    contention scale of 2**60 and no cap every bit of ``u`` reaches the
    result.  Pinned from the two-function model this one inlines."""
    monkeypatch.setattr(netmodel, "CONTENTION_CAP", float("inf"))
    rng = random.Random("1993/macro_apps")
    for _ in range(3):
        rng.getrandbits(31)
    m = model((8, 8, 8))
    m.contention_scale = 2.0 ** 60
    now = total = 0
    for _ in range(20_000):
        total += m.latency(rng.randrange(512), rng.randrange(512), 4, now)
        now += 3
    assert total == 221_293_731_652_575_097_767
