"""Tests for the link-load heat map (the observatory probe's view)."""

import random

import pytest

from repro.core.message import Message
from repro.core.word import Word
from repro.network.fabric import Fabric
from repro.network.observatory import FabricReport
from repro.network.topology import Mesh3D


def loaded_fabric(dims=(4, 4, 1), messages=200, seed=3):
    fabric = Fabric(Mesh3D(*dims), lambda n, m: True, lambda n, m, t: None)
    fabric.attach_probe()
    rng = random.Random(seed)
    n = fabric.mesh.n_nodes
    for _ in range(messages):
        src, dst = rng.randrange(n), rng.randrange(n)
        if src != dst:
            fabric.send(
                Message([Word.ip(1), Word.from_int(0)], source=src, dest=dst),
                0,
            )
    now = 0
    while fabric.active and now < 200_000:
        fabric.step(now)
        now += 1
    return fabric


def format_channel_heatmap(fabric, **where):
    return FabricReport.from_fabric(fabric, now=1).heatmap(**where)


def test_heatmap_shape():
    fabric = loaded_fabric()
    text = format_channel_heatmap(fabric, dim=0, z=0)
    rows = text.splitlines()[1:]
    assert len(rows) == 4
    assert all(len(row.split()) == 4 for row in rows)


def test_rightmost_x_column_unused():
    """No +X channel leaves the maximum-x column in a mesh."""
    fabric = loaded_fabric()
    text = format_channel_heatmap(fabric, dim=0, z=0, direction=1)
    for row in text.splitlines()[1:]:
        assert row.split()[-1] == "."


def test_peak_cell_is_nine():
    fabric = loaded_fabric()
    text = format_channel_heatmap(fabric, dim=0, z=0)
    digits = [c for row in text.splitlines()[1:] for c in row.split()
              if c != "."]
    assert "9" in digits


def test_bad_plane_rejected():
    fabric = loaded_fabric()
    with pytest.raises(ValueError):
        format_channel_heatmap(fabric, z=5)


def test_requires_tracking_gracefully():
    fabric = Fabric(Mesh3D(2, 2, 1), lambda n, m: True, lambda n, m, t: None)
    with pytest.raises(ValueError, match="attach_probe"):
        format_channel_heatmap(fabric)
    fabric.attach_probe()
    text = format_channel_heatmap(fabric)
    assert "peak 0" in text
