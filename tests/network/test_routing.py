"""Tests for deterministic e-cube routing."""

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import ConfigurationError
from repro.core.message import Message
from repro.core.word import Word
from repro.network.fabric import Fabric
from repro.network.routing import (EJECT, INJECT, decode_key, route,
                                   route_keys)
from repro.network.topology import Mesh3D


def test_self_route_is_inject_eject():
    mesh = Mesh3D.cube(4)
    path = route(mesh, 5, 5)
    assert path == ((5, INJECT, 0), (5, EJECT, 0))


def test_route_starts_and_ends_with_ports():
    mesh = Mesh3D.cube(4)
    path = route(mesh, 0, 63)
    assert path[0] == (0, INJECT, 0)
    assert path[-1] == (63, EJECT, 0)


def test_route_length_matches_distance():
    mesh = Mesh3D.cube(8)
    path = route(mesh, 0, 511)
    assert mesh.hops(0, 511) == 21
    assert len(path) == 23


def test_dimension_order_strictly_nondecreasing():
    """e-cube: all X hops, then all Y, then all Z (deadlock freedom)."""
    mesh = Mesh3D.cube(8)
    path = route(mesh, 7, 448)
    dims = [dim for (_, dim, _) in path if dim < INJECT]
    assert dims == sorted(dims)


def test_direction_constant_within_dimension():
    mesh = Mesh3D.cube(8)
    path = route(mesh, 511, 0)
    for dim in range(3):
        dirs = {d for (_, dimension, d) in path if dimension == dim}
        assert len(dirs) <= 1


@given(st.integers(0, 511), st.integers(0, 511))
def test_route_properties_random_pairs(src, dst):
    mesh = Mesh3D.cube(8)
    path = route(mesh, src, dst)
    # Endpoints correct.
    assert path[0][0] == src and path[0][1] == INJECT
    assert path[-1][0] == dst and path[-1][1] == EJECT
    # Hop count is the Manhattan distance.
    assert len(path) - 2 == mesh.hops(src, dst)
    # Dimension order is monotone.
    dims = [dim for (_, dim, _) in path if dim < INJECT]
    assert dims == sorted(dims)
    # Simulate the walk: each channel moves one step; we must land on dst.
    x, y, z = mesh.coord(src)
    position = [x, y, z]
    for node, dim, step in path[1:-1]:
        assert mesh.node_id(tuple(position)) == node
        position[dim] += step
    assert mesh.node_id(tuple(position)) == dst


@given(st.integers(0, 511), st.integers(0, 511))
def test_channel_sequence_acyclic_order(src, dst):
    """Channels are visited in strictly increasing e-cube rank, which is
    the standard argument for deadlock freedom of dimension-order
    routing on a mesh."""
    mesh = Mesh3D.cube(8)

    def rank(channel):
        node, dim, step = channel
        x, y, z = mesh.coord(node)
        coord = (x, y, z)[dim] if dim < 3 else 0
        # Order: dimension major; within a dimension, position in the
        # direction of travel.
        position = coord if step >= 0 else (7 - coord)
        direction_bit = 0 if step >= 0 else 1
        return (dim, direction_bit, position)

    path = route(mesh, src, dst)
    mesh_channels = [c for c in path if c[1] < 3]
    ranks = [rank(c) for c in mesh_channels]
    assert ranks == sorted(ranks)


# ------------------------------------------------ integer channel keys


def _walk(mesh, src, dst, pclass):
    """The e-cube route by coordinate walk, as ``(node, dim, dir,
    pclass)``: an oracle independent of the arithmetic in route_keys."""
    here, target = list(mesh.coord(src)), mesh.coord(dst)
    path = [(src, INJECT, 0, pclass)]
    for dim in range(3):
        step = 1 if target[dim] > here[dim] else -1
        while here[dim] != target[dim]:
            path.append((mesh.node_id(tuple(here)), dim, step, pclass))
            here[dim] += step
    return path + [(dst, EJECT, 0, pclass)]


@st.composite
def meshes_and_pairs(draw):
    dims = draw(st.tuples(st.integers(1, 8), st.integers(1, 8),
                          st.integers(1, 8)))
    node = st.integers(0, dims[0] * dims[1] * dims[2] - 1)
    pairs = draw(st.lists(st.tuples(node, node, st.sampled_from([0, 1])),
                          min_size=1, max_size=12))
    return Mesh3D(*dims), pairs


@given(meshes_and_pairs())
def test_int_keys_decode_to_the_ecube_route(case):
    mesh, pairs = case
    named = {}
    for src, dst, pclass in pairs:
        keys, crosses = route_keys(mesh.dims, src, dst, pclass)
        decoded = [decode_key(key) + (pclass,) for key in keys]
        assert decoded == _walk(mesh, src, dst, pclass)
        assert tuple(d[:3] for d in decoded) == route(mesh, src, dst)
        assert len(keys) - 2 == mesh.hops(src, dst)
        assert crosses == mesh.crosses_x_midplane(src, dst)
        # Injective: one key per (node, dim, dir, pclass), and back.
        for key, channel in zip(keys, decoded):
            assert named.setdefault(channel, key) == key
    assert len(set(named.values())) == len(named)


@pytest.mark.parametrize("source, dest", [
    (-1, 3), (3, -1), (64, 3), (3, 64), (-64, 0), (0, 10**6)])
def test_send_outside_the_mesh_raises_and_stages_nothing(source, dest):
    fabric = Fabric(Mesh3D.cube(4), lambda node, message: True,
                    lambda node, message, at: None)
    message = Message([Word.ip(1), Word.from_int(0)], source=source,
                      dest=dest)
    with pytest.raises(ConfigurationError):
        fabric.send(message, 5)
    assert not fabric.active and fabric.stats.submitted == 0
    assert fabric._seq == 0 and not fabric._route_cache
    assert fabric.route_cache_misses == 0 and message.inject_time is None
