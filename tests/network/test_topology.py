"""Tests for the 3-D mesh topology."""

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import ConfigurationError
from repro.network.topology import Mesh3D


class TestNumbering:
    def test_node_count(self):
        assert Mesh3D(8, 8, 8).n_nodes == 512
        assert Mesh3D(16, 8, 8).n_nodes == 1024

    def test_origin(self):
        assert Mesh3D.cube(8).coord(0) == (0, 0, 0)

    def test_x_major_order(self):
        mesh = Mesh3D(4, 4, 4)
        assert mesh.coord(1) == (1, 0, 0)
        assert mesh.coord(4) == (0, 1, 0)
        assert mesh.coord(16) == (0, 0, 1)

    @given(st.integers(0, 511))
    def test_coord_roundtrip(self, node):
        mesh = Mesh3D.cube(8)
        assert mesh.node_id(mesh.coord(node)) == node

    def test_out_of_range_node(self):
        with pytest.raises(ConfigurationError):
            Mesh3D.cube(2).coord(8)

    def test_out_of_range_coord(self):
        with pytest.raises(ConfigurationError):
            Mesh3D.cube(2).node_id((2, 0, 0))

    def test_bad_dimensions(self):
        with pytest.raises(ConfigurationError):
            Mesh3D(0, 1, 1)


class TestForNodes:
    @pytest.mark.parametrize("n,dims", [
        (1, (1, 1, 1)), (8, (2, 2, 2)), (64, (4, 4, 4)),
        (512, (8, 8, 8)), (1024, (16, 8, 8)),
    ])
    def test_standard_shapes(self, n, dims):
        assert Mesh3D.for_nodes(n).dims == dims

    def test_nonstandard_size_factorized(self):
        mesh = Mesh3D.for_nodes(100)
        assert mesh.n_nodes == 100
        assert max(mesh.dims) <= 10

    def test_prime_size_degenerates_to_line(self):
        assert Mesh3D.for_nodes(7).dims == (7, 1, 1)

    def test_zero_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            Mesh3D.for_nodes(0)


class TestDistance:
    def test_self_distance_zero(self):
        assert Mesh3D.cube(8).hops(5, 5) == 0

    def test_corner_to_corner(self):
        assert Mesh3D.cube(8).hops(0, 511) == 21

    def test_max_hops(self):
        assert Mesh3D.cube(8).max_hops() == 21
        assert Mesh3D(16, 8, 8).max_hops() == 29

    @given(st.integers(0, 63), st.integers(0, 63))
    def test_symmetric(self, a, b):
        mesh = Mesh3D.cube(4)
        assert mesh.hops(a, b) == mesh.hops(b, a)

    @given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
    def test_triangle_inequality(self, a, b, c):
        mesh = Mesh3D.cube(4)
        assert mesh.hops(a, c) <= mesh.hops(a, b) + mesh.hops(b, c)

    def test_nodes_at_distance(self):
        mesh = Mesh3D.cube(4)
        assert mesh.nodes_at_distance(0, 0) == [0]
        neighbours = mesh.nodes_at_distance(0, 1)
        assert sorted(neighbours) == sorted(
            mesh.node_id(coord) for coord in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


class TestBisection:
    def test_channel_count(self):
        assert Mesh3D.cube(8).bisection_channels() == 64

    def test_capacity_matches_paper(self):
        capacity = Mesh3D.cube(8).bisection_capacity_bits_per_s()
        assert capacity == pytest.approx(14.4e9)

    def test_crossing_detection(self):
        mesh = Mesh3D.cube(8)
        left = mesh.node_id((0, 0, 0))
        right = mesh.node_id((7, 0, 0))
        same_side = mesh.node_id((1, 5, 5))
        assert mesh.crosses_x_midplane(left, right)
        assert not mesh.crosses_x_midplane(left, same_side)

    @given(st.integers(0, 511), st.integers(0, 511))
    def test_crossing_symmetric(self, a, b):
        mesh = Mesh3D.cube(8)
        assert mesh.crosses_x_midplane(a, b) == mesh.crosses_x_midplane(b, a)
