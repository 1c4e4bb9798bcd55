"""Tests for the binomial tree shape radix sort and the runtime's
reduction combine over."""

import subprocess
import sys

from hypothesis import given, strategies as st

from repro.network.topology import binomial_children, binomial_parent


class TestTreeShape:
    def test_root_has_no_parent(self):
        assert binomial_parent(0) is None

    def test_parent_examples(self):
        assert binomial_parent(1) == 0
        assert binomial_parent(2) == 0
        assert binomial_parent(3) == 2
        assert binomial_parent(6) == 4
        assert binomial_parent(12) == 8

    def test_children_examples(self):
        assert binomial_children(0, 8) == [1, 2, 4]
        assert binomial_children(4, 8) == [5, 6]
        assert binomial_children(3, 8) == []

    @given(st.integers(1, 1023))
    def test_parent_child_consistency(self, node):
        parent = binomial_parent(node)
        assert node in binomial_children(parent, 1024)

    @given(st.integers(2, 200))
    def test_tree_spans_every_node(self, n_nodes):
        reached = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for child in binomial_children(node, n_nodes):
                assert child not in reached
                reached.add(child)
                frontier.append(child)
        assert reached == set(range(n_nodes))


def test_cycle_level_reduction_loads_no_macro_module():
    """The runtime's tree is the one in the topology, not a jsim copy."""
    probe = ("import sys, repro.runtime.reduce; "
             "print(sorted(m for m in sys.modules if m.startswith('repro.jsim')))")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"
