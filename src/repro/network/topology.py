"""3-D mesh topology: node numbering, coordinates, and bisection geometry.

The J-Machine network is a three-dimensional mesh (not a torus): the
512-node prototype is an 8 x 8 x 8 cube; the planned 1024-node machine a
16 x 8 x 8 stack (Section 2.2).  Nodes are numbered x-major::

    id = x + X * (y + Y * z)

Channels are full duplex: each neighbouring node pair is joined by one
unidirectional channel in each direction per dimension.  Following the
paper's accounting, the *bisection capacity* counts the channels crossing
the machine's X midplane in a single direction — for the 8x8x8 machine
that is 64 channels at 0.5 words/cycle and 36 bits/word, i.e. 14.4
Gbits/sec at 12.5 MHz.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.costs import CLOCK_HZ, DEFAULT_COSTS, WORD_BITS
from ..core.errors import ConfigurationError

__all__ = ["Mesh3D", "Coord", "binomial_parent", "binomial_children"]

Coord = Tuple[int, int, int]


class Mesh3D:
    """A 3-D mesh of ``X * Y * Z`` nodes with e-cube-orderable dimensions."""

    def __init__(self, x: int, y: int, z: int) -> None:
        if x <= 0 or y <= 0 or z <= 0:
            raise ConfigurationError(f"mesh dimensions must be positive, got {x, y, z}")
        self.dims = (x, y, z)
        self.n_nodes = x * y * z

    @staticmethod
    def cube(k: int) -> "Mesh3D":
        """A k x k x k mesh (k=8 gives the 512-node prototype)."""
        return Mesh3D(k, k, k)

    @staticmethod
    def for_nodes(n: int) -> "Mesh3D":
        """The most compact mesh for ``n`` nodes.

        Standard power-of-two sizes follow the hardware's growth path
        (64 -> 4x4x4, 512 -> 8x8x8, 1024 -> 16x8x8); other sizes get the
        factorization ``x >= y >= z`` that minimises the longest side.
        """
        if n <= 0:
            raise ConfigurationError(f"need a positive node count, got {n}")
        standard = {
            1: (1, 1, 1), 2: (2, 1, 1), 4: (2, 2, 1), 8: (2, 2, 2),
            16: (4, 2, 2), 32: (4, 4, 2), 64: (4, 4, 4), 128: (8, 4, 4),
            256: (8, 8, 4), 512: (8, 8, 8), 1024: (16, 8, 8),
        }
        if n in standard:
            return Mesh3D(*standard[n])
        best = (n, 1, 1)
        for z in range(1, int(round(n ** (1 / 3))) + 2):
            if n % z:
                continue
            rest = n // z
            for y in range(z, int(rest ** 0.5) + 1):
                if rest % y:
                    continue
                x = rest // y
                if x >= y and max(x, y, z) < max(best):
                    best = (x, y, z)
        return Mesh3D(*best)

    # -- numbering ----------------------------------------------------------

    def coord(self, node: int) -> Coord:
        """Coordinates of a node id (the hardware's NNR calculation)."""
        x_dim, y_dim, z_dim = self.dims
        if not 0 <= node < self.n_nodes:
            raise ConfigurationError(f"node {node} outside mesh of {self.n_nodes}")
        x = node % x_dim
        rest = node // x_dim
        return (x, rest % y_dim, rest // y_dim)

    def node_id(self, coord: Coord) -> int:
        """Node id of a coordinate triple."""
        x, y, z = coord
        x_dim, y_dim, z_dim = self.dims
        if not (0 <= x < x_dim and 0 <= y < y_dim and 0 <= z < z_dim):
            raise ConfigurationError(f"coordinate {coord} outside mesh {self.dims}")
        return x + x_dim * (y + y_dim * z)

    def hops(self, a: int, b: int) -> int:
        """Manhattan distance between two nodes (e-cube path length)."""
        ax, ay, az = self.coord(a)
        bx, by, bz = self.coord(b)
        return abs(ax - bx) + abs(ay - by) + abs(az - bz)

    def max_hops(self) -> int:
        """Corner-to-corner distance (21 for the 8x8x8 machine)."""
        return sum(d - 1 for d in self.dims)

    def nodes_at_distance(self, origin: int, hops: int) -> List[int]:
        """All nodes exactly ``hops`` away from ``origin``."""
        return [n for n in range(self.n_nodes) if self.hops(origin, n) == hops]

    # -- bisection --------------------------------------------------------------

    def crosses_x_midplane(self, a: int, b: int) -> bool:
        """True if the e-cube path a->b crosses the X midplane."""
        half = self.dims[0] // 2
        ax = self.coord(a)[0]
        bx = self.coord(b)[0]
        return (ax < half) != (bx < half)

    def bisection_channels(self) -> int:
        """Channels crossing the X midplane, counted one direction."""
        return self.dims[1] * self.dims[2]

    def bisection_capacity_bits_per_s(self) -> float:
        """Peak bisection rate, paper convention (14.4 Gb/s at 8x8x8)."""
        words_per_cycle = (self.bisection_channels()
                           / DEFAULT_COSTS.phits_per_word)
        return words_per_cycle * WORD_BITS * CLOCK_HZ

    def __repr__(self) -> str:
        x, y, z = self.dims
        return f"Mesh3D({x}x{y}x{z}, {self.n_nodes} nodes)"


# -- the binomial tree over node ids ---------------------------------------------
#
# The paper's "binary combining/distributing tree" (radix sort's scan,
# the runtime's reduction): node ``n``'s parent clears its lowest set
# bit, so every node reaches node 0 in at most ``log2(N)`` hops.


def binomial_parent(node: int) -> Optional[int]:
    """The binomial-tree parent of ``node`` (None for the root)."""
    if node == 0:
        return None
    return node - (node & -node)


def binomial_children(node: int, n_nodes: int) -> List[int]:
    """The binomial-tree children of ``node`` in an ``n_nodes`` machine."""
    children = []
    k = 1
    while node % (k * 2) == 0 and node + k < n_nodes:
        children.append(node + k)
        k *= 2
    return children
