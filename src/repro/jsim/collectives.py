"""The binomial tree behind radix sort's combining/distributing tree.

:func:`binomial_parent` / :func:`binomial_children` give the tree shape
the paper's "binary combining/distributing tree" uses over node ids:
node ``n``'s parent clears its lowest set bit, so every node reaches
node 0 in at most ``log2(N)`` hops.
"""

from __future__ import annotations

from typing import List, Optional

__all__ = ["binomial_parent", "binomial_children"]


def binomial_parent(node: int) -> Optional[int]:
    """The binomial-tree parent of ``node`` (None for the root)."""
    if node == 0:
        return None
    k = 1
    while node % (k * 2) == 0:
        k *= 2
    return node - k


def binomial_children(node: int, n_nodes: int) -> List[int]:
    """The binomial-tree children of ``node`` in an ``n_nodes`` machine."""
    children = []
    k = 1
    while node % (k * 2) == 0 and node + k < n_nodes:
        children.append(node + k)
        k *= 2
    return children
