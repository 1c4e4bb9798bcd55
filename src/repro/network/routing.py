"""Deterministic e-cube (dimension-order) routing, and channel identity.

"Messages are routed through the 3D-mesh network using deterministic,
e-cube, wormhole routing" (Section 2.1, citing Dally's k-ary n-cube
analysis).  A message corrects its X offset first, then Y, then Z; since
the mesh has no wrap links, each dimension is traversed monotonically.
Dimension-order routing on a mesh is provably deadlock-free because the
channel dependency graph is acyclic, a property the test suite checks.

This module is the one place that decides how a channel is named.  The
fabric names a virtual channel by a dense integer *key*:

* a router has :data:`PORTS` output ports: ``dim * 2 + (direction > 0)``
  for the six mesh channels (0 = X-, 1 = X+, 2 = Y-, ... 5 = Z+), then
  :data:`INJECT_PORT` (processor to router) and :data:`EJECT_PORT`
  (router to processor, the delivery port);
* channel id = ``node * PORTS + port``;
* key = ``id * CLASSES + pclass``: one virtual channel per priority.

:func:`route_keys` builds a pair's keys arithmetically, so a route is
a tuple of ints built once per (mesh shape, source, dest, priority).
Observers name a channel by its decoded, physical form, the
:data:`ChannelKey` ``(node, dim, direction)`` with dim = :data:`INJECT`
/ :data:`EJECT` for the processor-side ports; :func:`decode_key` is the
only way back from a key.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from ..core.errors import ConfigurationError
from .topology import Mesh3D

__all__ = ["ChannelKey", "INJECT", "EJECT", "decode_key", "route",
           "route_keys"]

#: Pseudo-dimension of the processor-to-router injection port.
INJECT = 3

#: Pseudo-dimension of the router-to-processor ejection (delivery) port.
EJECT = 4

#: A physical channel as observers name it: the output channel of router
#: ``node`` in dimension ``dim`` (0=X, 1=Y, 2=Z) toward ``direction``
#: (+1 or -1), or ``(node, INJECT | EJECT, 0)`` for a processor port.
#: Link names, probe dicts and fault plans use this form; the fabric
#: itself uses int keys.
ChannelKey = Tuple[int, int, int]

#: Output ports per router, and the two processor-side ones.
PORTS = 8
INJECT_PORT = 6
EJECT_PORT = 7

#: Virtual channels (priority classes) per physical channel.
CLASSES = 2


@lru_cache(maxsize=1 << 16)
def decode_key(key: int) -> ChannelKey:
    """The physical channel ``(node, dim, direction)`` behind a fabric
    channel key, its priority class dropped.  Cached: a probe decodes
    every hop of every delivered message."""
    node, port = divmod(key // CLASSES, PORTS)
    if port < INJECT_PORT:
        return (node, port >> 1, 1 if port & 1 else -1)
    return (node, INJECT if port == INJECT_PORT else EJECT, 0)


@lru_cache(maxsize=1 << 18)
def route_keys(dims: Tuple[int, int, int], source: int, dest: int,
               pclass: int) -> Tuple[Tuple[int, ...], bool]:
    """The e-cube route ``source -> dest`` in priority class ``pclass``
    as channel keys, and whether it crosses the X midplane.

    The first key is the source's injection port and the last the
    destination's ejection port; between them come the mesh channels in
    strict X, then Y, then Z order, each dimension one arithmetic run.
    A self-addressed message routes through the local router only
    (inject then eject), which is how the paper's self-ping baseline
    works.  Cached and shared: callers must not mutate the tuple.
    """
    x_dim, y_dim, z_dim = dims
    n_nodes = x_dim * y_dim * z_dim
    for node in (source, dest):
        if not 0 <= node < n_nodes:
            raise ConfigurationError(f"node {node} outside mesh of {n_nodes}")
    per_node = PORTS * CLASSES
    sx, rest = source % x_dim, source // x_dim
    dx, drest = dest % x_dim, dest // x_dim
    keys = [(source * PORTS + INJECT_PORT) * CLASSES + pclass]
    here = source * per_node + pclass    # port 0 of the current router
    for dim, delta, stride in ((0, dx - sx, 1),
                               (1, drest % y_dim - rest % y_dim, x_dim),
                               (2, drest // y_dim - rest // y_dim,
                                x_dim * y_dim)):
        if delta:
            span = delta * stride * per_node
            first = here + (dim * 2 + (delta > 0)) * CLASSES
            keys.extend(range(first, first + span, span // abs(delta)))
            here += span
    keys.append((dest * PORTS + EJECT_PORT) * CLASSES + pclass)
    half = x_dim // 2
    return tuple(keys), (sx < half) != (dx < half)


def route(mesh: Mesh3D, source: int, dest: int) -> Tuple[ChannelKey, ...]:
    """The e-cube route as :data:`ChannelKey` tuples, decoded from
    :func:`route_keys` (for cold callers: replays, tests)."""
    keys, _ = route_keys(mesh.dims, source, dest, 0)
    return tuple(map(decode_key, keys))
