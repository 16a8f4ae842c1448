"""The grid certificate behind find_grid.

Suppose each edge has exactly one vertex w of one w-origin
and two vertices a, b of one other origin, the labels (origin, x) are
injective, and (x_w - x_a)(x_w - x_b) = k (mod p) on every edge, for one
k != 0 and a prime p.  Then h has no grid (Furedi-Ruszinko 2013,
Gishboliner-Shapira 2022): the link of w is the Moebius involution s_w
with matrix [[w, k - w^2], [1, -w]]; a grid's three w-vertices form a
transversal, and its six other vertices make the closed walk
x -> s_1 -> s_3 -> s_2 -> s_1 -> s_3 -> s_2 -> x, so T = s_2 s_3 s_1 swaps
two points, is an involution and has trace 0; but its trace is
-(w_1 - w_2)(w_2 - w_3)(w_3 - w_1), which is not 0.  Every builder's map
certifies its host when it has edges.  Without a map, or when any test
fails, the enumerator runs as before and returns the same least witness.

It lives apart from detect.py so that only a process that hands
find_grid a vertex map compiles it.
"""

from __future__ import annotations

from .ffield import PRIME_LIMIT, is_prime
from .hypergraph import Hypergraph3, VertexMap


def certified(h: Hypergraph3, vertex_map: VertexMap | None) -> bool:
    """Whether vertex_map certifies h grid-free (see the module docstring):
    a prime modulus p, injective labels (origin, x), a w-origin with
    exactly one vertex on each edge whose other two lie on one other
    origin, and one k != 0 (mod p) with (x_w - x_a)(x_w - x_b) = k on every
    edge.  One pass over the edges, allocating nothing per edge."""
    if vertex_map is None or len(vertex_map) != h.n or not h.edges:
        return False
    p, entries = vertex_map.modulus, vertex_map.entries
    if p >= PRIME_LIMIT or not is_prime(p):
        return False
    if len({(info.origin, info.x) for info in entries}) != len(entries):
        return False
    a, b, c = (entries[v].origin for v in h.edges[0])
    if len({a, b, c}) != 2:
        return False
    w_origin = c if a == b else b if a == c else a
    # 1 on the w-origin, 0 on the other origin of the first edge, 3 elsewhere:
    # the roles of an edge sum to 1 exactly when it has the required shape
    role = [1 if info.origin == w_origin else 0 if info.origin in (a, b, c) else 3
            for info in entries]
    x = [info.x for info in entries]
    k = None
    for a, b, c in h.edges:
        if role[a] + role[b] + role[c] != 1:
            return False
        w, s, t = (a, b, c) if role[a] else (b, a, c) if role[b] else (c, a, b)
        product = (x[w] - x[s]) * (x[w] - x[t]) % p
        if product != k:
            if k is not None or not product:
                return False
            k = product
    return True
