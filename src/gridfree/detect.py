"""Detectors for the forbidden configurations.

* find_grid: the 3x3 grid, three pairwise disjoint "row" edges and three
  pairwise disjoint "column" edges on the same nine vertices, every row
  meeting every column in exactly one vertex.
* find_prism: the nine-vertex, six-edge double-triangle pattern.
* two_core: iterated removal of vertices of degree <= 1 (order
  independent), keeping the maximal sub-hypergraph of minimum degree 2.
* find_small_two_core: bounded exhaustive search for a non-empty edge
  subset spanning at most max_vertices vertices in which every covered
  vertex has degree >= 2.

Grid and prism are the only (9,6) configurations: six edges on nine
vertices, every covered vertex of degree 2, any two edges sharing at most
one vertex.  Their line graphs are the two cubic simple graphs on six
nodes, K3,3 and the triangular prism.  Both finders run one enumerator
that closes each configuration from its least edge through vertex-pair
lookups, about m * d^2 of them for m edges of degree at most d on a
linear host.  It certifies base p = 101 (m = 2525) grid-free in seconds.

The searches are exhaustive and return deterministic, lexicographically
least witnesses.  find_small_two_core stays exponential in principle: its
depth-first search holds three bit masks (covered once or more, covered
twice or more, covered by later edges) and visits each edge subset
spanning at most max_vertices vertices at most once.  Each search and
two_core first relabels the covered vertices in ascending order, so
per-vertex tables and bit masks follow the edges, not the vertex count a
file's header declares.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .hypergraph import Hypergraph3, degrees
from .record import Record

__all__ = [
    "GridWitness",
    "CoreWitness",
    "find_grid",
    "find_prism",
    "two_core",
    "find_small_two_core",
]

# The grid and the prism in canonical labelling, for checkers and tests.
GRID_EDGES = ((0, 1, 2), (0, 3, 6), (1, 4, 7), (2, 5, 8), (3, 4, 5), (6, 7, 8))
PRISM_EDGES = ((0, 1, 2), (0, 3, 6), (1, 4, 5), (2, 5, 8), (3, 4, 7), (6, 7, 8))


class GridWitness(Record):
    """Edge indices of a found grid: rows and cols ascending, plus the nine
    covered vertex ids."""

    rows: tuple[int, int, int]
    cols: tuple[int, int, int]
    vertices: tuple[int, ...]

    def validate(self, h: Hypergraph3) -> None:
        """Re-verify every grid property against the host hypergraph."""
        idx = self.rows + self.cols
        if len(set(idx)) != 6:
            raise ValueError("witness must use six distinct edges")
        rows = [set(h.edges[i]) for i in self.rows]
        cols = [set(h.edges[i]) for i in self.cols]
        for group in (rows, cols):
            for s, t in combinations(group, 2):
                if s & t:
                    raise ValueError("rows and cols must each be pairwise disjoint")
        for r in rows:
            for c in cols:
                if len(r & c) != 1:
                    raise ValueError("every row must meet every col exactly once")
        cover = set().union(*rows)
        if cover != set().union(*cols) or len(cover) != 9:
            raise ValueError("rows and cols must cover the same nine vertices")
        if tuple(sorted(cover)) != self.vertices:
            raise ValueError("vertex list does not match the covered set")


class CoreWitness(Record):
    """An edge subset in which every covered vertex has degree >= 2.

    degrees is aligned with the sorted vertex tuple.
    """

    edges: tuple[int, ...]
    vertices: tuple[int, ...]
    degrees: tuple[int, ...]

    def validate(self, h: Hypergraph3, max_vertices: int | None = None) -> None:
        if len(set(self.edges)) != len(self.edges) or not self.edges:
            raise ValueError("witness needs a non-empty set of distinct edges")
        deg: dict[int, int] = {}
        for i in self.edges:
            for v in h.edges[i]:
                deg[v] = deg.get(v, 0) + 1
        if tuple(sorted(deg)) != self.vertices:
            raise ValueError("vertex list does not match the covered set")
        if tuple(deg[v] for v in self.vertices) != self.degrees:
            raise ValueError("recorded degrees are wrong")
        if min(self.degrees) < 2:
            raise ValueError("a covered vertex has degree < 2")
        if max_vertices is not None and len(self.vertices) > max_vertices:
            raise ValueError("witness exceeds the vertex budget")


def _covered(h: Hypergraph3) -> Hypergraph3:
    """h on the vertices its edges cover, relabelled by ascending id.

    The relabelling is increasing, so every edge keeps its index and its
    vertex order, and a search on the result finds the same edge indices.
    Per-vertex tables and bit masks built on it scale with the edges, not
    with the vertex count a header declares.
    """
    covered = sorted({v for e in h.edges for v in e})
    if len(covered) == h.n:
        return h
    rank = {v: i for i, v in enumerate(covered)}
    return Hypergraph3(len(covered), [(rank[a], rank[b], rank[c]) for a, b, c in h.edges])


def _least_configuration(h: Hypergraph3, kind: str) -> tuple | None:
    """Least key of a (9,6) configuration of one kind ("grid" or "prism").

    Anchors e = (a, b, c) go in ascending edge index, and only configurations
    whose least edge is e count.  Each vertex v of e then lies in exactly one
    later configuration edge, a leg meeting e only at v.

    * grid: the legs at a and b are disjoint columns.  The two other rows
      each hold a non-anchor vertex of both, and the third column joins c
      to the rows' third vertices.
    * prism: the legs at x and y meet at w, so e lies in a triangle.  The
      edge g through the outer vertex of the x-leg, the edge through g and
      the outer vertex of the y-leg, and the z-leg close the other one.

    The pair map holds several edges per pair, so non-linear hosts are
    searched too, and every candidate is re-checked in full.  The least key
    at the first anchor that has one is the least key overall: (rows, cols)
    with the anchor's side as rows for a grid, the sorted six edge indices
    for a prism.
    """
    h = _covered(h)
    edges = h.edges
    incident: list[list[int]] = [[] for _ in range(h.n)]
    pairs: dict[tuple[int, int], list[int]] = {}
    for j, (a, b, c) in enumerate(edges):
        for v in (a, b, c):
            incident[v].append(j)
        for key in ((a, b), (a, c), (b, c)):
            pairs.setdefault(key, []).append(j)

    def through(u: int, v: int, i: int):
        """Edges after i on the pair {u, v}, each with its third vertex."""
        for j in pairs.get((u, v) if u < v else (v, u), ()):
            if j > i:
                yield j, sum(edges[j]) - u - v

    for i, e in enumerate(edges):
        legs = {v: [(j, tuple(u for u in edges[j] if u != v)) for j in incident[v]
                    if j > i and len(set(e).intersection(edges[j])) == 1] for v in e}
        found = []
        a, b, c = e
        if kind == "grid":
            for fa, (u1, u2) in legs[a]:
                for fb, (v1, v2) in legs[b]:
                    if u1 in (v1, v2) or u2 in (v1, v2):
                        continue
                    for (p, q), (s, t) in (((u1, v1), (u2, v2)), ((u1, v2), (u2, v1))):
                        for r2, w2 in through(p, q, i):
                            for r3, w3 in through(s, t, i):
                                for fc, x in through(w2, w3, i):
                                    idx = (i, r2, r3, fa, fb, fc)
                                    if x == c and _is_nine_six(edges, idx):
                                        found.append((tuple(sorted(idx[:3])),
                                                      tuple(sorted(idx[3:]))))
        else:
            for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
                for fx, (u1, u2) in legs[x]:
                    for w, outer in ((u1, u2), (u2, u1)):
                        for fy, y_outer in through(w, y, i):
                            for g in incident[outer]:
                                if g <= i or g == fx:
                                    continue
                                s1, s2 = (u for u in edges[g] if u != outer)
                                for s, t in ((s1, s2), (s2, s1)):
                                    for gy, z2 in through(t, y_outer, i):
                                        for fz, zz in through(s, z2, i):
                                            idx = (i, fx, fy, g, gy, fz)
                                            if zz == z and _is_nine_six(edges, idx):
                                                found.append(tuple(sorted(idx)))
        if found:
            return min(found)
    return None


def _is_nine_six(edges, idx) -> bool:
    """Six distinct edges on nine vertices of degree 2, pairwise sharing at
    most one vertex."""
    deg = Counter(v for j in idx for v in edges[j])
    if len(set(idx)) != 6 or len(deg) != 9 or max(deg.values()) != 2:
        return False
    return all(len(set(edges[s]) & set(edges[t])) <= 1 for s, t in combinations(idx, 2))


def find_grid(h: Hypergraph3) -> GridWitness | None:
    """Exhaustive grid search; returns the lexicographically least witness
    (by the sorted row indices, then the sorted col indices) or None."""
    key = _least_configuration(h, "grid")
    if key is None:
        return None
    rows, cols = key
    return GridWitness(
        rows=rows,
        cols=cols,
        vertices=tuple(sorted({v for i in rows for v in h.edges[i]})),
    )


def find_prism(h: Hypergraph3) -> CoreWitness | None:
    """Exhaustive prism search; smallest witness by sorted edge indices."""
    key = _least_configuration(h, "prism")
    if key is None:
        return None
    return _core_witness(h, key)


def _core_witness(h: Hypergraph3, edge_idx: tuple[int, ...]) -> CoreWitness:
    deg = Counter(v for i in edge_idx for v in h.edges[i])
    verts = tuple(sorted(deg))
    return CoreWitness(
        edges=tuple(sorted(edge_idx)),
        vertices=verts,
        degrees=tuple(deg[v] for v in verts),
    )


def two_core(h: Hypergraph3) -> Hypergraph3:
    """Iteratively peel vertices of degree <= 1; the surviving vertices are
    relabelled by ascending original id, so the result is a standalone
    hypergraph of minimum degree >= 2 (possibly with zero vertices).
    Peeling is confluent, so the removal order cannot matter."""
    h = _covered(h)  # isolated vertices are peeled anyway
    deg = degrees(h)
    alive = [True] * len(h.edges)
    incident: list[list[int]] = [[] for _ in range(h.n)]
    for ei, e in enumerate(h.edges):
        for v in e:
            incident[v].append(ei)
    stack = [v for v in range(h.n) if deg[v] <= 1]
    while stack:
        v = stack.pop()
        for ei in incident[v]:
            if not alive[ei]:
                continue
            alive[ei] = False
            for u in h.edges[ei]:
                deg[u] -= 1
                if deg[u] == 1:
                    stack.append(u)
    kept = [v for v in range(h.n) if deg[v] >= 2]
    relabel = {v: i for i, v in enumerate(kept)}
    edges = [
        (relabel[a], relabel[b], relabel[c])
        for ei, (a, b, c) in enumerate(h.edges)
        if alive[ei]
    ]
    return Hypergraph3.from_edges(len(kept), edges)


def find_small_two_core(h: Hypergraph3, max_vertices: int = 9) -> CoreWitness | None:
    """Lexicographic depth-first search over edge subsets spanning at most
    max_vertices vertices; accepts as soon as every covered vertex has
    degree >= 2.  Returns the lexicographically least witness (by sorted
    edge indices) or None.

    Each frame holds two masks over the covered vertices: union, covered by
    the chosen edges, and twice, covered at least twice.  The subset is a
    core when union & ~twice is empty, and a branch goes on only while
    every vertex covered once lies in later[ei + 1], the vertices of the
    edges after ei.  Each subset spanning at most max_vertices vertices is
    visited at most once and scans the edges after its last one, so the
    worst case is m times the number of such subsets.

    max_vertices must lie in [4, 10]; the search is exponential in
    principle and intended for small instances only.
    """
    if not 4 <= max_vertices <= 10:
        raise ValueError(f"max_vertices must be in [4, 10], got {max_vertices}")
    edges = _covered(h).edges  # vertex ranks: masks stay under 3m bits
    m = len(edges)
    masks = [(1 << a) | (1 << b) | (1 << c) for a, b, c in edges]
    later = [0] * (m + 1)
    for ei in range(m - 1, -1, -1):
        later[ei] = later[ei + 1] | masks[ei]
    chosen: list[int] = []  # filled deepest edge first on success

    def dfs(first: int, union: int, twice: int) -> bool:
        for ei in range(first, m):
            mask = masks[ei]
            grown = union | mask
            if grown != union and grown.bit_count() > max_vertices:
                continue
            more = twice | (union & mask)
            once = grown & ~more
            if not once or (not (once & ~later[ei + 1])
                            and dfs(ei + 1, grown, more)):
                chosen.append(ei)
                return True
        return False

    if dfs(0, 0, 0):
        return _core_witness(h, tuple(chosen))
    return None
