"""Canonical 3-uniform hypergraphs and their text serialization.

Edges are sorted triples of 0-based vertex ids, the edge list is sorted
lexicographically with no duplicates, and isolated vertices are first-class
(n is stored, not inferred).  The text format is line oriented:

    # free-form comments, only before the header
    # modulus <p>                     (optional provenance: the field,
    # vertex <id> <origin> <x> <y>    then one plane point per vertex)
    n m
    a b c        (m lines, each ascending, list sorted, trailing newline)

The constructor checks all of this in one pass over the edges and walks
them edge by edge only to name the first offender.  encode formats edge
lines from a table of id strings over the covered ids, so each id is
converted once, and joins them a chunk of lines at a time.  decode
recognizes an edge body in encode's exact form by deleting its digits,
parses it a chunk of whole lines at a time into one edge list, and hands
that to the constructor's one check; any other body is read line by line,
so errors carry its line numbers.  Neither direction holds a string per
edge or per id of the whole body, only one chunk's worth, and decode
shares one int per distinct id.  Hypergraphs are one tuple per edge with
no reference cycles, so the CLI runs each command with the cyclic garbage
collector paused and reference counting frees them.  Linearity (every
vertex pair in at most one edge) is checked in O(m) on per-vertex partner
lists that hold the edges' own ints.  Densities are exact rationals.
Provenance is plain integers: each vertex's origin and its point (x, y)
as residues in [0, p).
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import chain, islice
from operator import itemgetter, lt

from .ffield import is_prime
from .record import Record

__all__ = [
    "FormatError",
    "Hypergraph3",
    "VertexInfo",
    "VertexMap",
    "ORIGINS",
    "is_linear",
    "linear_witness",
    "density",
    "degrees",
    "min_degree",
    "encode",
    "decode",
    "decode_with_provenance",
]

ORIGINS = ("V1", "V2", "S-of-V1", "S-of-V2")

# The codec works on the edge body a chunk at a time: decode splits about
# this many characters of whole lines at once, encode joins this many edge
# lines at once.
_CHUNK_CHARS = 1 << 16
_CHUNK_EDGES = 1 << 12


class FormatError(ValueError):
    """Malformed hypergraph text; `line` is the 1-based offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Hypergraph3(Record):
    """A canonical 3-uniform hypergraph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        n = self.n
        if type(n) is not int or n < 0:
            raise ValueError(f"vertex count must be a non-negative int, got {n!r}")
        edges = tuple(map(tuple, self.edges))
        object.__setattr__(self, "edges", edges)
        try:
            canonical = all(
                type(a) is type(b) is type(c) is int and 0 <= a < b < c < n
                for a, b, c in edges
            ) and all(map(lt, edges, islice(edges, 1, None)))
        except (TypeError, ValueError):
            canonical = False
        if not canonical:
            self._reject(edges)

    def _reject(self, edges) -> None:
        """Raise the ValueError naming the first edge that is not a triple
        of ints, not strictly ascending, out of range, or not above its
        predecessor."""
        prev = None
        for e in edges:
            if len(e) != 3:
                raise ValueError(f"edge {e!r} is not a triple")
            a, b, c = e
            if not (type(a) is type(b) is type(c) is int):
                raise ValueError(f"edge {e!r} has a vertex id that is not an int")
            if not (a < b < c):
                raise ValueError(f"edge {e!r} is not strictly ascending")
            if a < 0 or c >= self.n:
                raise ValueError(f"edge {e!r} out of range for n={self.n}")
            if prev is not None and e <= prev:
                raise ValueError(f"edge list not sorted or has duplicates at {e!r}")
            prev = e

    @classmethod
    def from_edges(cls, n: int, edges) -> "Hypergraph3":
        """Canonicalize an iterable of vertex triples (any order, any order
        within a triple); duplicate edges are rejected."""
        canon = []
        for e in edges:
            t = tuple(sorted(e))
            if len(t) != 3 or len(set(t)) != 3:
                raise ValueError(f"edge {tuple(e)!r} must have three distinct vertices")
            canon.append(t)
        canon.sort()
        return cls(n, tuple(canon))

    @property
    def m(self) -> int:
        return len(self.edges)


def is_linear(h: Hypergraph3) -> bool:
    """True when every vertex pair lies in at most one edge (O(m))."""
    # The pair {x, y} with x < y is listed under its owner x: edge (a, b, c)
    # lists b and c under a and c under b.  A pair repeats exactly when some
    # owner lists a partner twice.
    partners = defaultdict(list)
    for a, b, c in h.edges:
        partners[a] += b, c
        partners[b].append(c)
    return all(len(set(listed)) == len(listed) for listed in partners.values())


def linear_witness(h: Hypergraph3) -> tuple[tuple[int, int], int, int] | None:
    """The first repeated vertex pair in edge-index order, with the indices
    of the earlier edge holding it and the edge that repeats it; None when
    h is linear."""
    seen = {}
    for idx, (a, b, c) in enumerate(h.edges):
        for pair in ((a, b), (a, c), (b, c)):
            if pair in seen:
                return pair, seen[pair], idx
            seen[pair] = idx
    return None


def density(h: Hypergraph3) -> Fraction:
    """Edge density m / n^2 as an exact rational."""
    if h.n == 0:
        raise ValueError("density undefined for an empty vertex set")
    return Fraction(len(h.edges), h.n * h.n)


def degrees(h: Hypergraph3) -> list[int]:
    """Per-vertex edge counts; isolated vertices report 0."""
    deg = [0] * h.n
    for e in h.edges:
        for v in e:
            deg[v] += 1
    return deg


def min_degree(h: Hypergraph3) -> int:
    """Minimum degree over all n vertices, isolated ones included."""
    if h.n == 0:
        raise ValueError("min degree undefined for an empty vertex set")
    return min(degrees(h))


class VertexInfo(Record):
    """Provenance of one vertex: which point set it came from and its plane
    point (x, y), both coordinates residues mod the map's modulus."""

    origin: str
    x: int
    y: int

    def __post_init__(self) -> None:
        if self.origin not in ORIGINS:
            raise ValueError(f"unknown origin {self.origin!r}")


class VertexMap(Record):
    """Vertex id -> provenance over F_modulus, id given by position.  Points
    are distinct, so the map is a bijection onto the recorded points."""

    modulus: int
    entries: tuple[VertexInfo, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        q = self.modulus
        if not all(0 <= info.x < q and 0 <= info.y < q for info in self.entries):
            raise ValueError(f"vertex map coordinates must lie in [0, {q})")
        if len({(info.x, info.y) for info in self.entries}) != len(self.entries):
            raise ValueError("vertex map points must be distinct")

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> VertexInfo:
        return self.entries[i]


def encode(h: Hypergraph3, vertex_map: VertexMap | None = None) -> str:
    """Serialize to the text format; bit-stable for equal inputs.

    With a vertex map, provenance comments (`# modulus p`, then one
    `# vertex id origin x y` per vertex) precede the header.  Edge lines
    take each id's text from a table with at most 3m entries: a list over
    0..(largest id on an edge) when that id is below 3m, as in builder
    output, else a dict over the covered ids.  Isolated vertices cost
    nothing however large n is.  Edge lines are joined _CHUNK_EDGES at a
    time, so the only strings as long as the body are the chunks and the
    result.
    """
    lines = []
    if vertex_map is not None:
        if len(vertex_map) != h.n:
            raise ValueError(
                f"vertex map covers {len(vertex_map)} vertices, hypergraph has {h.n}"
            )
        lines.append(f"# modulus {vertex_map.modulus}")
        for i, info in enumerate(vertex_map.entries):
            lines.append(f"# vertex {i} {info.origin} {info.x} {info.y}")
    lines.append(f"{h.n} {len(h.edges)}")
    edges = h.edges
    top = max(map(itemgetter(2), edges), default=-1)
    if top < 3 * len(edges):
        name = list(map(str, range(top + 1)))
    else:
        name = {v: str(v) for v in set(chain.from_iterable(edges))}
    chunks = ["\n".join(lines)]
    for i in range(0, len(edges), _CHUNK_EDGES):
        chunk = edges[i:i + _CHUNK_EDGES]
        chunks.append("\n".join([f"{name[a]} {name[b]} {name[c]}" for a, b, c in chunk]))
    chunks.append("")  # the final newline, without a second copy of the text
    return "\n".join(chunks)


def _parse_int(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"{what} {token!r} is not an integer", lineno) from None


def decode(text: str) -> Hypergraph3:
    """Parse the text format; raises FormatError with a line number."""
    h, _ = _parse(text, want_provenance=False)
    return h


def decode_with_provenance(text: str) -> tuple[Hypergraph3, VertexMap | None]:
    """Like decode, but also reconstruct the vertex map from the comments
    when present (requires a `# modulus p` comment before the vertex lines)."""
    return _parse(text, want_provenance=True)


# The str.translate table that deletes the ASCII digits.
_DELETE_DIGITS = dict.fromkeys(range(ord("0"), ord("9") + 1))


def _encode_form(body: str, m: int) -> bool:
    """Whether body is m lines as encode writes them: three runs of ASCII
    digits, a single space between runs and a newline after each line.

    The tests run cheapest first.  The line count bounds the expected
    string by the body.  Deleting the digits must leave "  \n" per line,
    so the only characters are digits, the two spaces and the newline, in
    that layout.  Then there must be 3m tokens, that is, no run is empty:
    no line starts or ends with a space and no two spaces touch.
    """
    return (
        body.count("\n") == m
        and body.translate(_DELETE_DIGITS) == "  \n" * m
        and not body.startswith(" ")
        and "\n " not in body
        and "  " not in body
        and " \n" not in body
    )


def _canonical_body(text: str, start: int, n: int, m: int) -> Hypergraph3 | None:
    """The hypergraph of an edge body (text from offset start on) of m lines
    in encode's form that passes the constructor's checks, parsed in bulk
    _CHUNK_CHARS of whole lines at a time; None for any other body, which
    the line loop then parses or locates."""
    body = text[start:]
    if not _encode_form(body, m):
        return None
    value: dict[str, int] = {}  # each distinct id parsed once, its int shared
    edges: list[tuple[int, int, int]] = []
    pos = 0
    try:  # int() refuses ids longer than Python's digit limit
        while pos < len(body):
            end = body.find("\n", pos + _CHUNK_CHARS) + 1 or len(body)
            tokens = body[pos:end].split()
            new = set(tokens).difference(value)
            value.update(zip(new, map(int, new)))
            ids = map(value.__getitem__, tokens)
            edges += zip(ids, ids, ids)
            pos = end
        return Hypergraph3(n, edges)
    except ValueError:
        return None


def _edge_lines(raw: list[str], idx: int, n: int, m: int) -> tuple[tuple[int, int, int], ...]:
    """The m edges on the lines from idx on, checked line by line; raises
    FormatError with the number of the first offending line."""
    edges: list[tuple[int, int, int]] = []
    prev: tuple[int, int, int] | None = None
    for k in range(m):
        if idx >= len(raw):
            raise FormatError(f"expected {m} edges, found {k}", len(raw) + 1)
        lineno = idx + 1
        line = raw[idx]
        idx += 1
        if line.startswith("#"):
            raise FormatError("comments are only allowed before the header", lineno)
        tokens = line.split()
        if len(tokens) != 3:
            raise FormatError(f"edge line needs three vertex ids, got {len(tokens)}", lineno)
        a, b, c = (_parse_int(t, "vertex id", lineno) for t in tokens)
        if not (a < b < c):
            if len({a, b, c}) != 3:
                raise FormatError(f"repeated vertex in edge {line!r}", lineno)
            raise FormatError(f"edge {line!r} not in ascending order", lineno)
        if a < 0 or c >= n:
            raise FormatError(f"vertex id out of range in {line!r}", lineno)
        e = (a, b, c)
        if prev is not None and e <= prev:
            if e == prev:
                raise FormatError(f"duplicate edge {line!r}", lineno)
            raise FormatError(f"edge {line!r} out of lexicographic order", lineno)
        edges.append(e)
        prev = e
    if idx != len(raw):
        raise FormatError("unexpected content after the edge list", idx + 1)

    return tuple(edges)


def _parse(text: str, want_provenance: bool) -> tuple[Hypergraph3, VertexMap | None]:
    if not text.endswith("\n"):
        raise FormatError("missing trailing newline", max(1, text.count("\n") + 1))
    # Only the comments and the header are split into lines here; the edge
    # body after them is left to _canonical_body or _edge_lines.
    body = 0
    while text.startswith("#", body):
        body = text.index("\n", body) + 1
    if body < len(text):
        body = text.index("\n", body) + 1
    raw = text[:body].split("\n")[:-1]  # drop the empty piece after the final newline

    lineno = 0
    modulus: int | None = None
    modulus_line = 0
    vertex_lines: list[tuple[int, int, str, int, int]] = []
    header: tuple[int, int] | None = None
    idx = 0
    while idx < len(raw):
        lineno = idx + 1
        line = raw[idx]
        idx += 1
        if line.startswith("#"):
            if want_provenance:
                tokens = line.split()
                if len(tokens) >= 2 and tokens[1] == "modulus":
                    if len(tokens) != 3:
                        raise FormatError("malformed modulus comment", lineno)
                    modulus = _parse_int(tokens[2], "modulus", lineno)
                    modulus_line = lineno
                elif len(tokens) >= 2 and tokens[1] == "vertex":
                    if len(tokens) != 6:
                        raise FormatError("malformed vertex comment", lineno)
                    vid = _parse_int(tokens[2], "vertex id", lineno)
                    x = _parse_int(tokens[4], "x coordinate", lineno)
                    y = _parse_int(tokens[5], "y coordinate", lineno)
                    vertex_lines.append((lineno, vid, tokens[3], x, y))
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise FormatError(f"malformed header {line!r}", lineno)
        n = _parse_int(tokens[0], "vertex count", lineno)
        m = _parse_int(tokens[1], "edge count", lineno)
        if n < 0 or m < 0:
            raise FormatError("header counts must be non-negative", lineno)
        header = (n, m)
        break
    if header is None:
        raise FormatError("missing header", lineno if lineno else 1)

    n, m = header
    h = _canonical_body(text, body, n, m)
    if h is None:
        h = Hypergraph3(n, _edge_lines(text.split("\n")[:-1], idx, n, m))
    if not want_provenance or not vertex_lines:
        return h, None

    if modulus is None:
        raise FormatError("vertex comments without a modulus comment", vertex_lines[0][0])
    if modulus % 2 == 0 or not is_prime(modulus):
        raise FormatError(f"modulus {modulus} is not an odd prime", modulus_line)
    by_id: dict[int, VertexInfo] = {}
    points: set[tuple[int, int]] = set()
    for lno, vid, origin, x, y in vertex_lines:
        if vid in by_id:
            raise FormatError(f"duplicate vertex comment for id {vid}", lno)
        if not 0 <= vid < n:
            raise FormatError(f"vertex comment id {vid} out of range", lno)
        if origin not in ORIGINS:
            raise FormatError(f"unknown origin {origin!r}", lno)
        if not (0 <= x < modulus and 0 <= y < modulus):
            raise FormatError(f"point ({x}, {y}) is not reduced mod {modulus}", lno)
        if (x, y) in points:
            raise FormatError(f"point ({x}, {y}) already belongs to another vertex", lno)
        points.add((x, y))
        by_id[vid] = VertexInfo(origin, x, y)
    if len(by_id) != n:
        raise FormatError(f"vertex comments cover {len(by_id)} of {n} vertices", 1)
    return h, VertexMap(modulus, tuple(by_id[i] for i in range(n)))
