"""Canonical 3-uniform hypergraphs and their text serialization.

Edges are sorted triples of 0-based vertex ids, the edge list is sorted
lexicographically with no duplicates, and isolated vertices are first-class
(n is stored, not inferred).  The text format is line oriented:

    # free-form comments, only before the header
    # modulus <p>                     (optional provenance: the field,
    # vertex <id> <origin> <x> <y>    then one plane point per vertex)
    n m
    a b c        (m lines, each ascending, list sorted, trailing newline)

The parts: Hypergraph3 and its queries (is_linear, linear_witness,
density, degrees); VertexMap, the provenance; encode and encode_head;
write_edges and count_edges over a construction's column chunks
(firsts, seconds, thirds) of edges; one reader, _read, behind decode,
decode_with_provenance, file_linear_witness and file_instance; and one
collector, _instance, of _read's stream or of checked construction chunks.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict, deque
from functools import partial
from itertools import chain, islice
from operator import itemgetter, lt

from .ffield import PRIME_LIMIT, is_prime
from .record import Record

__all__ = [
    "FormatError",
    "Hypergraph3",
    "VertexInfo",
    "VertexMap",
    "is_linear",
    "linear_witness",
    "density",
    "degrees",
    "encode",
    "decode",
    "decode_with_provenance",
]

ORIGINS = ("V1", "V2", "S-of-V1", "S-of-V2")

# The codec works on the edge body a chunk at a time: decode and the file
# stream parse about this many characters of whole lines at once, encode
# formats and linear checks of a Hypergraph3 take this many edges at once.
# A parsed chunk briefly holds one str per token, about 13 bytes of them
# per character, on top of the linearity walk's packed partner arrays (2,
# 4 or 8 bytes per waiting partner, by n), so the file stream's peak grows
# with the chunk.
_CHUNK_CHARS = 1 << 15
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
        _check_edges(n, edges)

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

    @classmethod
    def _checked(cls, n: int, edges: tuple) -> "Hypergraph3":
        """The hypergraph of a vertex count and a tuple of int triples that
        a reader has already held to the constructor's rules, built without
        walking the edges again."""
        h = object.__new__(cls)
        h.__dict__.update(n=n, edges=edges)
        return h

    @property
    def m(self) -> int:
        return len(self.edges)


def _check_edges(n: int, edges) -> None:
    """Check edges against the constructor's rules: raise the ValueError
    naming the first edge that is not a triple of ints, not strictly
    ascending, out of range for n vertices, or not above its predecessor."""
    prev = (-1, -1, -1)  # below every edge with ids in range
    for e in edges:
        if len(e) != 3:
            raise ValueError(f"edge {e!r} is not a triple")
        a, b, c = e
        if not (type(a) is type(b) is type(c) is int):
            raise ValueError(f"edge {e!r} has a vertex id that is not an int")
        if not (a < b < c):
            raise ValueError(f"edge {e!r} is not strictly ascending")
        if a < 0 or c >= n:
            raise ValueError(f"edge {e!r} out of range for n={n}")
        if e <= prev:
            raise ValueError(f"edge list not sorted or has duplicates at {e!r}")
        prev = e


def _edge_chunks(edges):
    """The edges as column chunks (firsts, seconds, thirds), _CHUNK_EDGES
    edges at a time."""
    columns = itemgetter(0), itemgetter(1), itemgetter(2)
    for i in range(0, len(edges), _CHUNK_EDGES):
        chunk = edges[i:i + _CHUNK_EDGES]
        yield tuple(list(map(column, chunk)) for column in columns)


def _owner_lists(n: int, chunks):
    """Each vertex x that shares an edge with some y > x, as (x, pending,
    own), from the edges of a hypergraph on n vertices read in canonical
    order as column chunks: own lists the partners of x's run of edges,
    pending those that earlier edges gave it.

    The pair {x, y} with x < y is owned by x: edge (a, b, c) gives a the
    partners b and c and gives b the partner c, so a pair repeats exactly
    when some owner lists a partner twice.  The edges owning pairs by
    their first vertex a come in one run, and every edge giving b a
    partner comes before b's run, so an owner is yielded, and its lists
    freed, when its run ends; only the partners given to b wait, which
    each chunk appends in one pass of map calls, with no per-edge loop in
    the interpreter.  They wait in arrays of the narrowest unsigned type
    that holds n - 1 (plain lists past 64 bits), 2, 4 or 8 bytes a
    partner; every id is below n, as the chunks hold canonical edges.
    """
    from array import array  # a shared library: loaded only when a walk runs

    code = next((c for c in "HIQ" if n <= 1 << 8 * array(c).itemsize), None)
    waiting = defaultdict(list if code is None else partial(array, code))
    append = list.append if code is None else array.append
    owner, pending, own = None, (), []
    for firsts, seconds, thirds in chunks:
        deque(map(append, map(waiting.__getitem__, seconds), thirds), 0)
        i, k = 0, len(firsts)
        while i < k:
            x = firsts[i]
            j = bisect_right(firsts, x, i)
            if x != owner:
                if own:
                    yield owner, pending, own
                owner, pending, own = x, waiting.pop(x, ()), []
            own += seconds[i:j]
            own += thirds[i:j]
            i = j
    if own:
        yield owner, pending, own
    for x, pending in waiting.items():
        yield x, pending, ()


def _repeats(n: int, chunks) -> dict[int, set[int]]:
    """Each owner (see _owner_lists) that lists some partner twice, mapped
    to the set of those partners: empty exactly when the edges of the
    column chunks, on n vertices, are linear."""
    repeats = {}
    for x, pending, own in _owner_lists(n, chunks):
        seen = set(pending)
        seen.update(own)
        if len(seen) != len(pending) + len(own):
            repeats[x] = {y for y, k in Counter(chain(pending, own)).items() if k > 1}
    return repeats


def _first_repeat(chunks, repeats) -> tuple[tuple[int, int], int, int] | None:
    """linear_witness of the edges read from column chunks, whose _repeats
    are repeats: one scan in edge-index order that remembers where each
    repeated pair first occurs and stops at the first one seen twice.  An
    edge (a, b, c) owns its pairs by a or b, so one with neither among the
    owners of repeats is skipped."""
    first = {}
    edges = chain.from_iterable(zip(*columns) for columns in chunks)
    for i, (a, b, c) in enumerate(edges):
        if a in repeats or b in repeats:
            for pair in (a, b), (a, c), (b, c):
                if pair[1] in repeats.get(pair[0], ()):
                    if pair in first:
                        return pair, first[pair], i
                    first[pair] = i
    return None


def is_linear(h: Hypergraph3) -> bool:
    """True when every vertex pair lies in at most one edge (O(m))."""
    return not _repeats(h.n, _edge_chunks(h.edges))


def linear_witness(h: Hypergraph3) -> tuple[tuple[int, int], int, int] | None:
    """The first repeated vertex pair in edge-index order, with the indices
    of the earlier edge holding it and the edge that repeats it; None when
    h is linear.  Within one edge (a, b, c) the pairs count in the order
    (a, b), (a, c), (b, c)."""
    repeats = _repeats(h.n, _edge_chunks(h.edges))
    return _first_repeat(_edge_chunks(h.edges), repeats) if repeats else None


def density(h: Hypergraph3) -> Fraction:
    """Edge density m / n^2 as an exact rational."""
    if h.n == 0:
        raise ValueError("density undefined for an empty vertex set")
    from fractions import Fraction  # it imports decimal: loaded only when a rational is built

    return Fraction(len(h.edges), h.n * h.n)


def degrees(h: Hypergraph3) -> list[int]:
    """Per-vertex edge counts; isolated vertices report 0."""
    deg = [0] * h.n
    for e in h.edges:
        for v in e:
            deg[v] += 1
    return deg


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


def encode_head(n: int, m: int, vertex_map: VertexMap | None = None) -> str:
    """The text before the edge lines: with a vertex map, the provenance
    comments (`# modulus p`, then one `# vertex id origin x y` per vertex),
    then the `n m` header, each ending in a newline."""
    lines = []
    if vertex_map is not None:
        if len(vertex_map) != n:
            raise ValueError(
                f"vertex map covers {len(vertex_map)} vertices, hypergraph has {n}"
            )
        lines.append(f"# modulus {vertex_map.modulus}")
        for i, info in enumerate(vertex_map.entries):
            lines.append(f"# vertex {i} {info.origin} {info.x} {info.y}")
    lines.append(f"{n} {m}")
    lines.append("")
    return "\n".join(lines)


def _edge_text(name, edges) -> str:
    """The lines `a b c` of an iterable of edges, each id's text taken from
    the table name."""
    return "".join([f"{name[a]} {name[b]} {name[c]}\n" for a, b, c in edges])


def encode(h: Hypergraph3, vertex_map: VertexMap | None = None) -> str:
    """Serialize to the text format; bit-stable for equal inputs.

    With a vertex map, provenance comments precede the header (see
    encode_head).  Edge lines take each id's text from one dict over the
    covered ids, at most 3m entries, so isolated vertices cost nothing
    however large n is.  Edge lines are formatted _CHUNK_EDGES at a time,
    so the only strings as long as the body are the chunks and the result.
    """
    edges = h.edges
    name = {v: str(v) for v in set(chain.from_iterable(edges))}
    chunks = [encode_head(h.n, len(edges), vertex_map)]
    for i in range(0, len(edges), _CHUNK_EDGES):
        chunks.append(_edge_text(name, edges[i:i + _CHUNK_EDGES]))
    return "".join(chunks)


def _canonical_chunk(firsts, seconds, thirds, prev, n: int) -> bool:
    """Whether the edges (firsts[i], seconds[i], thirds[i]) are as the
    constructor requires: ids in [0, n), each edge strictly ascending and
    above its predecessor, the first one above prev (None at the start).

    The b < c and range tests run over whole columns in C, the order test
    once per row, a run of one first vertex x.  bisect_right finds the
    row's end j, past which the next first vertex exceeds x, and a count
    confirms that x fills the row, so the first vertices do not decrease.
    Within the row x < b holds when it holds for the least b, and the
    (b, c) pairs ascend when the b's do; only a row that repeats a b
    compares its (b, c) pairs.  With the rows in order, firsts[0] is the
    least id.
    """
    if not firsts:
        return True
    if not (firsts[0] >= 0 and max(thirds) < n and all(map(lt, seconds, thirds))
            and (prev is None or prev < (firsts[0], seconds[0], thirds[0]))):
        return False
    i, k = 0, len(firsts)
    while i < k:
        x = firsts[i]
        j = bisect_right(firsts, x, i)
        row = seconds[i:j]
        if firsts[i:j].count(x) != j - i or not x < row[0]:
            return False
        if not all(map(lt, row, row[1:])):
            pairs = list(zip(row, thirds[i:j]))
            if not all(map(lt, pairs, pairs[1:])):
                return False
        i = j
    return True


def _checked_chunks(n: int, chunks):
    """The non-empty column chunks (firsts, seconds, thirds) of chunks,
    each checked by _canonical_chunk against the constructor's rules for a
    hypergraph on n vertices; a chunk out of canonical form raises
    _check_edges's ValueError naming the first offending edge."""
    prev = None
    for firsts, seconds, thirds in chunks:
        if not firsts:
            continue
        if not _canonical_chunk(firsts, seconds, thirds, prev, n):
            _check_edges(n, [*([prev] if prev else ()), *zip(firsts, seconds, thirds)])
        yield firsts, seconds, thirds
        prev = firsts[-1], seconds[-1], thirds[-1]


def write_edges(f, n: int, chunks) -> int:
    """Write the edge lines of column chunks (firsts, seconds, thirds) to
    the text file f, one chunk at a time, and return how many there were.

    Each chunk is checked as the constructor checks a hypergraph on n
    vertices (see _checked_chunks).  Ids take their text from a table over
    0..n-1.
    """
    name = list(map(str, range(n)))
    m = 0
    for firsts, seconds, thirds in _checked_chunks(n, chunks):
        f.write(_edge_text(name, zip(firsts, seconds, thirds)))
        m += len(firsts)
    return m


def count_edges(n: int, chunks) -> int:
    """How many edges the column chunks hold, each chunk checked as
    write_edges checks it, without formatting any text."""
    return sum(len(firsts) for firsts, _, _ in _checked_chunks(n, chunks))


def _parse_int(token: str, what: str, lineno: int) -> int:
    """The int of token, an optional sign followed by ASCII digits."""
    digits = token[1:] if token[0] in "+-" else token
    if digits.isascii() and digits.isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than int() accepts
            pass
    raise FormatError(f"{what} {token!r} is not an integer", lineno)


def _header(line: str, lineno: int) -> tuple[int, int]:
    """The counts (n, m) of the header line."""
    tokens = line.split()
    if len(tokens) != 2:
        raise FormatError(f"malformed header {line!r}", lineno)
    n = _parse_int(tokens[0], "vertex count", lineno)
    m = _parse_int(tokens[1], "edge count", lineno)
    if n < 0 or m < 0:
        raise FormatError("header counts must be non-negative", lineno)
    return n, m


def decode(text: str) -> Hypergraph3:
    """Parse the text format; raises FormatError with a line number."""
    return _instance(_read(_text_chunks(text)))


def decode_with_provenance(text: str) -> tuple[Hypergraph3, VertexMap | None]:
    """Like decode, but also reconstruct the vertex map from the comments
    when present (requires a `# modulus p` comment before the vertex lines).
    The comments are checked after the body, so a text that decode refuses
    raises decode's FormatError."""
    comments = []
    h = _instance(_read(_text_chunks(text), comments))
    return h, _vertex_map(h.n, comments)


# The str.translate table that deletes the ASCII digits.
_DELETE_DIGITS = dict.fromkeys(range(ord("0"), ord("9") + 1))


def _encode_tokens(body: str) -> list[str] | None:
    """The digit runs of body, in order, when body is lines as encode
    writes them: three runs of ASCII digits, a single space between runs
    and a newline after each line; None for any other body.

    Deleting the digits must leave "  \n" per line, so the only
    characters are digits, the two spaces and the newline, in that layout.
    Then splitting must give three tokens per line, that is, no run is
    empty: no line starts or ends with a space and no two spaces touch.
    """
    m = body.count("\n")
    if body.translate(_DELETE_DIGITS) != "  \n" * m:
        return None
    tokens = body.split()
    return tokens if len(tokens) == 3 * m else None


def _chunk_columns(chunk: str, value: dict[str, int]):
    """The edges of chunk, whole lines in encode's form, as column lists
    (firsts, seconds, thirds); None for any other chunk.  value maps each
    id's text to its int across chunks, so each distinct id is parsed once
    and its int shared: the tokens are looked up there first, and only
    when one is missing are the new ones parsed and added."""
    tokens = _encode_tokens(chunk)
    if tokens is None:
        return None
    try:
        ids = list(map(value.__getitem__, tokens))
    except KeyError:
        new = set(tokens).difference(value)
        try:
            value.update(zip(new, map(int, new)))
        except ValueError:  # more digits than int() accepts
            return None
        ids = list(map(value.__getitem__, tokens))
    return ids[0::3], ids[1::3], ids[2::3]


def _checked_lines(piece: str, lineno: int, prev, n: int, left: int):
    """The edges on the lines of piece, whole lines of which the first is
    line lineno, as column tuples (firsts, seconds, thirds), checked line
    by line: at most left edges, each above the edge prev (None at the
    start).  Tabs, a CR before the newline, extra spaces, signs and leading
    zeros are read; anything else raises decode's FormatError naming the
    first offending line."""
    edges = []
    for line in piece.split("\n")[:-1]:  # piece ends in a newline
        if not left:
            raise FormatError("unexpected content after the edge list", lineno)
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
        left -= 1
        lineno += 1
    return tuple(zip(*edges))


def _read(pieces, comments: list | None = None):
    """Read the .hg3 text that pieces yields in chunks of whole lines:
    yield its vertex count n, then its edges as column chunks (firsts,
    seconds, thirds), one per piece of the edge body.

    The comments and the header are read line by line; when comments is
    given, each comment line is appended to it as (line number, text),
    unparsed (see _vertex_map).  A piece of the body is parsed by
    _chunk_columns and checked by _canonical_chunk, which needs no per-line
    work; only a piece they refuse goes to the line checker,
    _checked_lines.  On a fault the rest of pieces is still read, a piece
    at a time, before the error is raised: a text without a trailing
    newline is reported as such, and a source that fails later (a file
    that is not UTF-8) raises its own error, as a whole-text read would.
    """
    pieces = iter(pieces)
    piece, start, lineno = "", 1, 1  # the piece read last, its first line, the next line
    n = m = None
    count, prev, value = 0, None, {}
    try:
        for piece in pieces:
            start = lineno
            if not piece.endswith("\n"):
                break  # only the last line can lack its newline: reported below
            pos = 0
            while n is None and pos < len(piece):
                end = piece.index("\n", pos)
                line = piece[pos:end]
                if not line.startswith("#"):
                    n, m = _header(line, lineno)
                    yield n
                elif comments is not None:
                    comments.append((lineno, line))
                pos = end + 1
                lineno += 1
            if pos == len(piece):
                continue
            body = piece[pos:]
            columns = _chunk_columns(body, value)
            if (columns is None or len(columns[0]) > m - count
                    or not _canonical_chunk(*columns, prev, n)):
                columns = _checked_lines(body, lineno, prev, n, m - count)
            count += len(columns[0])
            lineno += len(columns[0])
            prev = tuple(column[-1] for column in columns)
            yield columns
        if n is None:
            raise FormatError("missing header", lineno - 1)
        if count != m:
            raise FormatError(f"expected {m} edges, found {count}", lineno)
        fault = None
    except FormatError as exc:
        fault = exc
    for rest in pieces:
        start += piece.count("\n")
        piece = rest
    if not piece.endswith("\n"):
        raise FormatError("missing trailing newline", start + piece.count("\n"))
    if fault is not None:
        raise fault


def _text_chunks(text: str):
    """text about _CHUNK_CHARS characters of whole lines at a time."""
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos + _CHUNK_CHARS) + 1 or len(text)
        yield text[pos:end]
        pos = end


def _instance(stream) -> Hypergraph3:
    """The hypergraph of a stream as _read yields it: the vertex count n,
    then column chunks (firsts, seconds, thirds) of edges already held to
    the constructor's rules, by _read's checks or by _checked_chunks."""
    n = next(stream)
    return Hypergraph3._checked(n, tuple(chain.from_iterable(zip(*columns) for columns in stream)))


def _vertex_map(n: int, comments) -> VertexMap | None:
    """The vertex map of the provenance among comments, the (line number,
    text) pairs of _read, checked against the n vertices; None without
    vertex comments.  `# modulus p` gives the modulus, the last one kept,
    and `# vertex id origin x y` one vertex; other comments are free-form.
    Every comment is parsed before the map is checked."""
    modulus = None
    vertex_lines = []
    for lineno, line in comments:
        tokens = line.split()
        kind = tokens[1] if len(tokens) >= 2 else None
        if kind == "modulus":
            if len(tokens) != 3:
                raise FormatError("malformed modulus comment", lineno)
            modulus_line, modulus = lineno, _parse_int(tokens[2], "modulus", lineno)
        elif kind == "vertex":
            if len(tokens) != 6:
                raise FormatError("malformed vertex comment", lineno)
            vertex_lines.append((lineno, _parse_int(tokens[2], "vertex id", lineno), tokens[3],
                                 _parse_int(tokens[4], "x coordinate", lineno),
                                 _parse_int(tokens[5], "y coordinate", lineno)))
    if not vertex_lines:
        return None
    if modulus is None:
        raise FormatError("vertex comments without a modulus comment", vertex_lines[0][0])
    if modulus % 2 == 0 or modulus >= PRIME_LIMIT or not is_prime(modulus):
        raise FormatError(f"modulus {modulus} is not an odd prime below {PRIME_LIMIT}",
                          modulus_line)
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
    return VertexMap(modulus, tuple(by_id[i] for i in range(n)))


def _file_pieces(path):
    """The text of the .hg3 file at path, about _CHUNK_CHARS characters of
    whole lines at a time, with the newline translation of Path.read_text."""
    with open(path, encoding="utf-8") as f:
        yield from iter(lambda: f.read(_CHUNK_CHARS) + f.readline(), "")


def file_linear_witness(path) -> tuple[tuple[int, int], int, int] | None:
    """linear_witness of the hypergraph in the .hg3 file at path, which is
    read a piece at a time and never held whole: once to check linearity
    and, only if that fails, once more for the witness.  The file's text
    is read as decode reads it and raises the same FormatError; a file that
    cannot be read raises OSError, and one that is not UTF-8
    UnicodeDecodeError."""
    edges = _read(_file_pieces(path))
    repeats = _repeats(next(edges), edges)
    return _first_repeat(islice(_read(_file_pieces(path)), 1, None), repeats) if repeats else None


def file_instance(path) -> tuple[Hypergraph3, VertexMap | None]:
    """(h, vmap) of the .hg3 file at path, read once as file_linear_witness
    reads it: decode's hypergraph or FormatError, and the vertex map of its
    provenance comments, None when there is none or _vertex_map refuses it."""
    comments = []
    h = _instance(_read(_file_pieces(path), comments))
    try:
        return h, _vertex_map(h.n, comments)
    except FormatError:
        return h, None
