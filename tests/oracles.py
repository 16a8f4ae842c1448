"""Reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way and shares no
arithmetic with the package: full scans instead of closed forms and square
roots, all-subsets enumeration instead of pruned search, random.Random
instead of the package generator, projective points over a minimal field
type of their own, and the audit's plain loops (a coverage rescan per
subset, a pool copy per draw, one comprehension per delta row) as
references for the popcount search, the sparse shuffle and the gathered
rows.  The codec's retired fast paths stay here as references too: the
regex for an edge body in encode's form, decode as one plain loop over
the lines of the whole text, linearity by a set of pair codes, and the
first-repeated-pair loop the CLI once ran.  The package is imported only
for the records and the error the oracles return or raise, the generator
they replay, and the closed form the census reports beside its count.
Seeded generators for random and planted instances also live here so the
tests and the acceptance gate draw from the same well.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from gridfree import FormatError, Hypergraph3, LemmaInstance, closed_form_N, coverage
from gridfree.charsum import SecantCensus
from gridfree.lemma import EXHAUSTIVE_LIMIT
from gridfree.rng import splitmix64_stream

GRID_CANON = ((0, 1, 2), (0, 3, 6), (1, 4, 7), (2, 5, 8), (3, 4, 5), (6, 7, 8))
PRISM_CANON = ((0, 1, 2), (0, 3, 6), (1, 4, 5), (2, 5, 8), (3, 4, 7), (6, 7, 8))
# The Pasch configuration, the smallest linear 2-core: four lines on six points.
PASCH_EDGES = ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5))


def encode_by_lines(h: Hypergraph3, vertex_map=None) -> str:
    """The .hg3 text built one formatted line per vertex comment and per
    edge, with no id table."""
    lines = []
    if vertex_map is not None:
        lines.append(f"# modulus {vertex_map.modulus}")
        for i, info in enumerate(vertex_map.entries):
            lines.append(f"# vertex {i} {info.origin} {info.x} {info.y}")
    lines.append(f"{h.n} {len(h.edges)}")
    for a, b, c in h.edges:
        lines.append(f"{a} {b} {c}")
    return "\n".join(lines) + "\n"


# An edge body exactly as encode writes it: single spaces, no signs, no
# other whitespace, one trailing newline per line.
CANONICAL_BODY = re.compile(r"(?:[0-9]+ [0-9]+ [0-9]+\n)*")


def canonical_body_by_regex(body: str) -> bool:
    """Whether body is whole edge lines in encode's form, by regex."""
    return CANONICAL_BODY.fullmatch(body) is not None


# An integer token as decode reads it: an optional sign, then ASCII digits.
INTEGER = re.compile(r"[+-]?[0-9]+")


def _int_by_regex(token: str, what: str, lineno: int) -> int:
    if INTEGER.fullmatch(token):
        try:
            return int(token)
        except ValueError:  # more digits than int() accepts
            pass
    raise FormatError(f"{what} {token!r} is not an integer", lineno)


def decode_by_lines(text: str) -> Hypergraph3:
    """decode by the plain loops, with no chunk parser: the trailing
    newline checked on the whole text, then its lines split, the comments
    skipped, the header read and every edge line checked one at a time.
    Raises the FormatError decode raises, at the same line with the same
    message."""
    if not text.endswith("\n"):
        raise FormatError("missing trailing newline", text.count("\n") + 1)
    lines = text.split("\n")[:-1]
    idx = 0
    while idx < len(lines) and lines[idx].startswith("#"):
        idx += 1
    if idx == len(lines):
        raise FormatError("missing header", idx)
    header = lines[idx].split()
    if len(header) != 2:
        raise FormatError(f"malformed header {lines[idx]!r}", idx + 1)
    n = _int_by_regex(header[0], "vertex count", idx + 1)
    m = _int_by_regex(header[1], "edge count", idx + 1)
    if n < 0 or m < 0:
        raise FormatError("header counts must be non-negative", idx + 1)
    body = lines[idx + 1:]
    edges = []
    for k in range(m):
        lineno = idx + 2 + k
        if k == len(body):
            raise FormatError(f"expected {m} edges, found {k}", lineno)
        line = body[k]
        if line.startswith("#"):
            raise FormatError("comments are only allowed before the header", lineno)
        tokens = line.split()
        if len(tokens) != 3:
            raise FormatError(f"edge line needs three vertex ids, got {len(tokens)}", lineno)
        a, b, c = (_int_by_regex(t, "vertex id", lineno) for t in tokens)
        if len({a, b, c}) != 3:
            raise FormatError(f"repeated vertex in edge {line!r}", lineno)
        if not a < b < c:
            raise FormatError(f"edge {line!r} not in ascending order", lineno)
        if a < 0 or c >= n:
            raise FormatError(f"vertex id out of range in {line!r}", lineno)
        if edges and (a, b, c) == edges[-1]:
            raise FormatError(f"duplicate edge {line!r}", lineno)
        if edges and (a, b, c) < edges[-1]:
            raise FormatError(f"edge {line!r} out of lexicographic order", lineno)
        edges.append((a, b, c))
    if len(body) > m:
        raise FormatError("unexpected content after the edge list", idx + 2 + m)
    return Hypergraph3(n, tuple(edges))


def sqrt_scan(p: int, a: int) -> list[int]:
    """All y in [0, p) with y*y = a (mod p), by full scan."""
    a %= p
    return [y for y in range(p) if y * y % p == a]


def legendre_scan(p: int, a: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if sqrt_scan(p, a) else -1


def is_linear_by_pairs(edges) -> bool:
    """Naive linearity: no unordered vertex pair appears in two edges."""
    seen = set()
    for e in edges:
        for pair in itertools.combinations(sorted(e), 2):
            if pair in seen:
                return False
            seen.add(pair)
    return True


def is_linear_by_pair_codes(h: Hypergraph3) -> bool:
    """Linearity by counting distinct pair codes: a*n + b codes the pair
    {a, b}, and an edge's three pairs are distinct, so the 3m codes are all
    distinct exactly when no pair repeats across edges."""
    n = h.n
    codes = {a * n + b for a, b, _ in h.edges}
    codes.update([a * n + c for a, _, c in h.edges])
    codes.update([b * n + c for _, b, c in h.edges])
    return len(codes) == 3 * len(h.edges)


def linear_witness_by_loop(h: Hypergraph3):
    """The `verify --checks linear` witness JSON: the first pair that
    repeats in edge-index order, with the earlier edge and the repeating
    one; None for a linear hypergraph."""
    seen = {}
    for idx, (a, b, c) in enumerate(h.edges):
        for pair in ((a, b), (a, c), (b, c)):
            if pair in seen:
                return {"pair": list(pair), "edges": [seen[pair], idx]}
            seen[pair] = idx
    return None


def intersections_by_scan(p: int, slope: int, intercept: int, shift: int):
    """Points of y = slope*x + intercept on the parabola y = x^2 + shift,
    found by scanning every x."""
    out = []
    for x in range(p):
        y = (x * x + shift) % p
        if (slope * x + intercept) % p == y:
            out.append((x, y))
    return out


def _residue_tables(p: int) -> tuple[list[int], list[int | None]]:
    """chi and least square root of every residue, from one scan of y^2."""
    root: list[int | None] = [None] * p
    for y in range(p - 1, -1, -1):
        root[y * y % p] = y
    chi = [0 if a == 0 else (1 if root[a] is not None else -1) for a in range(p)]
    return chi, root


def base_edges_by_pairs(p: int) -> tuple[list[tuple[int, int, int]], int]:
    """Edges of the full construction and its two-point secant count, one
    pair {a, b} of V1 points at a time (the pre-sweep build_base loop)."""
    chi, root = _residue_tables(p)
    inv2 = pow(2, -1, p)
    edges = []
    two_point = 0
    for a in range(p):
        for b in range(a + 1, p):
            disc = ((a - b) * (a - b) - 4) % p
            sign = chi[disc]
            if sign < 0:
                continue
            s = a + b
            if sign == 0:
                w = s * inv2 % p
            else:
                two_point += 1
                r = root[disc]
                w = min((s + r) * inv2 % p, (s - r) * inv2 % p)
            edges.append((a, b, p + w))
    return sorted(tuple(sorted(e)) for e in edges), two_point


def random_edges_by_pairs(p: int, pool) -> tuple[list[tuple[int, int, int]], int]:
    """Edges of the thinned construction for the kept V2 x coordinates in
    pool (ascending), and how many secants had two kept candidates; one
    pair of V1 points at a time (the pre-sweep build_random loop)."""
    in_pool = [False] * p
    pool_id = {}
    for rank, x in enumerate(pool):
        in_pool[x] = True
        pool_id[x] = p + rank
    chi, root = _residue_tables(p)
    inv2 = pow(2, -1, p)
    edges = []
    two_point = 0
    for a in range(p):
        for b in range(a + 1, p):
            disc = ((a - b) * (a - b) - 4) % p
            sign = chi[disc]
            if sign < 0:
                continue
            s = a + b
            if sign == 0:
                cands = (s * inv2 % p,)
            else:
                r = root[disc]
                cands = ((s + r) * inv2 % p, (s - r) * inv2 % p)
            kept = [x for x in cands if in_pool[x]]
            if len(kept) == 2:
                two_point += 1
            if not kept:
                continue
            edges.append((a, b, pool_id[min(kept)]))
    return sorted(tuple(sorted(e)) for e in edges), two_point


def qr_edges_by_pairs(p: int) -> tuple[list[tuple[int, int, int]], int]:
    """Edges of the quadratic-residue thinning (S ids first, then V2) and
    its two-point count; one pair of V2 points at a time (the pre-sweep
    build_qr loop)."""
    squares = sorted({x * x % p for x in range(p)})
    s_id = {x: i for i, x in enumerate(squares)}
    s_size = len(squares)
    chi, root = _residue_tables(p)
    inv2 = pow(2, -1, p)
    edges = []
    two_point = 0
    # Secant of V2 through parameters {a, b} meets V1 where
    # x^2 - (a+b)x + (ab - 1) = 0, discriminant (a-b)^2 + 4.
    for a in range(p):
        for b in range(a + 1, p):
            disc = ((a - b) * (a - b) + 4) % p
            sign = chi[disc]
            if sign < 0:
                continue
            s = a + b
            if sign == 0:
                cands = (s * inv2 % p,)
            else:
                r = root[disc]
                cands = ((s + r) * inv2 % p, (s - r) * inv2 % p)
            kept = [x for x in cands if x in s_id]
            if len(kept) == 2:
                two_point += 1
            if not kept:
                continue
            edges.append((s_id[min(kept)], s_size + a, s_size + b))
    return sorted(tuple(sorted(e)) for e in edges), two_point


def secant_census_by_vieta(p: int) -> SecantCensus:
    """The census from a table of every line that meets y = x^2 + 1.

    A line y = mx + c meets it at x1 and x2 exactly when x1 + x2 = m and
    x1*x2 = 1 - c (Vieta), so each pair x1 <= x2 keys its line to its meet
    count, 1 for x1 = x2 and 2 otherwise; a line not in the table misses
    the parabola.  Each secant y = (s + t)x - st of y = x^2 through two
    squares s < t is looked up there, deduplicated, and cross-checked pair
    by pair against chi((s-t)^2 - 4).  No square root is taken."""
    chi, _ = _residue_tables(p)
    meets = {}
    for x1 in range(p):
        for x2 in range(x1, p):
            meets[(x1 + x2) % p, (1 - x1 * x2) % p] = 1 if x1 == x2 else 2
    xs = sorted({x * x % p for x in range(p)})

    by_line: dict = {}
    for s, t in itertools.combinations(xs, 2):
        by_line.setdefault(((s + t) % p, -s * t % p), []).append((s, t))

    n_two = n_tangent = 0
    for line, pairs in by_line.items():
        count = meets.get(line, 0)
        for s, t in pairs:
            expected = {1: 2, 0: 1, -1: 0}[chi[((s - t) ** 2 - 4) % p]]
            if expected != count:
                raise ArithmeticError(
                    f"discriminant classification disagrees with geometry "
                    f"for pair ({s}, {t}) mod {p}"
                )
        if count == 2:
            n_two += 1
        elif count == 1:
            n_tangent += 1

    total = n_two + n_tangent
    closed = closed_form_N(p)
    return SecantCensus(
        p=p,
        s_size=len(xs),
        pair_count=len(xs) * (len(xs) - 1) // 2,
        n_two=n_two,
        n_tangent=n_tangent,
        n_total=total,
        closed_form=closed,
        matches=total == closed,
    )


def delta_sum_by_rows(p: int) -> int:
    """sum over ordered pairs a != b of chi((a^2 - b^2)^2 - 4), one list
    comprehension per row a."""
    chi, _ = _residue_tables(p)
    g = [chi[(u * u - 4) % p] for u in range(p)]
    sq = [x * x % p for x in range(p)]
    # g[sa - sb] is g[(a^2 - b^2) mod p]: a negative index wraps by p.  The
    # full square of pairs counts each of the p diagonal pairs as g[0].
    total = -p * g[0]
    for sa in sq:
        total += sum([g[sa - sb] for sb in sq])
    return total


def _cross(u, v):
    """Cross product of two 3-vectors of field elements."""
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _det3(r1, r2, r3):
    return (
        r1[0] * (r2[1] * r3[2] - r2[2] * r3[1])
        - r1[1] * (r2[0] * r3[2] - r2[2] * r3[0])
        + r1[2] * (r2[0] * r3[1] - r2[1] * r3[0])
    )


@dataclass(frozen=True)
class Residue:
    """An element of F_p with just the operations the projective route
    uses: +, -, * within one field and a multiplicative inverse."""

    value: int
    p: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value % self.p)

    def _check(self, other: "Residue") -> None:
        if other.p != self.p:
            raise ValueError(f"cannot combine residues mod {self.p} and mod {other.p}")

    def __add__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue(self.value + other.value, self.p)

    def __sub__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue(self.value - other.value, self.p)

    def __mul__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue(self.value * other.value, self.p)

    def inverse(self) -> "Residue":
        return Residue(pow(self.value, -1, self.p), self.p)


@dataclass(frozen=True)
class ProjPoint:
    """Homogeneous coordinates (X : Y : Z), not all zero, stored canonically
    with the last nonzero coordinate scaled to 1 so equality and hashing
    are well defined."""

    X: Residue
    Y: Residue
    Z: Residue

    def __post_init__(self) -> None:
        coords = (self.X, self.Y, self.Z)
        if len({c.p for c in coords}) != 1:
            raise ValueError("projective coordinates mix moduli")
        last = next((c for c in reversed(coords) if c.value != 0), None)
        if last is None:
            raise ValueError("projective point needs a nonzero coordinate")
        if last.value != 1:
            s = last.inverse()
            object.__setattr__(self, "X", self.X * s)
            object.__setattr__(self, "Y", self.Y * s)
            object.__setattr__(self, "Z", self.Z * s)

    @classmethod
    def from_affine(cls, x: int, y: int, p: int) -> "ProjPoint":
        return cls(Residue(x, p), Residue(y, p), Residue(1, p))


def pascal_meets_by_objects(points, p: int) -> bool:
    """Opposite-side meets AB^DE, BC^EF, CD^FA of six affine points (x, y)
    mod p, each lifted to a ProjPoint, with cross products and the
    determinant taken over Residue objects."""
    lifted = [ProjPoint.from_affine(x, y, p) for x, y in points]
    vecs = [(q.X, q.Y, q.Z) for q in lifted]
    sides = [_cross(vecs[i], vecs[(i + 1) % 6]) for i in range(6)]
    meets = [_cross(sides[i], sides[i + 3]) for i in range(3)]
    return _det3(*meets).value == 0


def _edge_mask(edge) -> int:
    a, b, c = edge
    return (1 << a) | (1 << b) | (1 << c)


def _grid_split_ok(rows, cols, edges) -> bool:
    rs = [set(edges[i]) for i in rows]
    cs = [set(edges[i]) for i in cols]
    for s, t in itertools.combinations(rs, 2):
        if s & t:
            return False
    for s, t in itertools.combinations(cs, 2):
        if s & t:
            return False
    if rs[0] | rs[1] | rs[2] != cs[0] | cs[1] | cs[2]:
        return False
    return all(len(r & c) == 1 for r in rs for c in cs)


def grid_all_six_subsets(h: Hypergraph3):
    """Exhaustive grid search over every 6-subset of edges; returns the
    lexicographically least (rows, cols) pair or None."""
    masks = [_edge_mask(e) for e in h.edges]
    best = None
    for combo in itertools.combinations(range(h.m), 6):
        union = 0
        for i in combo:
            union |= masks[i]
        if union.bit_count() != 9:
            continue
        for rows_at in itertools.combinations(range(6), 3):
            rows = tuple(combo[i] for i in rows_at)
            cols = tuple(combo[i] for i in range(6) if i not in rows_at)
            if _grid_split_ok(rows, cols, h.edges):
                cand = (rows, cols)
                if best is None or cand < best:
                    best = cand
    return best


def grid_row_triple_scan(h: Hypergraph3):
    """Grid search by scanning every pairwise disjoint row triple, then every
    column triple among the edges inside it (about m^4); returns the
    lexicographically least (rows, cols) pair or None."""
    m = len(h.edges)
    masks = [_edge_mask(e) for e in h.edges]
    for i in range(m - 2):
        mi = masks[i]
        for j in range(i + 1, m - 1):
            mj = masks[j]
            if mi & mj:
                continue
            mij = mi | mj
            for k in range(j + 1, m):
                mk = masks[k]
                if mij & mk:
                    continue
                union = mij | mk
                cols = _grid_cols(masks, (mi, mj, mk), union)
                if cols is not None:
                    return ((i, j, k), cols)
    return None


def _grid_cols(masks, row_masks, union):
    cand = [
        e
        for e, me in enumerate(masks)
        if me | union == union
        and all((me & r).bit_count() == 1 for r in row_masks)
    ]
    for c1, c2, c3 in itertools.combinations(cand, 3):
        m1, m2, m3 = masks[c1], masks[c2], masks[c3]
        if m1 & m2 or (m1 | m2) & m3:
            continue
        return (c1, c2, c3)
    return None


def prism_by_embedding(h: Hypergraph3) -> tuple[int, ...] | None:
    """All-embeddings backtracking matcher for the prism; returns the minimal
    sorted edge-index tuple over every injective label-to-vertex embedding.
    PRISM_CANON lists the prism in search order: after the first edge every
    later one shares a label with what is already placed."""
    template = PRISM_CANON
    m = len(h.edges)
    incident: dict[int, set[int]] = {}
    for ei, e in enumerate(h.edges):
        for v in e:
            incident.setdefault(v, set()).add(ei)
    n_labels = 1 + max(l for t in template for l in t)
    assign: list[int | None] = [None] * n_labels
    used_v: set[int] = set()
    used_e: set[int] = set()
    best: list[tuple[int, ...] | None] = [None]

    def place(slot: int) -> None:
        if slot == len(template):
            key = tuple(sorted(used_e))
            if best[0] is None or key < best[0]:
                best[0] = key
            return
        labels = template[slot]
        bound = [assign[l] for l in labels if assign[l] is not None]
        free = [l for l in labels if assign[l] is None]
        if bound:
            cand = set.intersection(*(incident.get(v, set()) for v in bound))
        else:
            cand = set(range(m))
        for ei in sorted(cand - used_e):
            rest = [v for v in h.edges[ei] if v not in bound]
            if len(rest) != len(free):
                continue
            for perm in itertools.permutations(rest):
                if any(v in used_v for v in perm):
                    continue
                for l, v in zip(free, perm):
                    assign[l] = v
                    used_v.add(v)
                used_e.add(ei)
                place(slot + 1)
                used_e.discard(ei)
                for l in free:
                    used_v.discard(assign[l])
                    assign[l] = None

    place(0)
    return best[0]


def small_two_core_by_subsets(h: Hypergraph3, max_vertices: int) -> tuple[int, ...] | None:
    """The least sorted edge-index tuple over every non-empty edge subset
    spanning at most max_vertices vertices in which every covered vertex
    has degree >= 2, or None.  Tuples compare as a depth-first search
    visits them: a prefix comes before its extensions."""
    best = None
    for r in range(1, h.m + 1):
        for combo in itertools.combinations(range(h.m), r):
            deg = Counter(v for i in combo for v in h.edges[i])
            if len(deg) <= max_vertices and min(deg.values()) >= 2:
                if best is None or combo < best:
                    best = combo
    return best


def random_hypergraph(rng: random.Random, n: int, m: int) -> Hypergraph3:
    """Uniform distinct triples; linearity not guaranteed."""
    m = min(m, n * (n - 1) * (n - 2) // 6)
    chosen = set()
    while len(chosen) < m:
        chosen.add(tuple(sorted(rng.sample(range(n), 3))))
    return Hypergraph3.from_edges(n, sorted(chosen))


def random_linear_hypergraph(
    rng: random.Random, n: int, m_target: int, tries: int = 2000
) -> Hypergraph3:
    """Grow a linear hypergraph by rejection; may stop short of m_target."""
    edges: list[tuple[int, int, int]] = []
    pairs: set[tuple[int, int]] = set()
    for _ in range(tries):
        if len(edges) == m_target:
            break
        e = tuple(sorted(rng.sample(range(n), 3)))
        ps = list(itertools.combinations(e, 2))
        if any(q in pairs for q in ps):
            continue
        edges.append(e)
        pairs.update(ps)
    return Hypergraph3.from_edges(n, edges)


def _plant(rng: random.Random, pattern, n_extra: int, m_extra: int) -> Hypergraph3:
    n = 9 + n_extra
    labels = rng.sample(range(n), 9)
    edges = [tuple(sorted(labels[v] for v in e)) for e in pattern]
    pairs = {q for e in edges for q in itertools.combinations(e, 2)}
    budget = 2000
    while m_extra > 0 and budget > 0:
        budget -= 1
        e = tuple(sorted(rng.sample(range(n), 3)))
        ps = list(itertools.combinations(e, 2))
        if e in edges or any(q in pairs for q in ps):
            continue
        edges.append(e)
        pairs.update(ps)
        m_extra -= 1
    return Hypergraph3.from_edges(n, edges)


def plant_grid(rng: random.Random, n_extra: int = 12, m_extra: int = 10) -> Hypergraph3:
    """Random linear hypergraph guaranteed to contain a 3x3 grid."""
    return _plant(rng, GRID_CANON, n_extra, m_extra)


def plant_prism(rng: random.Random, n_extra: int = 12, m_extra: int = 10) -> Hypergraph3:
    """Random linear hypergraph guaranteed to contain a prism."""
    return _plant(rng, PRISM_CANON, n_extra, m_extra)


def peel_random_order(h: Hypergraph3, rng: random.Random) -> Hypergraph3:
    """2-core by peeling vertices of degree <= 1 in random order, then
    relabelling the survivors in ascending order (mirrors the library's
    output format so results are directly comparable)."""
    alive_edges = set(range(h.m))
    incident: dict[int, set[int]] = {v: set() for v in range(h.n)}
    for i, e in enumerate(h.edges):
        for v in e:
            incident[v].add(i)
    removed: set[int] = set()
    while True:
        low = [v for v in range(h.n) if v not in removed and len(incident[v]) <= 1]
        if not low:
            break
        v = rng.choice(low)
        removed.add(v)
        for i in list(incident[v]):
            if i in alive_edges:
                alive_edges.discard(i)
                for u in h.edges[i]:
                    incident[u].discard(i)
    kept = sorted(v for v in range(h.n) if v not in removed and incident[v])
    relabel = {v: j for j, v in enumerate(kept)}
    edges = [tuple(sorted(relabel[v] for v in h.edges[i])) for i in sorted(alive_edges)]
    return Hypergraph3.from_edges(len(kept), edges)


def random_pair_family(rng: random.Random, n: int) -> tuple[tuple[int, int], ...]:
    pool = list(itertools.combinations(range(n), 2))
    size = rng.randint(0, len(pool))
    return tuple(sorted(rng.sample(pool, size)))


def average_coverage_direct(n: int, k: int, family) -> Fraction:
    """Mean covered-pair count over every k-subset, computed directly."""
    total = 0
    count = 0
    for sub in itertools.combinations(range(n), k):
        inside = set(sub)
        total += sum(1 for a, b in family if a in inside or b in inside)
        count += 1
    return Fraction(total, count)


def best_subset_by_coverage(N: int, k: int, H) -> tuple[tuple[int, ...], int]:
    """Maximizer of coverage over itertools.combinations(range(N), k), each
    subset rescanned against all of H; ties go to the first subset met."""
    inst = LemmaInstance(N, k, tuple(H))
    if N > EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"N={N} is too large for exhaustive search (limit {EXHAUSTIVE_LIMIT})"
        )
    best_s: tuple[int, ...] = ()
    best_c = -1
    for S in itertools.combinations(range(N), k):
        c = coverage(S, inst.H)
        if c > best_c:
            best_s, best_c = S, c
    return best_s, best_c


def sample_distinct_by_pool(n: int, k: int, seed: int) -> tuple[int, ...]:
    """Partial Fisher-Yates over a full copy of range(n), driven by
    splitmix64."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    pool = list(range(n))
    stream = splitmix64_stream(seed)
    for i in range(k):
        j = i + next(stream) % (n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(pool[:k])
