"""The three parabola constructions and their exact count reports.

All of them live over F_p, p an odd prime >= 5, on the two parabolas
V1 = {(x, x^2)} and V2 = {(x, x^2 + 1)}:

* build_base: every secant of V1 that meets V2 contributes the triple of
  its two V1 points and one chosen V2 point.
* build_random: V2 is first thinned to a random subset S by independent
  seeded coin flips with rational probability; secants pick their third
  point inside S.
* build_qr: the roles flip and V1 is thinned deterministically to the
  points whose x coordinate is a square; secants of V2 pick their third
  point there.

The third point, when two candidates exist, is always the one with the
smaller x coordinate.  The secant of V1 through its points at a and
a + d meets V2 at a + lo and a + hi, offsets that depend on d alone, so
every builder reads one table keyed on d (_secant_offsets): p lookups
of d^2 - 4's least root instead of p^2/2.  qr reads it from its squares,
since each V2 pair lies on the secant (or, for d = 0, the tangent)
through the square it picks.  One row generator (_secant_rows, or
_square_rows for qr) yields the edges in canonical order, one row of
plain int columns per first vertex, which construction() hands out as a
stream: the `construct` command counts it or writes it straight to its
`--out` file, and the build_* functions collect it into a Hypergraph3,
each through one check, hypergraph._checked_chunks.  Provenance is each
vertex's origin and its point (x, x^2 + t) as residues mod p.  The
geometry module recomputes the incidences one secant at a time and
tests/oracles.py pair by pair, and the tests cross-check all three routes.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from itertools import chain
from math import gcd

from .ffield import check_prime, legendre, min_sqrt_table
from .hypergraph import Hypergraph3, VertexInfo, VertexMap, _checked_chunks, _instance
from .record import Record
from .rng import bernoulli_threshold, splitmix64_stream

__all__ = [
    "ConstructionReport",
    "build_base",
    "build_random",
    "build_qr",
    "count_two_point_secants",
    "density_ratio",
]

class ConstructionReport(Record):
    """What was counted for one built instance; the rest is derived.

    two_point_secants counts the qualifying lines that offered two
    candidate third points inside the thinned pool (for the base
    construction the pool is all of V2).  predicted_m is the closed form
    p(p - chi(-1))/4, only meaningful for kind="base" where it must match
    the enumeration.
    """

    p: int
    kind: str
    n: int
    m: int
    two_point_secants: int
    selection_size: int | None
    seed: int | None

    def __post_init__(self) -> None:
        if self.kind not in ("base", "random", "qr"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "base" and self.m != self.predicted_m:
            raise ArithmeticError(
                f"enumerated m={self.m} disagrees with closed form {self.predicted_m}"
            )

    @property
    def density(self) -> Fraction:
        from fractions import Fraction  # it imports decimal: loaded only when a rational is built

        return Fraction(self.m, self.n * self.n)

    @property
    def chi_minus_1(self) -> int:
        return legendre(-1, self.p)

    @property
    def predicted_m(self) -> int | None:
        if self.kind != "base":
            return None
        return self.p * (self.p - self.chi_minus_1) // 4

    def to_json_dict(self) -> dict:
        nn = self.n * self.n
        g = gcd(self.m, nn)  # density m/n^2 in lowest terms, as Fraction would give it
        return {
            "p": self.p,
            "kind": self.kind,
            "n": self.n,
            "m": self.m,
            "density_num": self.m // g,
            "density_den": nn // g,
            "chi_minus_1": self.chi_minus_1,
            "predicted_m": self.predicted_m,
            "two_point_secants": self.two_point_secants,
            "selection_size": self.selection_size,
            "seed": self.seed,
        }


def select_subset(p: int, rho_num: int, rho_den: int, seed: int) -> list[int]:
    """x coordinates of the V2 points kept by the seeded coin flips, one
    64-bit draw per x in ascending order."""
    pv = check_prime(p, 5)
    _check_seed(seed)
    threshold = bernoulli_threshold(rho_num, rho_den)
    stream = splitmix64_stream(seed)
    return [x for x in range(pv) if next(stream) < threshold]


def _check_seed(seed: int) -> None:
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < (1 << 64):
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")


def _secant_offsets(pv: int) -> list[tuple[int, int, int]]:
    """The one sweep table: (d, lo, hi) for each d in 0..p-1 whose d^2 - 4
    has a root in min_sqrt_table (chi(d^2 - 4) >= 0), ascending in d.

    The secant of V1 through its points at a and a + d (for d = 0, the
    tangent at a) meets V2 where x^2 - (2a + d)x + a(a + d) + 1 = 0, with
    discriminant d^2 - 4, at a + lo and a + hi (mod p): lo = (d - r)/2 and
    hi = (d + r)/2 for the least square root r, lo == hi when the line is
    tangent to V2.  The d = 0 row exists when p = 1 (mod 4).
    """
    root = min_sqrt_table(pv)
    inv2 = (pv + 1) // 2
    table = []
    for d in range(pv):
        r = root[(d * d - 4) % pv]
        if r is not None:
            table.append((d, (d - r) * inv2 % pv, (d + r) * inv2 % pv))
    return table


def _secant_rows(pv: int, table, ids, out: int, two_point: list[int]):
    """Base and random: the edges in canonical order as columns ([a] * k,
    [b ...], [c ...]) of vertex ids, one row per V1 vertex a, ascending in
    b.  V1's point a is vertex a and the pool's k-th point of V2 is vertex
    p + k; ids[x] is the pool vertex at x mod p, or out.  Row a takes each
    a + d < p whose secant meets V2 in the pool, with its smaller
    candidate; two_point[0] counts the secants with both candidates in the
    pool.
    """
    ds = [d for d, _, _ in table]
    start = bisect_left(ds, 1)  # the tangent at a (d = 0) has no second V1 point
    line = list(range(pv))  # the V1 ids, one shared int each
    for a in range(pv):
        seconds, thirds = [], []
        both = 0
        for d, lo, hi in table[start: bisect_left(ds, pv - a)]:
            u, v = ids[a + lo], ids[a + hi]
            if v < u:
                u, v = v, u
            if u < out:
                seconds.append(line[a + d])
                thirds.append(u)
                if u < v < out:
                    both += 1
        two_point[0] += both
        yield [line[a]] * len(seconds), seconds, thirds


def _square_rows(pv: int, table, ids, out: int, two_point: list[int], pool: Sequence[int]):
    """qr: the same columns with V1's squares S as the pool, pool[k] vertex
    k and V2's point x vertex |S| + x.  Row k takes the V2 pair {s + lo,
    s + hi}, s = pool[k], of each table row with lo != hi unless s + d is
    a smaller square; two_point[0] counts the lines with two candidate
    squares, once each, at the smaller.  The line through s and one V2
    point fixes the other, so each smaller V2 id occurs once.
    """
    v2 = list(range(out, out + pv)) * 2  # V2's ids, one shared int each
    pairs = [row for row in table if row[1] != row[2]]
    for k, s in enumerate(pool):
        row = {}
        for d, lo, hi in pairs:
            t = ids[s + d]
            if t < k:
                continue
            if k < t < out:
                two_point[0] += 1
            u, v = v2[s + lo], v2[s + hi]
            if v < u:
                u, v = v, u
            row[u] = v
        seconds = sorted(row)
        yield [k] * len(seconds), seconds, list(map(row.__getitem__, seconds))


def construction(kind: str, p: int, rho_num: int | None = None, rho_den: int | None = None,
                 seed: int | None = None):
    """The instance of kind ("base", "random" or "qr") over F_p, ready to
    stream: (vertex map, edge chunks, report).

    The chunks give the edges in canonical order as columns (firsts,
    seconds, thirds), one sweep row at a time, so no edge is held as a
    tuple.  Once every chunk has been read, report(m) is the
    ConstructionReport of the m edges.  rho_num, rho_den and seed are
    build_random's and are only read for kind "random".
    """
    pv = check_prime(p, 5)
    if kind == "qr":
        pool = sorted({x * x % pv for x in range(pv)})
        points = [VertexInfo("S-of-V1", x, x * x % pv) for x in pool]
        points += [VertexInfo("V2", x, (x * x + 1) % pv) for x in range(pv)]
    elif kind in ("base", "random"):
        pool = range(pv) if kind == "base" else select_subset(pv, rho_num, rho_den, seed)
        origin = "V2" if kind == "base" else "S-of-V2"
        points = [VertexInfo("V1", x, x * x % pv) for x in range(pv)]
        points += [VertexInfo(origin, x, (x * x + 1) % pv) for x in pool]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    first = 0 if kind == "qr" else pv  # the pool's first vertex id
    out = first + len(pool)  # above every pool id: x is not in the pool
    ids = [out] * pv
    for rank, x in enumerate(pool):
        ids[x] = first + rank
    ids += ids  # ids[a + lo] for a + lo < 2p, without reducing mod p
    two_point = [0]
    args = (pv, _secant_offsets(pv), ids, out, two_point)
    rows = _square_rows(*args, pool) if kind == "qr" else _secant_rows(*args)
    selection_size = None if kind == "base" else len(pool)
    vmap = VertexMap(pv, points)

    def report(m: int) -> ConstructionReport:
        return ConstructionReport(pv, kind, len(vmap), m, two_point[0], selection_size,
                                  seed if kind == "random" else None)

    return vmap, rows, report


def _built(vmap: VertexMap, chunks, report) -> tuple[Hypergraph3, VertexMap, ConstructionReport]:
    h = _instance(chain([len(vmap)], _checked_chunks(len(vmap), chunks)))
    return h, vmap, report(h.m)


def build_base(p: int) -> tuple[Hypergraph3, VertexMap, ConstructionReport]:
    """Full construction on V1 union V2 (ids 0..p-1 then p..2p-1, by x).

    A pair {a, b} of V1 points qualifies iff chi((a-b)^2 - 4) >= 0; its
    edge takes the smaller-x intersection of the secant with V2.  The edge
    count must equal p(p - chi(-1))/4.
    """
    return _built(*construction("base", p))


def count_two_point_secants(p: int) -> int:
    """Number of V1 secants meeting V2 in two points: the pairs with
    chi((a-b)^2 - 4) = +1, expected p(p - chi(-1) - 4)/4."""
    pv = check_prime(p, 5)
    return sum(pv - d for d, lo, hi in _secant_offsets(pv) if 0 < d and lo != hi)


def build_random(
    p: int, rho_num: int, rho_den: int, seed: int
) -> tuple[Hypergraph3, VertexMap, ConstructionReport]:
    """Thinned construction: keep each V2 point with probability
    rho_num/rho_den (seeded, reproducible), then give every qualifying V1
    secant with at least one kept intersection its smaller-x kept point.

    With rho = 1 the edge set equals build_base(p); with rho = 0 the
    result has no edges and only the p V1 vertices.
    """
    return _built(*construction("random", p, rho_num, rho_den, seed))


def build_qr(p: int) -> tuple[Hypergraph3, VertexMap, ConstructionReport]:
    """Deterministic thinning: S is the set of V1 points whose x coordinate
    is a square (zero included, |S| = (p+1)/2), vertices are S then V2
    (ids 0..|S|-1 and |S|..|S|+p-1, each block ascending by x).  Every
    secant of V2 whose intersection with V1 contains a square x picks the
    smallest such x."""
    return _built(*construction("qr", p))


def density_ratio(rho) -> Fraction:
    """Asymptotic density multiplier of the random thinning as an exact
    rational: (2*rho - rho^2) / (4 * (1 + rho)^2) for rho in [0, 1]."""
    from fractions import Fraction  # it imports decimal: loaded only when a rational is built

    r = Fraction(rho)
    if not 0 <= r <= 1:
        raise ValueError(f"rho must lie in [0, 1], got {r}")
    return (2 * r - r * r) / (4 * (1 + r) ** 2)
