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
smaller x coordinate.  The secant through the points with parameters a and
a + d has discriminant d^2 -+ 4, which depends on d alone, so all three
builders filter one table keyed on d: for each d with a square
discriminant, the offsets that put its candidate third points at a + o
(mod p).  That takes p character/root lookups instead of p^2/2.  One sweep
(_Sweep) yields the edges a row of plain int columns at a time, in
canonical order for base and random; qr regroups its rows in per-S
buckets of ints.  construction() hands those column chunks out as a
stream, which the `construct` command counts, or with `--out` writes
straight to its file, and the build_* functions collect into a
Hypergraph3.  Each vertex's provenance is its origin and its point
(x, x^2 + t) as plain residues mod p.  The geometry module recomputes
the same incidences one secant at a time, tests/oracles.py keeps the
pair-by-pair loops, and the tests cross-check all three routes.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from fractions import Fraction

from .ffield import check_prime, chi_table, legendre, min_sqrt_table
from .hypergraph import Hypergraph3, VertexInfo, VertexMap
from .record import Record
from .rng import bernoulli_threshold, splitmix64_stream

__all__ = [
    "SELECTION_RULE",
    "GENERATOR",
    "ConstructionReport",
    "build_base",
    "build_random",
    "build_qr",
    "construction",
    "count_two_point_secants",
    "select_subset",
    "density_ratio",
]

# Tie-break when a secant offers two third points: keep the smaller x.
SELECTION_RULE = "smaller-x"
# Seeded sampling backend recorded in reports; see rng.splitmix64_stream.
GENERATOR = "splitmix64"


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
        density = self.density
        return {
            "p": self.p,
            "kind": self.kind,
            "n": self.n,
            "m": self.m,
            "density_num": density.numerator,
            "density_den": density.denominator,
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


def _secant_offsets(pv: int, shift: int) -> list[tuple[int, int, int]]:
    """The sweep table every builder filters: (d, lo, hi) for each d in
    1..p-1 with chi(d^2 + shift) >= 0, ascending in d.

    The secant through the points with parameters a and b = a + d on one
    parabola meets the other where x^2 - (a + b)x + ab - shift/4 = 0.  Its
    discriminant (a - b)^2 + shift depends on d alone, and its roots are
    a + lo and a + hi (mod p) with lo = (d - r)/2, hi = (d + r)/2 for the
    least square root r (lo == hi when the secant is tangent).  shift is -4
    for secants of V1 meeting V2 and +4 for secants of V2 meeting V1.
    """
    chi = chi_table(pv)
    root = min_sqrt_table(pv)
    inv2 = (pv + 1) // 2
    table = []
    for d in range(1, pv):
        disc = (d * d + shift) % pv
        if chi[disc] >= 0:
            r = root[disc]
            table.append((d, (d - r) * inv2 % pv, (d + r) * inv2 % pv))
    return table


class _Sweep:
    """Every pair a < b of parameters whose secant (see _secant_offsets)
    meets the other parabola inside the pool, one row per a in ascending
    order: columns ([a] * k, [b ...], [w ...]) of vertex ids, b ascending,
    w the candidate with the smaller x.  Reading the rows also counts, in
    two_point, the pairs with two candidates in the pool.

    pool lists the kept x coordinates ascending; the point with x = pool[k]
    is vertex pool_id + k, so the smaller-x candidate is the smaller id w.
    The swept parabola's parameter a is vertex line_id + a.
    """

    def __init__(self, pv: int, shift: int, pool: Sequence[int], pool_id: int,
                 line_id: int = 0):
        self.pv, self.shift, self.pool = pv, shift, pool
        self.pool_id, self.line_id = pool_id, line_id
        self.two_point = 0

    def __iter__(self):
        pv, pool_id = self.pv, self.pool_id
        out = pool_id + len(self.pool)  # above every pool id: x is not in the pool
        ids = [out] * pv
        for rank, x in enumerate(self.pool):
            ids[x] = pool_id + rank
        ids += ids  # ids[a + lo] for a + lo < 2p, without reducing mod p
        table = _secant_offsets(pv, self.shift)
        ds = [d for d, _, _ in table]
        line = list(range(self.line_id, self.line_id + pv))  # the swept ids, one shared int each
        for a in range(pv):
            seconds, thirds = [], []
            two_point = 0
            for d, lo, hi in table[: bisect_left(ds, pv - a)]:
                u = ids[a + lo]
                v = ids[a + hi]
                if v < u:
                    u, v = v, u
                if u < out:
                    seconds.append(line[a + d])
                    thirds.append(u)
                    if u < v < out:
                        two_point += 1
            self.two_point += two_point
            yield [line[a]] * len(seconds), seconds, thirds


def _by_pool_vertex(sweep: _Sweep, pool_size: int):
    """The rows of a sweep whose pool ids 0..pool_size-1 lie below the
    swept ids, regrouped by pool vertex w: one column chunk of the edges
    (w, a, b) per w.  Each w's bucket of plain ints fills in ascending (a, b)
    order, so the chunks come in canonical order."""
    buckets = [[] for _ in range(pool_size)]
    for firsts, seconds, thirds in sweep:
        for a, b, w in zip(firsts, seconds, thirds):
            buckets[w] += a, b
    for w in range(pool_size):
        ab = buckets[w]
        buckets[w] = None  # free each bucket once it is read
        yield [w] * (len(ab) // 2), ab[0::2], ab[1::2]


def construction(kind: str, p: int, rho_num: int | None = None, rho_den: int | None = None,
                 seed: int | None = None):
    """The instance of kind ("base", "random" or "qr") over F_p, ready to
    stream: (vertex map, edge chunks, report).

    The chunks give the edges in canonical order as columns (firsts,
    seconds, thirds), one sweep row at a time (one S vertex at a time for
    qr), so no edge is held as a tuple.  Once every chunk has been read,
    report(m) is the ConstructionReport of the m edges.  rho_num, rho_den
    and seed are build_random's and are only read for kind "random".
    """
    pv = check_prime(p, 5)
    if kind == "qr":
        squares = sorted({x * x % pv for x in range(pv)})
        sweep = _Sweep(pv, 4, squares, 0, len(squares))
        chunks = _by_pool_vertex(sweep, len(squares))
        points = [VertexInfo("S-of-V1", x, x * x % pv) for x in squares]
        points += [VertexInfo("V2", x, (x * x + 1) % pv) for x in range(pv)]
        selection_size = len(squares)
    elif kind in ("base", "random"):
        pool = range(pv) if kind == "base" else select_subset(pv, rho_num, rho_den, seed)
        chunks = sweep = _Sweep(pv, -4, pool, pv)
        origin = "V2" if kind == "base" else "S-of-V2"
        points = [VertexInfo("V1", x, x * x % pv) for x in range(pv)]
        points += [VertexInfo(origin, x, (x * x + 1) % pv) for x in pool]
        selection_size = len(pool) if kind == "random" else None
    else:
        raise ValueError(f"unknown kind {kind!r}")
    vmap = VertexMap(pv, points)

    def report(m: int) -> ConstructionReport:
        return ConstructionReport(pv, kind, len(vmap), m, sweep.two_point, selection_size,
                                  seed if kind == "random" else None)

    return vmap, iter(chunks), report


def _built(vmap: VertexMap, chunks, report) -> tuple[Hypergraph3, VertexMap, ConstructionReport]:
    edges = []
    for firsts, seconds, thirds in chunks:
        edges += zip(firsts, seconds, thirds)
    h = Hypergraph3(len(vmap), edges)
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
    return sum(pv - d for d, lo, hi in _secant_offsets(pv, -4) if lo != hi)


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
    r = Fraction(rho)
    if not 0 <= r <= 1:
        raise ValueError(f"rho must lie in [0, 1], got {r}")
    return (2 * r - r * r) / (4 * (1 + r) ** 2)
