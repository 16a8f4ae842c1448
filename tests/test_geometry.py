import itertools
import random

import pytest

import oracles
from gridfree import (
    InvalidPrimeError,
    legendre,
    line_parabola_intersections,
    pascal_collinear,
    secant_line,
)
from gridfree.geometry import pascal_meets_residues


def F7(a):
    return oracles.Residue(a, 7)


def _lift(points):
    return [(x, y, 1) for x, y in points]


def test_proj_point_canonicalizes():
    two = F7(2)
    a = oracles.ProjPoint(two * F7(3), two * F7(5), two)
    b = oracles.ProjPoint(F7(3), F7(5), F7(1))
    assert a == b
    assert a.Z == F7(1)
    # point at infinity scales onto Y = 1
    c = oracles.ProjPoint(F7(4), F7(2), F7(0))
    assert c.Y == F7(1) and c.Z == F7(0)
    assert len({a, b}) == 1


def test_proj_point_rejects_zero_vector():
    z = F7(0)
    with pytest.raises(ValueError):
        oracles.ProjPoint(z, z, z)


def test_proj_from_affine():
    pp = oracles.ProjPoint.from_affine(10, -5, 7)
    assert (pp.X, pp.Y, pp.Z) == (F7(3), F7(2), F7(1))


def test_secant_line_known_value():
    assert secant_line(1, 2, 0, 7) == (3, 5)
    assert secant_line(8, -5, 1, 7) == (3, 6)
    with pytest.raises(ValueError):
        secant_line(2, 9, 0, 7)
    for bad in (9, 2, 7.0):
        with pytest.raises(InvalidPrimeError):
            secant_line(1, 2, 0, bad)
        with pytest.raises(InvalidPrimeError):
            line_parabola_intersections(3, 5, 1, bad)


def test_secant_passes_through_generating_points():
    for p in (5, 7, 11, 13):
        for t in (0, 1):
            for a, b in itertools.combinations(range(p), 2):
                m, c = secant_line(a, b, t, p)
                for x in (a, b):
                    assert (m * x + c - x * x - t) % p == 0


def test_intersections_match_full_scan():
    # 17 and 41 are 1 mod 8, so their square roots run Tonelli-Shanks' loop
    for p in (5, 7, 11, 13, 17, 41):
        for t in (0, 1):
            for m in range(p):
                for c in range(p):
                    want = [x for x, _ in oracles.intersections_by_scan(p, m, c, t)]
                    assert list(line_parabola_intersections(m, c, t, p)) == want
            # each secant of one parabola against the other
            for a, b in itertools.combinations(range(p), 2):
                m, c = secant_line(a, b, t, p)
                want = [x for x, _ in oracles.intersections_by_scan(p, m, c, 1 - t)]
                assert list(line_parabola_intersections(m, c, 1 - t, p)) == want, (p, t, a, b)


def test_discriminant_classifies_intersections():
    # secants of y=x^2 against y=x^2+1: hit count tracks chi((a-b)^2 - 4)
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        for a, b in itertools.combinations(range(p), 2):
            chi = legendre((a - b) ** 2 - 4, p)
            hits = len(line_parabola_intersections(*secant_line(a, b, 0, p), 1, p))
            assert hits == {1: 2, 0: 1, -1: 0}[chi], (p, a, b)


def test_known_intersection_example():
    assert line_parabola_intersections(3, 5, 1, 7) == (4, 6)
    assert line_parabola_intersections(2, 0, 1, 7) == (1,)
    assert line_parabola_intersections(0, 0, 1, 7) == ()


def test_pascal_on_conic_hexagons():
    for p in (11, 13, 17):
        for xs in itertools.combinations(range(min(p, 9)), 6):
            assert pascal_collinear(xs, p)


def test_pascal_accepts_any_ordering():
    xs = (0, 2, 3, 5, 8, 12)
    for order in itertools.permutations(xs):
        assert pascal_collinear(order, 13)
        assert pascal_meets_residues([(x, x * x % 13, 1) for x in order], 13)
    assert pascal_collinear([x + 13 for x in xs], 13)


def test_pascal_validation_errors():
    with pytest.raises(ValueError, match="six points"):
        pascal_collinear(range(5), 13)
    with pytest.raises(ValueError, match="pairwise distinct"):
        pascal_collinear([0, 1, 2, 3, 4, 4], 13)
    # x and x + p are the same point
    with pytest.raises(ValueError, match="pairwise distinct"):
        pascal_collinear([0, 1, 2, 3, 4, 13], 13)


def test_perturbed_hexagon_breaks_collinearity():
    # frozen counterexample: on y=x^2 over F_7 replace (0,0) by (0,1)
    pts = [(0, 1)] + [(x, x * x % 7) for x in range(1, 6)]
    assert not pascal_meets_residues(_lift(pts), 7)
    assert not oracles.pascal_meets_by_objects(pts, 7)


def test_meets_collinear_requires_six_distinct_points():
    vecs = [(x, x * x % 7, 1) for x in range(6)]
    with pytest.raises(ValueError):
        pascal_meets_residues(vecs[:5], 7)
    with pytest.raises(ValueError):
        pascal_meets_residues(vecs[:5] + [vecs[0]], 7)


def _hexagon(rng: random.Random, p: int, kind: str) -> list[tuple[int, int]]:
    """Six distinct seeded points mod p: on y = x^2, all off it, with two
    pairs of opposite sides parallel, or centrally symmetric (all three
    pairs parallel, so every meet is at infinity)."""
    while True:
        if kind == "on-conic":
            pts = [(x, x * x) for x in rng.sample(range(p), 6)]
        elif kind == "off-conic":
            pts = []
            while len(pts) < 6:
                x, y = rng.randrange(p), rng.randrange(p)
                if (y - x * x) % p:
                    pts.append((x, y))
        else:
            a, b, c, d = [(rng.randrange(p), rng.randrange(p)) for _ in range(4)]
            if kind == "symmetric":
                pts = [a, b, c, (-a[0], -a[1]), (-b[0], -b[1]), (-c[0], -c[1])]
            else:  # AB parallel to DE and CD parallel to FA
                k, j = rng.randrange(1, p), rng.randrange(1, p)
                e = (d[0] + k * (b[0] - a[0]), d[1] + k * (b[1] - a[1]))
                f = (a[0] + j * (d[0] - c[0]), a[1] + j * (d[1] - c[1]))
                pts = [a, b, c, d, e, f]
        pts = [(x % p, y % p) for x, y in pts]
        if len(set(pts)) == 6:
            return pts


def test_pascal_meets_match_object_oracle():
    seen = set()
    for p in (5, 7, 13, 101, 1009):
        rng = random.Random(p)
        for kind in ("on-conic", "off-conic", "parallel", "symmetric"):
            if kind == "on-conic" and p < 6:
                continue  # y = x^2 has only p points
            for _ in range(40):
                pts = _hexagon(rng, p, kind)
                got = pascal_meets_residues(_lift(pts), p)
                assert got == oracles.pascal_meets_by_objects(pts, p), (p, kind, pts)
                if kind == "on-conic":
                    assert got and pascal_collinear([x for x, _ in pts], p)
                seen.add(got)
    assert seen == {True, False}


def test_pascal_residue_core_on_conic_triples():
    # the form cmd_pascal passes: (x, x^2 mod p, 1) for six sampled x
    for p in (7, 13, 1009):
        rng = random.Random(p)
        for _ in range(50):
            xs = rng.sample(range(p), 6)
            vecs = [(x, x * x % p, 1) for x in xs]
            assert pascal_meets_residues(vecs, p)
            assert oracles.pascal_meets_by_objects([v[:2] for v in vecs], p)
    with pytest.raises(ValueError, match="pairwise distinct"):
        pascal_meets_residues([(x, x * x % 7, 1) for x in (0, 1, 2, 3, 4, 0)], 7)
    with pytest.raises(ValueError, match="six points"):
        pascal_meets_residues([(x, x * x % 7, 1) for x in range(5)], 7)


def test_pascal_core_is_projective():
    # An invertible 3x3 matrix mod p keeps every incidence, moves points off
    # z = 1 and sends some to z = 0 (infinity): on the images the core must
    # give the answer the object oracle gives on the affine hexagon.
    at_infinity = 0
    for p in (7, 13, 1009):
        rng = random.Random(p)
        for kind in ("on-conic", "off-conic", "parallel", "symmetric"):
            for _ in range(25):
                pts = _hexagon(rng, p, kind)
                while True:
                    t = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
                    if oracles._det3(*t) % p:
                        break
                images = [tuple(sum(r[j] * v[j] for j in range(3)) % p for r in t)
                          for v in _lift(pts)]
                at_infinity += any(z == 0 for _, _, z in images)
                want = oracles.pascal_meets_by_objects(pts, p)
                assert pascal_meets_residues(images, p) == want, (p, kind, pts, t)
    assert at_infinity > 0
