import itertools
import random

import pytest

import oracles
from gridfree import (
    AffinePoint,
    DegenerateSecantError,
    Line,
    MixedModulusError,
    ParabolaSpec,
    Prime,
    legendre,
    line_parabola_intersections,
    pascal_collinear,
    pascal_meets_collinear,
    secant_line,
)
from gridfree.geometry import pascal_meets_residues

F7 = Prime(7)
F13 = Prime(13)


def test_affine_point_rejects_mixed_moduli():
    with pytest.raises(MixedModulusError):
        AffinePoint(Prime(5)(1), F7(1))


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
    pt = AffinePoint(F7(3), F7(2))
    pp = oracles.ProjPoint.from_affine(pt)
    assert (pp.X, pp.Y, pp.Z) == (F7(3), F7(2), F7(1))


def test_line_through_and_contains():
    a = AffinePoint(F7(1), F7(1))
    b = AffinePoint(F7(2), F7(4))
    line = Line.through(a, b)
    assert not line.is_vertical
    assert line.contains(a) and line.contains(b)
    v = Line.through(AffinePoint(F7(2), F7(0)), AffinePoint(F7(2), F7(5)))
    assert v.is_vertical
    assert v.contains(AffinePoint(F7(2), F7(6)))
    assert not v.contains(AffinePoint(F7(3), F7(6)))
    with pytest.raises(ValueError):
        Line.through(a, a)


def test_parabola_basics():
    v2 = ParabolaSpec(F7(1))
    assert v2.point_at(3) == AffinePoint(F7(3), F7(3))
    assert v2.point_at(F7(3)) == v2.point_at(3)
    pts = v2.points()
    assert len(pts) == 7
    assert all(v2.contains(q) for q in pts)
    assert not v2.contains(AffinePoint(F7(0), F7(0)))


def test_secant_line_known_value():
    v1 = ParabolaSpec(F7(0))
    line = secant_line(F7(1), F7(2), v1)
    assert (line.m, line.c) == (F7(3), F7(5))
    with pytest.raises(DegenerateSecantError):
        secant_line(F7(2), F7(2), v1)


def test_secant_passes_through_generating_points():
    for p in (5, 7, 11, 13):
        P = Prime(p)
        for t in (0, 1):
            par = ParabolaSpec(P(t))
            for a, b in itertools.combinations(range(p), 2):
                line = secant_line(P(a), P(b), par)
                assert line.contains(par.point_at(a))
                assert line.contains(par.point_at(b))


def test_intersections_match_full_scan():
    for p in (5, 7, 11, 13):
        P = Prime(p)
        for t in (0, 1):
            par = ParabolaSpec(P(t))
            for m in range(p):
                for c in range(p):
                    got = line_parabola_intersections(Line(P(m), P(c)), par)
                    want = oracles.intersections_by_scan(p, m, c, t)
                    assert [(q.x.residue, q.y.residue) for q in got] == want
            for vx in range(p):
                got = line_parabola_intersections(Line.vertical(P(vx)), par)
                assert [(q.x.residue, q.y.residue) for q in got] == \
                    oracles.intersections_by_scan(p, None, vx, t)


def test_discriminant_classifies_intersections():
    # secants of y=x^2 against y=x^2+1: hit count tracks chi((a-b)^2 - 4)
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        P = Prime(p)
        v1 = ParabolaSpec(P(0))
        v2 = ParabolaSpec(P(1))
        for a, b in itertools.combinations(range(p), 2):
            d = P(a) - P(b)
            chi = legendre(d * d - 4)
            hits = len(line_parabola_intersections(secant_line(P(a), P(b), v1), v2))
            assert hits == {1: 2, 0: 1, -1: 0}[chi], (p, a, b)


def test_known_intersection_example():
    v2 = ParabolaSpec(F7(1))
    pts = line_parabola_intersections(Line(F7(3), F7(5)), v2)
    assert [(q.x.residue, q.y.residue) for q in pts] == [(4, 3), (6, 2)]


def test_pascal_on_conic_hexagons():
    for p in (11, 13, 17):
        P = Prime(p)
        par = ParabolaSpec(P(0))
        for xs in itertools.combinations(range(min(p, 9)), 6):
            assert pascal_collinear([par.point_at(x) for x in xs], par)


def test_pascal_accepts_any_ordering():
    par = ParabolaSpec(F13(0))
    pts = [par.point_at(x) for x in (0, 2, 3, 5, 8, 12)]
    for order in itertools.permutations(range(6)):
        assert pascal_meets_collinear([pts[i] for i in order])
    assert pascal_collinear(pts, par, order=(5, 0, 3, 1, 4, 2))


def test_pascal_validation_errors():
    par = ParabolaSpec(F13(0))
    pts = [par.point_at(x) for x in range(6)]
    with pytest.raises(ValueError):
        pascal_collinear(pts[:5], par)
    with pytest.raises(ValueError):
        pascal_collinear(pts[:5] + [pts[4]], par)
    off = [AffinePoint(F13(0), F13(5))] + pts[1:]
    with pytest.raises(ValueError):
        pascal_collinear(off, par)
    with pytest.raises(ValueError):
        pascal_collinear(pts, par, order=(0, 0, 1, 2, 3, 4))


def test_perturbed_hexagon_breaks_collinearity():
    # frozen counterexample: on y=x^2 over F_7 replace (0,0) by (0,1)
    par = ParabolaSpec(F7(0))
    pts = [AffinePoint(F7(0), F7(1))] + [par.point_at(x) for x in range(1, 6)]
    assert not pascal_meets_collinear(pts)
    with pytest.raises(ValueError):
        pascal_collinear(pts, par)


def test_meets_collinear_requires_six_distinct_points():
    par = ParabolaSpec(F7(0))
    pts = [par.point_at(x) for x in range(6)]
    with pytest.raises(ValueError):
        pascal_meets_collinear(pts[:5])
    with pytest.raises(ValueError):
        pascal_meets_collinear(pts[:5] + [pts[0]])


def _hexagon(rng: random.Random, p: int, kind: str) -> list[AffinePoint]:
    """Six distinct seeded points mod p: on y = x^2, all off it, with two
    pairs of opposite sides parallel, or centrally symmetric (all three
    pairs parallel, so every meet is at infinity)."""
    P = Prime(p)
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
            return [AffinePoint(P(x), P(y)) for x, y in pts]


def test_pascal_meets_match_object_oracle():
    seen = set()
    for p in (5, 7, 13, 101, 1009):
        rng = random.Random(p)
        par = ParabolaSpec(Prime(p)(0))
        for kind in ("on-conic", "off-conic", "parallel", "symmetric"):
            if kind == "on-conic" and p < 6:
                continue  # y = x^2 has only p points
            for _ in range(40):
                pts = _hexagon(rng, p, kind)
                got = pascal_meets_collinear(pts)
                assert got == oracles.pascal_meets_by_objects(pts), (p, kind, pts)
                if kind == "on-conic":
                    assert got and pascal_collinear(pts, par)
                seen.add(got)
    assert seen == {True, False}


def test_pascal_meets_reject_mixed_moduli():
    pts = [AffinePoint(F7(x), F7(x * x)) for x in range(5)]
    with pytest.raises(MixedModulusError):
        pascal_meets_collinear(pts + [AffinePoint(F13(5), F13(12))])


def test_pascal_residue_core_on_conic_triples():
    # the form cmd_pascal passes: (x, x^2 mod p, 1) for six sampled x
    for p in (7, 13, 1009):
        rng = random.Random(p)
        for _ in range(50):
            xs = rng.sample(range(p), 6)
            vecs = [(x, x * x % p, 1) for x in xs]
            assert pascal_meets_residues(vecs, p)
            pts = [AffinePoint(Prime(p)(x), Prime(p)(y)) for x, y, _ in vecs]
            assert oracles.pascal_meets_by_objects(pts)
    with pytest.raises(ValueError, match="pairwise distinct"):
        pascal_meets_residues([(x, x * x % 7, 1) for x in (0, 1, 2, 3, 4, 0)], 7)
    with pytest.raises(ValueError, match="six points"):
        pascal_meets_residues([(x, x * x % 7, 1) for x in range(5)], 7)
