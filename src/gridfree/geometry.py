"""Incidence geometry of the affine plane over an odd prime field.

Points, canonical lines (slope/intercept or vertical), shifted parabolas
y = x^2 + t, secants and where they meet a parabola, and a fully
projective Pascal-hexagon collinearity check: each point is lifted to the
residue triple (x, y, 1), and the sides, their opposite meets and the
final determinant are computed in integers mod p, so parallel sides
meeting at infinity need no special case.  The same check through
projective point objects is kept in tests/oracles.py as
pascal_meets_by_objects.
"""

from __future__ import annotations

from collections.abc import Sequence

from .ffield import (
    FieldElement,
    MixedModulusError,
    Prime,
    inv,
    sqrt_mod,
)
from .record import Record

__all__ = [
    "DegenerateSecantError",
    "AffinePoint",
    "Line",
    "ParabolaSpec",
    "secant_line",
    "line_parabola_intersections",
    "pascal_collinear",
    "pascal_meets_collinear",
    "pascal_meets_residues",
]


class DegenerateSecantError(ValueError):
    """A secant through a repeated parameter does not exist."""


def _same_modulus(*elements: FieldElement) -> Prime:
    mod = elements[0].modulus
    for e in elements[1:]:
        if e.modulus.value != mod.value:
            raise MixedModulusError(
                f"mixed moduli {mod.value} and {e.modulus.value}"
            )
    return mod


class AffinePoint(Record):
    """A point (x, y) of the affine plane over one fixed field."""

    x: FieldElement
    y: FieldElement

    def __post_init__(self) -> None:
        _same_modulus(self.x, self.y)

    @property
    def modulus(self) -> Prime:
        return self.x.modulus


class Line(Record):
    """Canonical affine line: y = m*x + c when m is not None, else x = c.

    Both forms are unique per line, so equal lines have equal fields, and
    record equality and hashing give exact deduplication.
    """

    m: FieldElement | None
    c: FieldElement

    def __post_init__(self) -> None:
        if self.m is not None:
            _same_modulus(self.m, self.c)

    @classmethod
    def vertical(cls, c: FieldElement) -> "Line":
        return cls(None, c)

    @classmethod
    def through(cls, p1: AffinePoint, p2: AffinePoint) -> "Line":
        """The unique line through two distinct points."""
        if p1 == p2:
            raise ValueError("two distinct points required")
        _same_modulus(p1.x, p2.x)
        if p1.x == p2.x:
            return cls(None, p1.x)
        m = (p2.y - p1.y) * inv(p2.x - p1.x)
        return cls(m, p1.y - m * p1.x)

    @property
    def is_vertical(self) -> bool:
        return self.m is None

    def contains(self, point: AffinePoint) -> bool:
        if self.m is None:
            return point.x == self.c
        return point.y == self.m * point.x + self.c


class ParabolaSpec(Record):
    """The conic {(x, x^2 + shift) : x in F_p} for one vertical shift."""

    shift: FieldElement

    @property
    def modulus(self) -> Prime:
        return self.shift.modulus

    def point_at(self, x: FieldElement | int) -> AffinePoint:
        if isinstance(x, int):
            x = FieldElement(x, self.modulus)
        return AffinePoint(x, x * x + self.shift)

    def points(self) -> list[AffinePoint]:
        return [self.point_at(x) for x in range(self.modulus.value)]

    def contains(self, point: AffinePoint) -> bool:
        return point.y == point.x * point.x + self.shift


def secant_line(a: FieldElement, b: FieldElement, parabola: ParabolaSpec) -> Line:
    """Line through the parabola points with parameters a and b (a != b).

    For y = x^2 + t this is y = (a+b)x - ab + t; never vertical because the
    two x coordinates differ.
    """
    _same_modulus(a, b, parabola.shift)
    if a == b:
        raise DegenerateSecantError(f"repeated parameter {a!r}")
    return Line(a + b, -(a * b) + parabola.shift)


def line_parabola_intersections(line: Line, parabola: ParabolaSpec) -> tuple[AffinePoint, ...]:
    """All intersection points of a line with a parabola, ascending by x.

    A vertical line meets y = x^2 + t exactly once.  A slant line leads to
    x^2 - mx + (t - c) = 0, solved by the quadratic formula; a non-residue
    discriminant yields the empty tuple.
    """
    mod = parabola.modulus
    if line.is_vertical:
        return (parabola.point_at(line.c),)
    _same_modulus(line.c, parabola.shift)
    disc = line.m * line.m - 4 * (parabola.shift - line.c)
    roots = sqrt_mod(disc)
    if roots is None:
        return ()
    half = inv(FieldElement(2, mod))
    r = roots[0]
    x1 = (line.m + r) * half
    x2 = (line.m - r) * half
    xs = sorted({x1.residue, x2.residue})
    return tuple(parabola.point_at(x) for x in xs)


def _cross(u, v, p: int) -> tuple[int, int, int]:
    """Cross product mod p of two 3-vectors of residues."""
    return (
        (u[1] * v[2] - u[2] * v[1]) % p,
        (u[2] * v[0] - u[0] * v[2]) % p,
        (u[0] * v[1] - u[1] * v[0]) % p,
    )


def pascal_meets_residues(vecs: Sequence[tuple[int, int, int]], p: int) -> bool:
    """Whether the three opposite-side meets of the hexagon are collinear.

    Hexagon A,B,C,D,E,F in the given order, each point the residue triple
    (x, y, 1) mod p; sides AB..FA; the meets AB^DE, BC^EF, CD^FA are
    computed projectively and tested with a 3x3 determinant.  No conic
    membership is assumed here; this is the bare incidence computation.
    """
    if len(vecs) != 6:
        raise ValueError(f"exactly six points required, got {len(vecs)}")
    if len(set(vecs)) != 6:
        raise ValueError("hexagon points must be pairwise distinct")
    sides = [_cross(vecs[i], vecs[(i + 1) % 6], p) for i in range(6)]
    m1, m2, m3 = [_cross(sides[i], sides[i + 3], p) for i in range(3)]
    # det(m1, m2, m3) = m1 . (m2 x m3)
    return sum(a * b for a, b in zip(m1, _cross(m2, m3, p))) % p == 0


def pascal_meets_collinear(points: Sequence[AffinePoint]) -> bool:
    """pascal_meets_residues on the points' residue triples (x, y, 1)."""
    pts = list(points)
    if len(pts) != 6:
        raise ValueError(f"exactly six points required, got {len(pts)}")
    p = _same_modulus(*(q.x for q in pts)).value
    return pascal_meets_residues([(q.x.residue, q.y.residue, 1) for q in pts], p)


def pascal_collinear(
    hexagon: Sequence[AffinePoint],
    parabola: ParabolaSpec,
    order: Sequence[int] | None = None,
) -> bool:
    """Pascal check for six distinct points of one parabola.

    `order`, when given, is a permutation of range(6) applied before the
    sides are formed.  Points off the conic are rejected; use
    pascal_meets_collinear for arbitrary hexagons.
    """
    pts = list(hexagon)
    if len(pts) != 6:
        raise ValueError(f"exactly six points required, got {len(pts)}")
    if order is not None:
        if sorted(order) != list(range(6)):
            raise ValueError(f"order must be a permutation of 0..5, got {order!r}")
        pts = [pts[i] for i in order]
    if len(set(pts)) != 6:
        raise ValueError("hexagon points must be pairwise distinct")
    for p in pts:
        if not parabola.contains(p):
            raise ValueError(f"point {p!r} is not on the parabola")
    return pascal_meets_collinear(pts)
