"""Incidence geometry of the parabolas y = x^2 + t over F_p, on residues.

A point is its residues (x, y) mod p and a non-vertical line y = mx + c is
its pair (m, c); secants of a parabola are never vertical.  Secants of
y = x^2 + t, where a line meets such a parabola (solved by the quadratic
formula with a Tonelli-Shanks root), and a fully projective
Pascal-hexagon collinearity check: each point is lifted to the residue
triple (x, y, 1), and the sides, their opposite meets and the final
determinant are computed in integers mod p, so parallel sides meeting at
infinity need no special case.  The same check through projective point
objects is kept in tests/oracles.py as pascal_meets_by_objects.
"""

from __future__ import annotations

from collections.abc import Sequence

from .ffield import _min_sqrt, check_prime

__all__ = [
    "secant_line",
    "line_parabola_intersections",
    "pascal_collinear",
]


def secant_line(a: int, b: int, shift: int, p: int) -> tuple[int, int]:
    """(m, c) of the line y = mx + c through the points of y = x^2 + shift
    with x = a and x = b, a != b mod p: m = a + b and c = shift - ab."""
    check_prime(p)
    if (a - b) % p == 0:
        raise ValueError(f"a secant needs two distinct parameters, got {a} and {b} mod {p}")
    return (a + b) % p, (shift - a * b) % p


def line_parabola_intersections(slope: int, intercept: int, shift: int, p: int) -> tuple[int, ...]:
    """The x of each point where y = slope*x + intercept meets y = x^2 + shift,
    ascending: the roots of x^2 - slope*x + (shift - intercept) = 0.  A
    non-square discriminant gives the empty tuple, a zero one a single x."""
    check_prime(p)
    r = _min_sqrt(slope * slope - 4 * (shift - intercept), p)
    if r is None:
        return ()
    inv2 = (p + 1) // 2
    return tuple(sorted({(slope + r) * inv2 % p, (slope - r) * inv2 % p}))


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
    membership is assumed here; this is the bare incidence computation,
    and p is taken as an odd prime without a check.
    """
    if len(vecs) != 6:
        raise ValueError(f"exactly six points required, got {len(vecs)}")
    if len(set(vecs)) != 6:
        raise ValueError("hexagon points must be pairwise distinct")
    sides = [_cross(vecs[i], vecs[(i + 1) % 6], p) for i in range(6)]
    m1, m2, m3 = [_cross(sides[i], sides[i + 3], p) for i in range(3)]
    # det(m1, m2, m3) = m1 . (m2 x m3)
    return sum(a * b for a, b in zip(m1, _cross(m2, m3, p))) % p == 0


def pascal_collinear(xs: Sequence[int], p: int) -> bool:
    """Pascal check for the hexagon on y = x^2 whose vertices, in order,
    have the six distinct x coordinates xs: pascal_meets_residues on the
    lifts (x, x^2 mod p, 1).  True for every such hexagon."""
    return pascal_meets_residues([(x % p, x * x % p, 1) for x in xs], p)
