"""Incidence geometry of the parabolas y = x^2 + t over F_p, on residues.

A point is its residues (x, y) mod p and a non-vertical line y = mx + c
its pair (m, c).  Secants of y = x^2 + t, where a line meets such a
parabola (the quadratic formula with a Tonelli-Shanks root), and a fully
projective Pascal-hexagon collinearity check in integers mod p, so
parallel sides meeting at infinity need no special case.  The same check
through projective point objects is tests/oracles.py's
pascal_meets_by_objects.
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


def pascal_meets_residues(vecs: Sequence[tuple[int, int, int]], p: int) -> bool:
    """Whether the three opposite-side meets of the hexagon are collinear.

    Hexagon A,B,C,D,E,F in the given order, each point a residue triple
    (x, y, z) mod p; sides AB..FA; the meets AB^DE, BC^EF, CD^FA are
    computed projectively, each cross product written out, and tested with
    a 3x3 determinant.  No conic membership and no z = 1 are assumed; this
    is the bare incidence computation, and p is taken as an odd prime
    without a check.
    """
    if len(vecs) != 6:
        raise ValueError(f"exactly six points required, got {len(vecs)}")
    if len(set(vecs)) != 6:
        raise ValueError("hexagon points must be pairwise distinct")
    (ax, ay, az), (bx, by, bz), (cx, cy, cz), (dx, dy, dz), (ex, ey, ez), (fx, fy, fz) = vecs
    # (li, mi, ni) is side i of AB..FA; u, v, w the meets, and the result
    # det(u, v, w) = u . (v x w).
    l1, m1, n1 = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
    l2, m2, n2 = by * cz - bz * cy, bz * cx - bx * cz, bx * cy - by * cx
    l3, m3, n3 = cy * dz - cz * dy, cz * dx - cx * dz, cx * dy - cy * dx
    l4, m4, n4 = dy * ez - dz * ey, dz * ex - dx * ez, dx * ey - dy * ex
    l5, m5, n5 = ey * fz - ez * fy, ez * fx - ex * fz, ex * fy - ey * fx
    l6, m6, n6 = fy * az - fz * ay, fz * ax - fx * az, fx * ay - fy * ax
    ux, uy, uz = (m1 * n4 - n1 * m4) % p, (n1 * l4 - l1 * n4) % p, (l1 * m4 - m1 * l4) % p
    vx, vy, vz = (m2 * n5 - n2 * m5) % p, (n2 * l5 - l2 * n5) % p, (l2 * m5 - m2 * l5) % p
    wx, wy, wz = (m3 * n6 - n3 * m6) % p, (n3 * l6 - l3 * n6) % p, (l3 * m6 - m3 * l6) % p
    return not (ux * (vy * wz - vz * wy) + uy * (vz * wx - vx * wz) + uz * (vx * wy - vy * wx)) % p


def pascal_collinear(xs: Sequence[int], p: int) -> bool:
    """Pascal check for the hexagon on y = x^2 whose vertices, in order,
    have the six distinct x coordinates xs: pascal_meets_residues on the
    lifts (x, x^2 mod p, 1).  True for every such hexagon."""
    return pascal_meets_residues([(x % p, x * x % p, 1) for x in xs], p)
