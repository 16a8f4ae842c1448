"""Character-sum identities and the secant census behind the closed form.

The thinned point set here is S = {(a^2, a^4) : a in F_p}, i.e. the points
of y = x^2 whose x coordinate is a square (zero included).  The census
counts the distinct lines through two points of S that meet the shifted
parabola y = x^2 + 1, split by tangency, and compares the total against
the piecewise closed form

    N(p) = (p+1)^2 / 16        if p = 3 (mod 4)
    N(p) = (p-1)^2 / 16 + 2    if p = 1 (mod 4).

Supporting identities, each checked by direct enumeration:
sum_x chi(x^2 - 4) = -1, sum_{a != b} chi((a^2-b^2)^2 - 4) = -(p-1), and
the standard characterizations of chi(2) and chi(-2) mod 8.

The census and the sums run on plain residues mod p with chi and square
root lookup tables: each secant is counted from its own discriminant, and
each pair's classification comes from construct's d-keyed sweep table.
tests/oracles.py recounts the census without square roots, from a table
of every line that meets y = x^2 + 1 (secant_census_by_vieta).
"""

from __future__ import annotations

from itertools import combinations
from operator import itemgetter

from .construct import _secant_offsets
from .ffield import check_prime, chi_table, legendre, min_sqrt_table
from .record import Record

__all__ = [
    "SecantCensus",
    "ReciprocityResult",
    "gauss_sum_check",
    "delta_sum_check",
    "secant_census",
    "closed_form_N",
    "reciprocity_check",
    "checked_census",
]


def gauss_sum_check(p: int) -> int:
    """sum over x in F_p of chi(x^2 - 4), by direct enumeration.

    The identity says this is -1 for every odd prime; callers assert it.
    """
    pv = check_prime(p, 3)
    chi = chi_table(pv)
    return sum(chi[(x * x - 4) % pv] for x in range(pv))


def delta_sum_check(p: int) -> int:
    """sum over ordered pairs a != b of chi((a^2 - b^2)^2 - 4).

    Substituting u = a-b, v = a+b turns each term into chi((uv)^2 - 4), so
    the double sum collapses to (p-1) copies of the Gauss sum above and
    the identity value is -(p-1).  Enumerated here without it: a term
    depends only on x = a^2 and y = b^2, so the sum runs over pairs of the
    (p+1)/2 distinct squares, each weighted by its number of square roots.
    """
    pv = check_prime(p, 3)
    chi = chi_table(pv)
    g = [chi[(u * u - 4) % pv] for u in range(pv)]
    squares = {x * x % pv for x in range(pv)}
    # Row x is 2 * sum_y g[x - y] - g[x] (y = 0 has one root), gathered in one
    # call as g2[x + p - y]; the p diagonal pairs a = b each count as g[0].
    g2 = g + g
    row = itemgetter(*[pv - y for y in squares])
    total = -pv * g[0]
    for x in squares:
        total += (1 if x == 0 else 2) * (2 * sum(row(g2[x : x + pv + 1])) - g[x])
    return total


class SecantCensus(Record):
    """Distinct-line counts for one prime, with the closed-form comparison.

    matches records whether the enumerated total equals the closed form;
    a mismatch is data, not an error (p = 5 is the known exception).
    """

    p: int
    s_size: int
    pair_count: int
    n_two: int
    n_tangent: int
    n_total: int
    closed_form: int
    matches: bool

    def __post_init__(self) -> None:
        if self.n_total != self.n_two + self.n_tangent:
            raise ValueError("totals are inconsistent")
        if self.matches != (self.n_total == self.closed_form):
            raise ValueError("matches flag is inconsistent")


def secant_census(p: int) -> SecantCensus:
    """Count distinct lines through two points of S that meet y = x^2 + 1.

    Works on residues mod p.  The secant through the points of y = x^2 at
    x = s and x = t is y = mx + c with m = s + t and c = -st; a line meets
    y = x^2 in at most two points, so distinct pairs give distinct secants.
    Each line's intersection count is the number of distinct roots
    (m +- r)/2 of x^2 - mx + 1 - c, r a square root of its discriminant
    (s + t)^2 - 4(1 + st), and is cross-checked against the
    classification of its generating pair by chi((s-t)^2 - 4), read from
    construct's sweep table at d = t - s.  A disagreement raises.
    """
    pv = check_prime(p, 5)
    xs = sorted({x * x % pv for x in range(pv)})
    classes = [0] * pv
    for d, lo, hi in _secant_offsets(pv):
        classes[d] = 1 if lo == hi else 2
    # (m + r)/2 and (m - r)/2 are distinct exactly when r and -r are.
    n_roots = [0 if r is None else len({r, -r % pv}) for r in min_sqrt_table(pv)]

    counts = [n_roots[((s + t) * (s + t) - 4 * (1 + s * t)) % pv] for s, t in combinations(xs, 2)]
    expected = [classes[t - s] for s, t in combinations(xs, 2)]
    if counts != expected:
        s, t = next(st for st, a, b in zip(combinations(xs, 2), counts, expected) if a != b)
        raise ArithmeticError(
            f"discriminant classification disagrees with geometry "
            f"for pair ({s}, {t}) mod {pv}"
        )

    n_two = counts.count(2)
    n_tangent = counts.count(1)
    total = n_two + n_tangent
    closed = closed_form_N(pv)
    return SecantCensus(
        p=pv,
        s_size=len(xs),
        pair_count=len(counts),
        n_two=n_two,
        n_tangent=n_tangent,
        n_total=total,
        closed_form=closed,
        matches=total == closed,
    )


def closed_form_N(p: int) -> int:
    """The claimed closed form for the census total."""
    pv = check_prime(p, 5)
    if pv % 4 == 3:
        return (pv + 1) ** 2 // 16
    return (pv - 1) ** 2 // 16 + 2


class ReciprocityResult(Record):
    """chi(2) and chi(-2) for one prime, with the mod 8 consistency flag."""

    p: int
    chi2: int
    chi_minus2: int
    consistent: bool


def reciprocity_check(p: int) -> ReciprocityResult:
    """Evaluate chi(2) and chi(-2) and compare with the residue of p mod 8:
    chi(2) = +1 iff p = +-1 (mod 8); chi(-2) = +1 iff p = 1 or 3 (mod 8)."""
    pv = check_prime(p, 3)
    chi2 = legendre(2, pv)
    chi_m2 = legendre(-2, pv)
    r = pv % 8
    ok2 = (chi2 == 1) == (r in (1, 7))
    okm2 = (chi_m2 == 1) == (r in (1, 3))
    return ReciprocityResult(
        p=pv, chi2=chi2, chi_minus2=chi_m2, consistent=ok2 and okm2
    )


def checked_census(p: int) -> SecantCensus:
    """The `census` command's record: secant_census(p) once the Gauss sum
    is -1, the delta sum -(p-1), and chi(+-2) agree with p mod 8.  A failed
    identity raises ArithmeticError naming it."""
    gauss = gauss_sum_check(p)
    if gauss != -1:
        raise ArithmeticError(f"gauss sum identity failed at p={p}: {gauss}")
    delta = delta_sum_check(p)
    if delta != -(p - 1):
        raise ArithmeticError(f"delta sum identity failed at p={p}: {delta}")
    if not reciprocity_check(p).consistent:
        raise ArithmeticError(f"reciprocity failed at p={p}")
    return secant_census(p)
