"""Exact covering arithmetic for random k-subsets hitting a pair family.

For a family H of unordered pairs from [N] and a uniformly random k-subset
S of [N], the expected number of pairs hit (pair intersecting S) is
|H| * (1 - C(N-2, k)/C(N, k)), exactly.  With k = floor(N/2) and
|H| = C(N,2)/2 this becomes (2kN - k^2 - k)/4, whose ceiling some subset
must attain; the ceiling gap normalized by (N+k)^2 stays below 4/(9 N^2).
Everything here is integer or Fraction arithmetic, no floats.  Each
function that builds a Fraction imports fractions itself, so importing
this module does not load it, nor decimal and numbers with it.
"""

from __future__ import annotations

from itertools import combinations
from math import ceil, comb

from .record import Record

__all__ = [
    "LemmaInstance",
    "expected_coverage",
    "exhaustive_average",
    "half_family_expectation",
    "lemma_bound",
    "best_subset",
    "delta_check",
]

# Largest N for which best_subset enumerates all C(N, k) subsets.
EXHAUSTIVE_LIMIT = 16


def _norm_pairs(N: int, H) -> tuple[tuple[int, int], ...]:
    pairs = []
    for pair in H:
        t = tuple(sorted(pair))
        if len(t) != 2 or t[0] == t[1]:
            raise ValueError(f"{tuple(pair)!r} is not an unordered pair")
        if not (0 <= t[0] and t[1] < N):
            raise ValueError(f"pair {t!r} out of range for N={N}")
        pairs.append(t)
    out = tuple(sorted(set(pairs)))
    if len(out) != len(pairs):
        raise ValueError("duplicate pairs in H")
    return out


class LemmaInstance(Record):
    """Ground set size N, sample size k, pair family H."""

    N: int
    k: int
    H: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ValueError(f"N must be at least 2, got {self.N}")
        if not 0 <= self.k <= self.N:
            raise ValueError(f"k must lie in [0, N], got {self.k}")
        object.__setattr__(self, "H", _norm_pairs(self.N, self.H))


def expected_coverage(N: int, k: int, H) -> Fraction:
    """Expected number of pairs of H hit by a uniform random k-subset."""
    from fractions import Fraction  # it imports decimal: loaded only when a rational is built

    inst = LemmaInstance(N, k, tuple(H))
    miss = Fraction(comb(N - 2, k), comb(N, k))
    return len(inst.H) * (1 - miss)


def exhaustive_average(N: int, k: int, H) -> Fraction:
    """expected_coverage(N, k, H) by brute force: the mean over every
    k-subset of [N] of |H| less the pairs inside its complement, counted on
    bitmasks that hold each pair (a, b) as bit b of later[a]."""
    from fractions import Fraction  # it imports decimal: loaded only when a rational is built

    inst = LemmaInstance(N, k, tuple(H))
    later = [0] * N
    for a, b in inst.H:
        later[a] |= 1 << b
    total = 0
    for rest in combinations(range(N), N - k):
        mask = sum([1 << v for v in rest])
        total += len(inst.H) - sum([(later[v] & mask).bit_count() for v in rest])
    return Fraction(total, comb(N, k))


def half_family_expectation(N: int) -> Fraction:
    """(2kN - k^2 - k)/4 with k = floor(N/2): expected_coverage(N, k, H) for
    any exact half family H, |H| = C(N, 2)/2."""
    if N < 2:
        raise ValueError(f"N must be at least 2, got {N}")
    from fractions import Fraction  # it imports decimal: loaded only when a rational is built

    k = N // 2
    return Fraction(2 * k * N - k * k - k, 4)


def lemma_bound(N: int) -> int:
    """The ceiling of half_family_expectation(N): the hit count some
    k-subset attains when H is an exact half family."""
    return ceil(half_family_expectation(N))


def best_subset(N: int, k: int, H) -> tuple[tuple[int, ...], int]:
    """Exhaustive maximizer of coverage over all k-subsets of [N]; ties go
    to the lexicographically least subset.  N beyond EXHAUSTIVE_LIMIT is
    refused.

    The subsets are walked depth-first in lexicographic order with the
    members as a bitmask: adding v covers deg[v] - |adj[v] & mask| new
    pairs, its gain, one popcount instead of a rescan of H.  A subtree is
    pruned when its coverage plus the `left` largest gains at or after
    start is at most the best found: gains only shrink as the mask grows,
    so no completion beats that bound, and a tie met later in the walk is
    never the lexicographically lesser subset.
    """
    inst = LemmaInstance(N, k, tuple(H))
    if N > EXHAUSTIVE_LIMIT:
        raise ValueError(f"N={N} is too large for exhaustive search (limit {EXHAUSTIVE_LIMIT})")
    adj = [0] * N
    for a, b in inst.H:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    deg = [m.bit_count() for m in adj]
    chosen: list[int] = []
    best_s: tuple[int, ...] = ()
    best_c = -1

    def extend(start: int, mask: int, cov: int) -> None:
        nonlocal best_s, best_c
        left = k - len(chosen)
        if left == 0:
            if cov > best_c:
                best_s, best_c = tuple(chosen), cov
            return
        gains = [deg[v] - (adj[v] & mask).bit_count() for v in range(start, N)]
        if cov + sum(sorted(gains)[-left:]) <= best_c:
            return
        for v in range(start, N - left + 1):
            chosen.append(v)
            extend(v + 1, mask | 1 << v, cov + gains[v - start])
            chosen.pop()

    extend(0, 0, 0)
    return best_s, best_c


def delta_check(N: int) -> tuple[Fraction, bool]:
    """The normalized ceiling gap delta_N = (ceil(E) - E) / (N+k)^2 with
    k = floor(N/2), E = half_family_expectation(N), and whether it
    satisfies delta_N <= 4 / (9 N^2)."""
    from fractions import Fraction  # it imports decimal: loaded only when a rational is built

    expectation = half_family_expectation(N)
    delta = (ceil(expectation) - expectation) / (N + N // 2) ** 2
    return delta, delta <= Fraction(4, 9 * N * N)

