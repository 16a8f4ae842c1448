"""Exact covering arithmetic for random k-subsets hitting a pair family.

For a family H of unordered pairs from [N] and a uniformly random k-subset
S of [N], the expected number of pairs hit (pair intersecting S) is
|H| * (1 - C(N-2, k)/C(N, k)), exactly.  With k = floor(N/2) and
|H| = C(N,2)/2 this becomes (2kN - k^2 - k)/4, whose ceiling some subset
must attain; the ceiling gap normalized by (N+k)^2 stays below 4/(9 N^2).
Everything here is integer or Fraction arithmetic, no floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, comb

from .record import Record

__all__ = [
    "EXHAUSTIVE_LIMIT",
    "LemmaInstance",
    "CoverageResult",
    "expected_coverage",
    "half_family_expectation",
    "lemma_bound",
    "coverage",
    "best_subset",
    "delta_check",
    "analyze",
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


class CoverageResult(Record):
    """Exact expectation, its ceiling bound, the optional exhaustive
    maximizer, and the normalized ceiling gap."""

    expectation: Fraction
    bound: int
    best: tuple[tuple[int, ...], int] | None
    delta: Fraction


def expected_coverage(N: int, k: int, H) -> Fraction:
    """Expected number of pairs of H hit by a uniform random k-subset."""
    inst = LemmaInstance(N, k, tuple(H))
    miss = Fraction(comb(N - 2, k), comb(N, k))
    return len(inst.H) * (1 - miss)


def half_family_expectation(N: int) -> Fraction:
    """(2kN - k^2 - k)/4 with k = floor(N/2): expected_coverage(N, k, H) for
    any exact half family H, |H| = C(N, 2)/2."""
    if N < 2:
        raise ValueError(f"N must be at least 2, got {N}")
    k = N // 2
    return Fraction(2 * k * N - k * k - k, 4)


def lemma_bound(N: int) -> int:
    """The ceiling of half_family_expectation(N): the hit count some
    k-subset attains when H is an exact half family."""
    return ceil(half_family_expectation(N))


def coverage(S, H) -> int:
    """Number of pairs of H meeting the subset S."""
    s = set(S)
    return sum(1 for a, b in H if a in s or b in s)


def best_subset(N: int, k: int, H) -> tuple[tuple[int, ...], int]:
    """Exhaustive maximizer of coverage over all k-subsets of [N]; ties go
    to the lexicographically least subset.  N beyond EXHAUSTIVE_LIMIT is
    refused.

    The subsets are walked depth-first in lexicographic order with the
    members as a bitmask: adding v covers deg[v] - |adj[v] & mask| new
    pairs, so each step costs one popcount instead of a rescan of H.
    """
    inst = LemmaInstance(N, k, tuple(H))
    if N > EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"N={N} is too large for exhaustive search (limit {EXHAUSTIVE_LIMIT})"
        )
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
        for v in range(start, N - left + 1):
            chosen.append(v)
            extend(v + 1, mask | 1 << v, cov + deg[v] - (adj[v] & mask).bit_count())
            chosen.pop()

    extend(0, 0, 0)
    return best_s, best_c


def delta_check(N: int) -> tuple[Fraction, bool]:
    """The normalized ceiling gap delta_N = (ceil(E) - E) / (N+k)^2 with
    k = floor(N/2), E = half_family_expectation(N), and whether it
    satisfies delta_N <= 4 / (9 N^2)."""
    expectation = half_family_expectation(N)
    delta = (ceil(expectation) - expectation) / (N + N // 2) ** 2
    return delta, delta <= Fraction(4, 9 * N * N)


def analyze(N: int, k: int | None = None, H=(), find_best: bool | None = None) -> CoverageResult:
    """Bundle expectation, bound, optional exhaustive best subset, and the
    ceiling gap for one instance.  find_best defaults to exhaustive search
    whenever N allows it."""
    if k is None:
        k = N // 2
    expectation = expected_coverage(N, k, H)
    if find_best is None:
        find_best = N <= EXHAUSTIVE_LIMIT
    best = best_subset(N, k, H) if find_best else None
    delta, _ = delta_check(N)
    return CoverageResult(
        expectation=expectation,
        bound=lemma_bound(N),
        best=best,
        delta=delta,
    )
