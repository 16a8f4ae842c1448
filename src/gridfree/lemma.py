"""Exact covering arithmetic for random k-subsets hitting a pair family.

For a family H of unordered pairs from [N] and a uniformly random k-subset
S of [N], the expected number of pairs hit (pair intersecting S) is
|H| * (1 - C(N-2, k)/C(N, k)), exactly.  With k = floor(N/2) and
|H| = C(N,2)/2 this becomes (2kN - k^2 - k)/4, whose ceiling some subset
must attain; the ceiling gap normalized by (N+k)^2 stays below 4/(9 N^2).
Each formula has one integer home (4E, the hits summed over all k-subsets
in closed form and by brute force, the ceiling, the gap), and each identity
is a cross-multiplied integer comparison.  lemma_record checks them and
prints each rational as str(Fraction) would, so the `lemma` command builds
no Fraction.  The functions that return one wrap the same cores and import
fractions themselves, so importing this module does not load it, nor
decimal and numbers with it.  No floats anywhere.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, gcd

from .record import Record
from .rng import MASK64, sample_distinct

__all__ = [
    "LemmaInstance",
    "expected_coverage",
    "exhaustive_average",
    "half_family_expectation",
    "lemma_bound",
    "best_subset",
    "delta_check",
    "lemma_record",
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


def _hits(N: int, k: int, size: int) -> int:
    """Pairs hit by the k-subsets of [N], summed over all C(N, k) of them,
    for any family of size pairs: each pair is missed by C(N-2, k)."""
    return size * (comb(N, k) - comb(N - 2, k))


def _exhaustive_hits(N: int, k: int, H: tuple[tuple[int, int], ...]) -> int:
    """_hits by brute force on the normalized pairs H: over every k-subset
    of [N], |H| less the pairs inside its complement, counted on bitmasks
    that hold each pair (a, b) as bit b of later[a]."""
    later = [0] * N
    for a, b in H:
        later[a] |= 1 << b
    total = 0
    for rest in combinations(range(N), N - k):
        mask = sum([1 << v for v in rest])
        total += len(H) - sum([(later[v] & mask).bit_count() for v in rest])
    return total


def _expectation4(N: int) -> int:
    """4 * half_family_expectation(N) = 2kN - k^2 - k, k = floor(N/2)."""
    if N < 2:
        raise ValueError(f"N must be at least 2, got {N}")
    k = N // 2
    return 2 * k * N - k * k - k


def _delta(N: int) -> tuple[int, int, bool]:
    """delta_check(N) as num, den and verdict: (ceil(E) - E)/(N+k)^2 is
    (4 ceil(E) - 4E)/(4 (N+k)^2), at most 4/(9 N^2) iff 9 N^2 num <= 4 den."""
    num = 4 * lemma_bound(N) - _expectation4(N)
    den = 4 * (N + N // 2) ** 2
    return num, den, 9 * N * N * num <= 4 * den


def _ratio(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, with no Fraction built."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def expected_coverage(N: int, k: int, H) -> Fraction:
    """Expected number of pairs of H hit by a uniform random k-subset."""
    from fractions import Fraction  # it imports decimal: loaded only when a rational is built

    return Fraction(_hits(N, k, len(LemmaInstance(N, k, tuple(H)).H)), comb(N, k))


def exhaustive_average(N: int, k: int, H) -> Fraction:
    """expected_coverage(N, k, H) by brute force: the mean over every
    k-subset of [N] of the pairs of H it hits."""
    from fractions import Fraction  # it imports decimal: loaded only when a rational is built

    return Fraction(_exhaustive_hits(N, k, LemmaInstance(N, k, tuple(H)).H), comb(N, k))


def half_family_expectation(N: int) -> Fraction:
    """(2kN - k^2 - k)/4 with k = floor(N/2): expected_coverage(N, k, H) for
    any exact half family H, |H| = C(N, 2)/2."""
    from fractions import Fraction  # it imports decimal: loaded only when a rational is built

    return Fraction(_expectation4(N), 4)


def lemma_bound(N: int) -> int:
    """The ceiling of half_family_expectation(N): the hit count some
    k-subset attains when H is an exact half family."""
    return -(-_expectation4(N) // 4)


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

    num, den, ok = _delta(N)
    return Fraction(num, den), ok


def _lemma_family(N: int, seed: int):
    """Seeded exact-half pair family for N = 0, 1 (mod 4), else None."""
    if N % 4 not in (0, 1):
        return None
    pairs = list(combinations(range(N), 2))
    half = len(pairs) // 2
    pick = sample_distinct(len(pairs), half, (seed * 1_000_003 + N) & MASK64)
    return tuple(pairs[i] for i in sorted(pick))


def lemma_record(N: int, seed: int) -> dict:
    """The `lemma` command's record at N for seed's exact half family.
    A failed identity raises ArithmeticError: the gap bound, the closed-form
    hits against 4E C(N, k), the brute-force hits (N <= 12) against them, or
    the best subset's coverage (N <= EXHAUSTIVE_LIMIT) against the ceiling."""
    k = N // 2
    e4 = _expectation4(N)
    bound = lemma_bound(N)
    delta_num, delta_den, delta_ok = _delta(N)
    if not delta_ok:
        raise ArithmeticError(f"ceiling gap bound failed at N={N}")
    fam = _lemma_family(N, seed)
    best_cov = best_set = None
    if fam is not None:
        # E is the hits summed over the C(N, k) subsets, divided by C(N, k)
        hits4 = e4 * comb(N, k)
        if 4 * _hits(N, k, len(fam)) != hits4:
            raise ArithmeticError(f"expectation formula failed at N={N}")
        if N <= 12 and 4 * _exhaustive_hits(N, k, fam) != hits4:
            raise ArithmeticError(f"exhaustive average disagrees at N={N}")
        if N <= EXHAUSTIVE_LIMIT:
            best_set, best_cov = best_subset(N, k, fam)
            if best_cov < bound:
                raise ArithmeticError(f"attained coverage below bound at N={N}")
    return {
        "N": N,
        "k": k,
        "pair_count": comb(N, 2),
        "h_size": len(fam) if fam is not None else None,
        "expectation": _ratio(e4, 4),
        "bound": bound,
        "delta": _ratio(delta_num, delta_den),
        "delta_ok": delta_ok,
        "best_coverage": best_cov,
        "best_subset": list(best_set) if best_set is not None else None,
    }
