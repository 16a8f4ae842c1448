"""Deterministic 64-bit sampling shared by the seeded builders.

The stream is splitmix64 (fixed increment and mixing constants), so a seed
produces the same draws on every platform and Python version.  Rational
inclusion probabilities num/den are realized by comparing a raw 64-bit draw
against floor(num * 2^64 / den), which is exact.
"""

from __future__ import annotations

from collections.abc import Iterator

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(state: int) -> int:
    """splitmix64's output for the 64-bit state state."""
    z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def splitmix64_stream(seed: int) -> Iterator[int]:
    """Infinite stream of uniform 64-bit values for the given seed."""
    state = seed & MASK64
    while True:
        state = (state + _GAMMA) & MASK64
        yield _mix(state)


def bernoulli_threshold(num: int, den: int) -> int:
    """A draw u qualifies with probability num/den iff u < this threshold."""
    if den <= 0 or num < 0 or num > den:
        raise ValueError(f"need 0 <= num/den <= 1, got {num}/{den}")
    return (num << 64) // den


def sample_distinct(n: int, k: int, seed: int) -> tuple[int, ...]:
    """k distinct values from range(n), in draw order, via a partial
    Fisher-Yates shuffle driven by splitmix64.

    The shuffle is sparse: moved holds only the positions a swap has
    displaced, so a call costs O(k), not a copy of range(n).  The draws
    are splitmix64_stream(seed)'s, its state stepped in place rather than
    by starting a generator.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    moved: dict[int, int] = {}
    out = []
    state = seed & MASK64
    for i in range(k):
        state = (state + _GAMMA) & MASK64
        j = i + _mix(state) % (n - i)
        out.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return tuple(out)
