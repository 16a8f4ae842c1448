"""Exact arithmetic mod an odd prime, on plain ints.

One prime check (check_prime), the quadratic character (Legendre symbol)
via Euler's criterion, the least modular square root via Tonelli-Shanks,
and one O(p) pass over the squares for the sweep loops: min_sqrt_table
holds each residue's least root or None, and chi_table reads the
character off it.  A residue is an int; callers reduce mod p.
"""

from __future__ import annotations

__all__ = [
    "InvalidPrimeError",
    "check_prime",
    "legendre",
    "chi_table",
    "min_sqrt_table",
]


class InvalidPrimeError(ValueError):
    """The requested modulus is not an odd prime of the required size."""


# Miller-Rabin on the primes up to 41 decides every n below PRIME_LIMIT =
# psi_13, the least strong pseudoprime to all of them (psi_12 needs 41).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test for n < PRIME_LIMIT; larger n raise InvalidPrimeError."""
    if n < 2:
        return False
    if n >= PRIME_LIMIT:
        raise InvalidPrimeError(f"{n} is too large to test for primality (limit {PRIME_LIMIT})")
    for w in _MR_WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int, minimum: int = 3) -> int:
    """p itself once it is known to be an odd prime >= minimum.

    Raises InvalidPrimeError for a non-int, an even or composite value, one
    below minimum (so also for a bool) or an odd one that is_prime refuses.
    The constructions need p >= 5; the character sums mean something from 3.
    """
    if not isinstance(p, int):
        raise InvalidPrimeError(f"modulus must be an int, got {p!r}")
    if p < minimum or p % 2 == 0 or not is_prime(p):
        raise InvalidPrimeError(f"{p} is not an odd prime >= {minimum}")
    return p


def legendre(a: int, p: int) -> int:
    """Quadratic character of a mod the odd prime p: +1 for a nonzero
    square, -1 for a non-square, 0 for zero.  Computed by Euler's
    criterion."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _min_sqrt(a: int, p: int) -> int | None:
    """Least square root of `a` mod p via Tonelli-Shanks, or None.

    Deterministic: the auxiliary non-residue is the smallest positive one.
    """
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b % p * b % p, r * b % p
    return min(r, p - r)


def chi_table(p: int) -> list[int]:
    """Quadratic-character lookup table for every residue mod p, read off
    min_sqrt_table: a non-residue (None) is -1, zero (root 0) is 0, every
    other square is +1.  chi_table(p)[a] == legendre(a, p)."""
    return [-1 if r is None else 1 if r else 0 for r in min_sqrt_table(p)]


def min_sqrt_table(p: int) -> list[int | None]:
    """Least-square-root lookup table: entry a is min{x : x*x == a mod p},
    or None for non-residues.  The one O(p) pass over the squares, for the
    sweep loops where a pow() per query would dominate."""
    t: list[int | None] = [None] * p
    for x in range(p - 1, -1, -1):
        t[x * x % p] = x
    return t
