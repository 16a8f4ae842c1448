"""Exact arithmetic in odd prime fields.

Residue classes under a fixed odd prime modulus, the quadratic character
(Legendre symbol) via Euler's criterion, modular square roots via
Tonelli-Shanks, and multiplicative inverses.  Everything is immutable and
pure.  Mixing moduli is a hard error, never a silent coercion.
"""

from __future__ import annotations

from .record import Record

__all__ = [
    "InvalidPrimeError",
    "MixedModulusError",
    "Prime",
    "FieldElement",
    "is_prime",
    "legendre",
    "sqrt_mod",
    "inv",
    "chi_table",
    "min_sqrt_table",
]


class InvalidPrimeError(ValueError):
    """The requested modulus is not an odd prime of the required size."""


class MixedModulusError(ValueError):
    """Field elements with different moduli were combined."""


# Deterministic Miller-Rabin witness set; exact for every n < 3.3e24,
# far beyond any modulus this package touches.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with a fixed witness set)."""
    if n < 2:
        return False
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


class Prime(Record):
    """An odd prime modulus p >= 3.

    The constructions additionally require p >= 5; the character-sum
    identities are meaningful from p = 3 on, so 3 is admitted here and
    callers with stricter needs check the size themselves.
    """

    value: int

    def __post_init__(self) -> None:
        v = self.value
        if not isinstance(v, int) or isinstance(v, bool):
            raise InvalidPrimeError(f"modulus must be an int, got {v!r}")
        if v < 3 or v % 2 == 0 or not is_prime(v):
            raise InvalidPrimeError(f"{v} is not an odd prime")

    def __repr__(self) -> str:
        return f"Prime({self.value})"

    def __index__(self) -> int:
        return self.value

    def __call__(self, residue: int) -> "FieldElement":
        """Convenience constructor: Prime(7)(10) is the residue 3 mod 7."""
        return FieldElement(residue, self)


def _as_prime(p: Prime | int, minimum: int) -> Prime:
    """p as a Prime, refused unless it is at least `minimum`."""
    prime = p if isinstance(p, Prime) else Prime(p)
    if prime.value < minimum:
        raise InvalidPrimeError(f"need an odd prime >= {minimum}, got {prime.value}")
    return prime


class FieldElement:
    """A residue in [0, p) under a fixed odd prime modulus.

    Arithmetic accepts another element of the same field or a plain int
    (reduced mod p).  Combining elements of different fields raises
    MixedModulusError.
    """

    __slots__ = ("residue", "modulus")

    def __init__(self, residue: int, modulus: Prime):
        if not isinstance(modulus, Prime):
            raise TypeError(f"modulus must be a Prime, got {modulus!r}")
        object.__setattr__(self, "residue", residue % modulus.value)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("FieldElement is immutable")

    def _lift(self, other):
        """Residue of `other` in this field, or NotImplemented."""
        if isinstance(other, FieldElement):
            if other.modulus.value != self.modulus.value:
                raise MixedModulusError(
                    f"cannot combine elements mod {self.modulus.value} "
                    f"and mod {other.modulus.value}"
                )
            return other.residue
        if isinstance(other, int) and not isinstance(other, bool):
            return other % self.modulus.value
        return NotImplemented

    def __add__(self, other):
        r = self._lift(other)
        if r is NotImplemented:
            return NotImplemented
        return FieldElement(self.residue + r, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        r = self._lift(other)
        if r is NotImplemented:
            return NotImplemented
        return FieldElement(self.residue - r, self.modulus)

    def __rsub__(self, other):
        r = self._lift(other)
        if r is NotImplemented:
            return NotImplemented
        return FieldElement(r - self.residue, self.modulus)

    def __mul__(self, other):
        r = self._lift(other)
        if r is NotImplemented:
            return NotImplemented
        return FieldElement(self.residue * r, self.modulus)

    __rmul__ = __mul__

    def __truediv__(self, other):
        r = self._lift(other)
        if r is NotImplemented:
            return NotImplemented
        return self * inv(FieldElement(r, self.modulus))

    def __neg__(self):
        return FieldElement(-self.residue, self.modulus)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return inv(self) ** (-exponent)
        return FieldElement(pow(self.residue, exponent, self.modulus.value), self.modulus)

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (
            self.modulus.value == other.modulus.value
            and self.residue == other.residue
        )

    def __hash__(self):
        return hash((self.residue, self.modulus.value))

    def __repr__(self):
        return f"{self.residue} (mod {self.modulus.value})"


def legendre(a: FieldElement) -> int:
    """Quadratic character of `a`: +1 for a nonzero square, -1 for a
    non-square, 0 for zero.  Computed by Euler's criterion."""
    p = a.modulus.value
    if a.residue == 0:
        return 0
    e = pow(a.residue, (p - 1) // 2, p)
    return 1 if e == 1 else -1


def _legendre_int(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _min_sqrt_int(a: int, p: int) -> int | None:
    """Least square root of `a` mod p via Tonelli-Shanks, or None.

    Deterministic: the auxiliary non-residue is the smallest positive one.
    """
    a %= p
    if a == 0:
        return 0
    if _legendre_int(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while _legendre_int(z, p) != -1:
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


def sqrt_mod(a: FieldElement) -> tuple[FieldElement, ...] | None:
    """All square roots of `a`, ascending by residue, or None when `a` is a
    non-residue.  Zero has the single root zero; a nonzero square has the
    pair {r, p - r}."""
    p = a.modulus.value
    r = _min_sqrt_int(a.residue, p)
    if r is None:
        return None
    if r == 0:
        return (FieldElement(0, a.modulus),)
    return (FieldElement(r, a.modulus), FieldElement(p - r, a.modulus))


def inv(a: FieldElement) -> FieldElement:
    """Multiplicative inverse; ZeroDivisionError on the zero element."""
    if a.residue == 0:
        raise ZeroDivisionError(f"0 (mod {a.modulus.value}) has no inverse")
    return FieldElement(pow(a.residue, -1, a.modulus.value), a.modulus)


def chi_table(p: int) -> list[int]:
    """Quadratic-character lookup table for every residue mod p.

    One O(p) pass over the squares; used by the sweep loops where a pow()
    per query would dominate.  chi_table(p)[a] == legendre(a mod p).
    """
    t = [-1] * p
    t[0] = 0
    for x in range(1, p):
        t[x * x % p] = 1
    return t


def min_sqrt_table(p: int) -> list[int | None]:
    """Least-square-root lookup table: entry a is min{x : x*x == a mod p},
    or None for non-residues.  Companion of chi_table for sweep loops."""
    t: list[int | None] = [None] * p
    for x in range(p - 1, -1, -1):
        t[x * x % p] = x
    return t
