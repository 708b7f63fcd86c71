"""Integer-side arithmetic: factorization, Euler phi, omega, Mobius.

Everything here is deterministic.  Primality is decided by Miller-Rabin with
a fixed witness set that is exact for all inputs below 3.3 * 10^24, far above
the q^n - 1 sizes this package enumerates.  Factorization is trial division
up to 10^6 followed by Brent-cycle Pollard rho with an incrementing
polynomial offset, so repeated runs always split composites the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

# Exact for n < 3_317_044_064_679_887_385_961_981 (about 1.7 * 2^80).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981

_TRIAL_LIMIT = 10**6


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n below ~1.7 * 2^80."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise ValueError(f"primality test witness set not proven for n={n}")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int, c: int) -> int:
    """One Brent-cycle rho attempt on n with x -> x^2 + c; returns a factor or n."""
    if n % 2 == 0:
        return 2
    y, m = 2, 128
    g, r, q = 1, 1, 1
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
        r *= 2
    if g == n:
        # backtrack one step at a time
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return g


def _split(n: int) -> int:
    """Return a nontrivial factor of composite n, deterministically."""
    if n % 2 == 0:
        return 2
    r = math.isqrt(n)
    if r * r == n:
        return r
    for c in range(1, 64):
        g = _pollard_brent(n, c)
        if 1 < g < n:
            return g
    raise ArithmeticError(f"could not split composite {n}: rho offsets exhausted")


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer with its complete prime factorization.

    prime_powers is sorted by prime; phi, omega and the squarefree radical
    are derived exactly at construction.
    """

    value: int
    prime_powers: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        for p, e in self.prime_powers:
            prod *= p**e
        if prod != self.value:
            raise ValueError("factorization does not reproduce the value")

    @property
    def phi(self) -> int:
        out = 1
        for p, e in self.prime_powers:
            out *= (p - 1) * p ** (e - 1)
        return out

    @property
    def omega(self) -> int:
        return len(self.prime_powers)

    @property
    def radical(self) -> int:
        out = 1
        for p, _ in self.prime_powers:
            out *= p
        return out

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.prime_powers)

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.prime_powers)

    def squarefree_divisors(self) -> list[int]:
        """All divisors of the radical, ascending."""
        divs = [1]
        for p in self.primes:
            divs += [d * p for d in divs]
        return sorted(divs)


def factor_integer(m: int) -> FactoredInteger:
    """Complete factorization of m >= 1; loud failure on unsplittable cofactors."""
    if m < 1:
        raise ValueError(f"factor_integer requires m >= 1, got {m}")
    left = m
    powers: dict[int, int] = {}
    p = 2
    while p <= _TRIAL_LIMIT and p * p <= left:
        while left % p == 0:
            powers[p] = powers.get(p, 0) + 1
            left //= p
        p += 1 if p == 2 else 2
    stack = [left] if left > 1 else []
    while stack:
        n = stack.pop()
        if n == 1:
            continue
        if is_prime(n):
            powers[n] = powers.get(n, 0) + 1
            continue
        g = _split(n)
        stack.append(g)
        stack.append(n // g)
    return FactoredInteger(m, tuple(sorted(powers.items())))


def mobius(m: Union[int, FactoredInteger]) -> int:
    """Mobius function: (-1)^omega on squarefree m, else 0."""
    fi = m if isinstance(m, FactoredInteger) else factor_integer(m)
    if not fi.is_squarefree():
        return 0
    return -1 if fi.omega % 2 else 1
