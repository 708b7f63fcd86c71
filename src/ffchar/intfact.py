"""Integer-side arithmetic: factorization, Euler phi, omega, the Mobius walk.

Factorization is trial division by 2 and the odd numbers up to the square
root of what is left; a cofactor above 1 that survives it is prime, and
`is_prime` reads that factorization.  `factor_integer` refuses m >= 2^40
(`FACTOR_LIMIT`) before it divides, which caps a call at 2^19 divisors,
about 64 ms.  The package itself factors nothing above 2^26: a q^n above
16 times `residue.FULL_TABLE_LIMIT` = 2^26 is refused before its unit
group is factored, an extension field's q - 1 is below 2^16, and every
other integer it factors divides one of these or is a degree.  Only a q
given on the command line can be larger (`prime_power`).
"""

from __future__ import annotations

from dataclasses import dataclass

FACTOR_LIMIT = 1 << 40  # factor_integer refuses m >= FACTOR_LIMIT


def is_prime(n: int) -> bool:
    """Whether n is prime, read off its factorization (n < `FACTOR_LIMIT`)."""
    return n >= 2 and factor_integer(n).prime_powers == ((n, 1),)


def prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e, p prime and e >= 1; ValueError when q is not a prime power.

    The one check that a field size is a prime power, for `Field.of_order`,
    `smooth.smooth_count` and `lfun.mertens_products`.  q < 2 is refused
    before anything is factored; q >= `FACTOR_LIMIT` is refused by
    `factor_integer`.
    """
    if q >= 2:
        fi = factor_integer(q)
        if fi.omega == 1:
            return fi.prime_powers[0]
    raise ValueError(f"q = {q} is not a prime power")


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

    def mobius_walk(self) -> list[tuple[int, int]]:
        """(m, mu(m)) for every squarefree m dividing the value, ascending m, built from its primes."""
        walk = [(1, 1)]
        for p in self.primes:
            walk += [(m * p, -mu) for m, mu in walk]
        return sorted(walk)


def factor_integer(m: int) -> FactoredInteger:
    """Complete factorization of 1 <= m < `FACTOR_LIMIT` by trial division (module docstring)."""
    if m < 1:
        raise ValueError(f"factor_integer requires m >= 1, got {m}")
    if m >= FACTOR_LIMIT:
        raise ValueError(f"{m} is not below the factoring bound 2^40")
    left = m
    powers: dict[int, int] = {}
    p = 2
    while p * p <= left:
        while left % p == 0:
            powers[p] = powers.get(p, 0) + 1
            left //= p
        p += 1 if p == 2 else 2
    if left > 1:
        powers[left] = 1
    return FactoredInteger(m, tuple(powers.items()))  # ascending: p grows, and left is the largest
