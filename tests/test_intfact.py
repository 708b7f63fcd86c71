import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ffchar.intfact import FACTOR_LIMIT, FactoredInteger, factor_integer, is_prime, prime_power


def mobius(m) -> int:
    """Mobius function, the oracle of `FactoredInteger.mobius_walk`: (-1)^omega on squarefree m, else 0."""
    fi = m if isinstance(m, FactoredInteger) else factor_integer(m)
    if any(e > 1 for _, e in fi.prime_powers):
        return 0
    return -1 if fi.omega % 2 else 1


def naive_factor(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factor_15():
    fi = factor_integer(15)
    assert fi.prime_powers == ((3, 1), (5, 1))
    assert fi.phi == 8
    assert fi.omega == 2


def test_factor_prime():
    fi = factor_integer(101)
    assert fi.prime_powers == ((101, 1),)
    assert fi.phi == 100
    assert fi.omega == 1


def test_factor_mersenne_8191():
    fi = factor_integer(2**13 - 1)
    assert fi.prime_powers == ((8191, 1),)
    assert fi.omega == 1


def test_factor_matches_naive_small():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randrange(1, 10**6)
        fi = factor_integer(n)
        assert dict(fi.prime_powers) == naive_factor(n)


def test_factor_large_composites():
    """Integers at or above 2^40 are refused before any division, primes or not."""
    for n in (2**64 - 1, 2**45 - 1, 3**30 - 1, 10**18 + 9, 2**40):
        with pytest.raises(ValueError, match="factoring bound 2\\^40"):
            factor_integer(n)
    assert FACTOR_LIMIT == 2**40
    with pytest.raises(ValueError, match="factoring bound"):
        is_prime(10**18 + 3)


def check_against_sympy(m: int):
    assert list(factor_integer(m).prime_powers) == sorted(sympy.factorint(m).items())
    assert is_prime(m) == sympy.isprime(m)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, FACTOR_LIMIT - 1))
def test_factor_matches_sympy_below_the_bound(m):
    check_against_sympy(m)


# two primes above 2^16 whose product is below 2^40: trial division runs to the smaller one
PRIMES_ABOVE_2_16 = st.integers(2**16, 2**20 - 4).map(sympy.nextprime)


@settings(max_examples=40, deadline=None)
@given(PRIMES_ABOVE_2_16, PRIMES_ABOVE_2_16)
def test_factor_products_of_two_large_primes(p, r):
    check_against_sympy(p * r)


def test_factor_edge_cases_match_sympy():
    # 1000003^2, a square of a prime above 2^16; the largest prime below 2^40; its
    # largest semiprime of two primes below 2^20; 2^40 - 1; the largest m the package itself factors
    for m in (1000003**2, sympy.prevprime(2**40), 1048571 * 1048573, 2**40 - 1, 2**26 - 1, 2**26 - 5):
        check_against_sympy(m)


def test_prime_power():
    assert prime_power(2) == (2, 1)
    assert prime_power(65536) == (2, 16)
    assert prime_power(65537) == (65537, 1)
    assert prime_power(3**25) == (3, 25)
    for q in (-3, 0, 1, 6, 2**20 * 3, 1000003 * 1000033):
        with pytest.raises(ValueError, match=f"q = {q} is not a prime power"):
            prime_power(q)
    with pytest.raises(ValueError, match="factoring bound"):
        prime_power(2**40)


def test_is_prime_against_sieve():
    limit = 2000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, limit):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    for n in range(limit):
        assert is_prime(n) == sieve[n]


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(4) == 0
    assert mobius(30) == -1
    assert mobius(factor_integer(10)) == 1


def test_squarefree_divisors():
    fi = factor_integer(60)  # radical 30
    assert fi.radical == 30
    assert [m for m, _ in fi.mobius_walk()] == [1, 2, 3, 5, 6, 10, 15, 30]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2**26))
def test_mobius_walk_is_mobius_over_the_squarefree_divisors(value):
    fact = factor_integer(value)
    # the squarefree divisors are the divisors of the radical, ascending
    assert fact.mobius_walk() == [(m, mobius(m)) for m in sympy.divisors(fact.radical)]


def test_bad_inputs():
    with pytest.raises(ValueError):
        factor_integer(0)
    with pytest.raises(ValueError):
        FactoredInteger(10, ((2, 1),))
