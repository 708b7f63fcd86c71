import math
import random

import pytest

from ffchar.intfact import FactoredInteger, factor_integer, is_prime, mobius


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
    for n in (2**64 - 1, 2**45 - 1, 3**30 - 1, 10**18 + 9):
        fi = factor_integer(n)
        assert math.prod(p**e for p, e in fi.prime_powers) == n
        assert all(is_prime(p) for p, _ in fi.prime_powers)


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
    assert fi.squarefree_divisors() == [1, 2, 3, 5, 6, 10, 15, 30]


def test_bad_inputs():
    with pytest.raises(ValueError):
        factor_integer(0)
    with pytest.raises(ValueError):
        FactoredInteger(10, ((2, 1),))
