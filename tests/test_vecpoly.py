import numpy as np
import pytest

import ffchar.vecpoly as vecpoly
from ffchar.algebra import Field, Poly, monic_irreducible_count
from ffchar.vecpoly import (
    linear_map_table,
    linear_map_values,
    max_degree_profile_cached,
    max_factor_degree_profile,
    vadd_poly_codes,
)
from phase_oracle import max_factor_degree

F2 = Field.get(2)
F3 = Field.get(3)
F4 = Field.get(2, 2)
F5 = Field.get(5)
F8 = Field.get(2, 3)
F9 = Field.get(3, 2)
F101 = Field.get(101)
F257 = Field.get(257)


# p = 2 with e = 3, odd p with e = 2, one digit per table lookup (p = 101) and
# no digit-sum table (p = 257); above 4096 slots, 500 sampled slots are checked
@pytest.mark.parametrize("F,d", [(F2, 6), (F3, 4), (F4, 3), (F5, 3), (F8, 4), (F9, 3), (F101, 3), (F257, 2)])
def test_profile_matches_scalar_factorize(F, d):
    prof = max_factor_degree_profile(F, d)
    n = F.q**d
    slots = range(n) if n <= 4096 else np.random.default_rng(F.q + d).integers(0, n, size=500)
    for j in slots:
        f = Poly.from_code(F, n + int(j))
        assert prof[j] == max_factor_degree(f)


def test_profile_degree_counts_are_exhaustive():
    for F, d_max in ((F2, 16), (F3, 10), (F4, 8), (F8, 5), (F9, 4), (F257, 2)):
        for d in range(d_max + 1):
            prof = max_factor_degree_profile(F, d)
            assert prof.size == F.q**d
            assert int((prof == d).sum()) == (
                monic_irreducible_count(F.q, d) if d >= 1 else 1
            )


def _sympy_coeffs(q: int, d: int, slot: int) -> list[int]:
    """Monic polynomial in the given slot, highest coefficient first (galoistools order)."""
    return [1] + [(slot // q**i) % q for i in reversed(range(d))]


@pytest.mark.parametrize("q,d", [(2, 16), (3, 10), (5, 6)])
def test_profile_matches_sympy_galoistools(q, d):
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor, gf_irreducible_p

    prof = max_degree_profile_cached(Field.get(q), d)
    # every slot left at d is irreducible; with the count pi_d checked by the
    # sieve, these are exactly the irreducibles
    for slot in np.flatnonzero(prof == d):
        assert gf_irreducible_p(_sympy_coeffs(q, d, int(slot)), q, ZZ)
    rng = np.random.default_rng(q * 100 + d)
    for slot in rng.integers(0, q**d, size=200):
        _, factors = gf_factor(_sympy_coeffs(q, d, int(slot)), q, ZZ)
        assert prof[slot] == max(len(g) - 1 for g, _ in factors)


def test_cached_profile_is_computed_once_and_read_only(monkeypatch):
    calls = []
    real = vecpoly.max_factor_degree_profile

    def counted(F, d):
        calls.append(d)
        return real(F, d)

    monkeypatch.setattr(vecpoly, "max_factor_degree_profile", counted)
    monkeypatch.setattr(vecpoly, "_profiles", {})
    first = max_degree_profile_cached(F3, 5)
    assert max_degree_profile_cached(F3, 5) is first
    assert sorted(calls) == [1, 2, 3, 4, 5]
    assert not first.flags.writeable


def test_sieve_count_mismatch_raises(monkeypatch):
    monkeypatch.setattr(vecpoly, "monic_irreducible_count", lambda q, k: 0)
    with pytest.raises(ArithmeticError, match="necklace"):
        max_factor_degree_profile(F2, 3)


def test_vadd_poly_codes_matches_poly_add():
    rng = np.random.default_rng(9)
    for F in (F2, F3, F4, F5):
        width = 4
        codes = rng.integers(0, F.q**width, size=64, dtype=np.int64)
        c = int(rng.integers(0, F.q**width))
        out = vadd_poly_codes(F, codes, c, width)
        cp = Poly.from_code(F, c)
        for code, got in zip(codes, out):
            want = (Poly.from_code(F, int(code)) + cp).code()
            assert int(got) == want


@pytest.mark.parametrize(
    "q,width", [(2, 5), (3, 7), (3, 10), (3, 11), (3, 16), (4, 4), (5, 4), (9, 3), (9, 6), (25, 2), (257, 2)]
)
def test_vadd_poly_codes_with_array_operand(q, width):
    # digit groups per table lookup differ by p, and p = 257 adds one digit at a time.
    # From 10 base-3 digits on, int16 table entries up to 242 are scaled by 243 (an
    # int16 product would wrap past 2^15 silently) and then by 3^10 and more
    F = Field.of_order(q)
    rng = np.random.default_rng(q)
    codes = rng.integers(0, F.q**width, size=200, dtype=np.int64)
    cs = rng.integers(0, F.q**width, size=200, dtype=np.int64)
    codes[0] = cs[0] = F.q**width - 1  # every digit p - 1: the largest entry in every digit group
    out = vadd_poly_codes(F, codes, cs, width)
    for a, b, got in zip(codes, cs, out):
        assert int(got) == (Poly.from_code(F, int(a)) + Poly.from_code(F, int(b))).code()


@pytest.mark.parametrize("q,n", [(2, 6), (3, 4), (4, 3), (5, 3), (9, 2)])
def test_linear_map_table_and_values_match_poly_products(q, n):
    # x -> x * h mod Q, tabulated from the images of the digit basis p^k
    F = Field.of_order(q)
    Q = Poly.from_code(F, F.q**n + 1)
    h = Poly.from_code(F, F.q**n // 3 + 2)
    images = [(Poly.from_code(F, F.p**k) * h % Q).code() for k in range(n * F.e)]
    table = linear_map_table(F, images, n)
    want = [(Poly.from_code(F, x) * h % Q).code() for x in range(F.q**n)]
    assert table.tolist() == want
    xs = np.arange(F.q**n, dtype=np.int64)[::-7]
    assert np.array_equal(linear_map_values(F, xs, images, n), table[xs])
