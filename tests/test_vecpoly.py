import numpy as np
import pytest

import ffchar.vecpoly as vecpoly
from ffchar.algebra import Field, Poly, factorize, monic_irreducible_count
from ffchar.vecpoly import max_degree_profile_cached, max_factor_degree_profile, vadd_poly_codes

F2 = Field.get(2)
F3 = Field.get(3)
F4 = Field.get(2, 2)
F5 = Field.get(5)


@pytest.mark.parametrize("F,d", [(F2, 6), (F3, 4), (F4, 3), (F5, 3)])
def test_profile_matches_scalar_factorize(F, d):
    prof = max_factor_degree_profile(F, d)
    for j in range(F.q**d):
        f = Poly.from_code(F, F.q**d + j)
        assert prof[j] == factorize(f).max_factor_degree()


def test_profile_degree_counts_are_exhaustive():
    for F, d_max in ((F2, 16), (F3, 10), (F4, 8)):
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
