import random
import re
import tracemalloc

import numpy as np
import pytest

from ffchar.algebra import (
    Field,
    Poly,
    digit_sum_table,
    irreducibles_up_to,
    is_irreducible,
    lex_least_irreducible,
    monic_irreducible_count,
)
from ffchar import residue
from ffchar.residue import Modulus
from phase_oracle import enumerate_monic, factorization_product, is_smooth, max_factor_degree, trial_factor

F2 = Field.get(2)
F3 = Field.get(3)
F4 = Field.get(2, 2)
F5 = Field.get(5)
F9 = Field.get(3, 2)

ALL_FIELDS = [F2, F3, F4, F5, F9]


# -- independent oracles ------------------------------------------------


def schoolbook_mul(a: Poly, b: Poly) -> Poly:
    """Oracle multiply: explicit double loop over coefficient elements."""
    F = a.field
    if a.is_zero or b.is_zero:
        return Poly(F, ())
    out = [0] * (a.degree + b.degree + 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return Poly(F, out)


def long_division_mod(a: Poly, m: Poly) -> Poly:
    """Oracle reduction: repeated subtraction of shifted multiples of m."""
    F = a.field
    rem = list(a.coeffs)
    dm = m.degree
    while len(rem) - 1 >= dm and rem:
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dm:
            break
        lead = F.mul(rem[-1], F.inv(m.coeffs[-1]))
        shift = len(rem) - 1 - dm
        for j, c in enumerate(m.coeffs):
            rem[shift + j] = F.sub(rem[shift + j], F.mul(lead, c))
    return Poly(F, rem)


def schoolbook_field_mul(F: Field, a: int, b: int) -> int:
    """Oracle F_q product: base-p convolution of two codes, reduced mod the defining polynomial."""
    p, e, mod = F.p, F.e, F.defining_poly
    da = [(a // p**i) % p for i in range(e)]
    db = [(b // p**i) % p for i in range(e)]
    prod = [0] * (2 * e - 1)
    for i, ai in enumerate(da):
        for j, bj in enumerate(db):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(2 * e - 2, e - 1, -1):
        c, prod[i] = prod[i], 0
        for j in range(e):
            prod[i - e + j] = (prod[i - e + j] - c * mod[j]) % p
    return sum(c * p**i for i, c in enumerate(prod[:e]))


def schoolbook_field_pow(F: Field, a: int, n: int) -> int:
    out = 1
    for _ in range(n):
        out = schoolbook_field_mul(F, out, a)
    return out


# -- products mod m -----------------------------------------------------


def test_mul_mod_t_squared_example():
    t = Poly(F2, (0, 1))
    m = Poly.from_string(F2, "t^2+t+1")
    assert (t * t) % m == Poly.from_string(F2, "t+1")


def test_mul_mod_identity_case():
    m = Poly.from_string(F2, "t^3+t+1")
    f = Poly.from_string(F2, "t^5+t^2+1")
    assert (Poly.one(F2) * f) % m == f % m


def test_mul_mod_against_schoolbook_oracle():
    a = Poly.from_string(F2, "t^2+1")
    m = Poly.from_string(F2, "t^3+t+1")
    expected = long_division_mod(schoolbook_mul(a, a), m)
    assert (a * a) % m == expected


def test_mul_mod_random_against_oracle():
    rng = random.Random(7)
    for F in ALL_FIELDS:
        for _ in range(40):
            a = Poly.from_code(F, rng.randrange(0, F.q**5))
            b = Poly.from_code(F, rng.randrange(0, F.q**5))
            m = Poly.from_code(F, rng.randrange(F.q**3, 2 * F.q**3))
            assert (a * b) % m == long_division_mod(schoolbook_mul(a, b), m)


def test_mul_mod_rejects_zero_modulus():
    with pytest.raises(ZeroDivisionError):
        (Poly.one(F2) * Poly.one(F2)) % Poly(F2, ())


def broadcast_digit_sum_table(p: int, g: int) -> np.ndarray:
    """Oracle digit-add table: every digit position of every (x, y) pair summed in one broadcast."""
    weights = p ** np.arange(g, dtype=np.int64)
    digits = (np.arange(p**g, dtype=np.int64)[:, None] // weights) % p
    return ((digits[:, None, :] + digits[None, :, :]) % p) @ weights


# -- field axioms -------------------------------------------------------


def test_field_axioms_random_triples():
    rng = random.Random(3)
    for F in ALL_FIELDS + [Field.get(3, 6)]:  # q = 729 > 256: Field.add takes two digit-table lookups
        for _ in range(80):
            a, b, c = (rng.randrange(F.q) for _ in range(3))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 251])
def test_digit_sum_table_matches_broadcast_oracle(p):
    g, table = digit_sum_table(p)
    assert p**g <= 256 < p ** (g + 1)
    assert table.dtype == np.int16 and not table.flags.writeable
    assert np.array_equal(table, broadcast_digit_sum_table(p, g))


def test_digit_sum_table_absent_above_256():
    assert digit_sum_table(257) == (1, None)
    assert digit_sum_table(65521) == (1, None)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 251])
def test_digit_sum_table_build_peak_within_twice_the_table(p):
    """Built one digit position at a time, no temporary outgrows the table (uncached: a fresh build)."""
    tracemalloc.start()
    try:
        _, table = digit_sum_table.__wrapped__(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * table.nbytes + 64 * 1024


def test_only_odd_characteristic_extension_fields_hold_the_add_table():
    """Characteristic 2 adds by xor, so F_16 builds no digit-add table; F_9 shares the cached one."""
    F16 = Field.get(2, 4)
    assert not hasattr(F16, "_add_table") and not hasattr(F16, "_add_step")
    assert all(F16.add(a, b) == a ^ b for a in range(16) for b in range(16))
    assert F9._add_table is digit_sum_table(3)[1] and F9._add_step == 243


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 49])
def test_field_mul_matches_schoolbook_oracle_on_every_pair(q):
    F = Field.of_order(q)
    for a in range(q):
        for b in range(q):
            assert F.mul(a, b) == schoolbook_field_mul(F, a, b)


@pytest.mark.parametrize("q", [64, 81, 243, 256])
def test_exp_log_tables_walk_the_least_generator(q):
    F = Field.of_order(q)
    g = int(F._exp[1])
    cur = 1
    for i in range(q - 1):
        assert F._exp[i] == F._exp[q - 1 + i] == cur
        assert F._log[cur] == i
        cur = schoolbook_field_mul(F, cur, g)
    assert cur == 1 and F._log[0] == -1
    # every smaller candidate has an order below q - 1
    primes = [ell for ell in range(2, q) if (q - 1) % ell == 0 and all(ell % m for m in range(2, ell))]
    for c in range(2, g):
        assert any(schoolbook_field_pow(F, c, (q - 1) // ell) == 1 for ell in primes)


def test_frobenius_fixes_prime_field():
    for F in ALL_FIELDS:
        for a in range(F.p):  # constants are the prime subfield
            assert F.pow(a, F.p) == a


def test_every_element_fixed_by_x_to_q():
    for F in ALL_FIELDS:
        for a in range(F.q):
            assert F.pow(a, F.q) == a


# -- enumeration --------------------------------------------------------


def test_enumerate_monic_linear_q2():
    polys = list(enumerate_monic(F2, 1))
    assert [str(f) for f in polys] == ["t", "t+1"]


def test_enumerate_monic_count_q3():
    assert len(list(enumerate_monic(F3, 2))) == 9


def test_enumerate_monic_degree_zero():
    assert list(enumerate_monic(F2, 0)) == [Poly.one(F2)]


def test_enumerate_monic_partition():
    whole = list(enumerate_monic(F3, 3))
    parts = list(enumerate_monic(F3, 3, 0, 10)) + list(enumerate_monic(F3, 3, 10, 27))
    assert whole == parts
    assert len(set(whole)) == 27
    assert all(f.is_monic and f.degree == 3 for f in whole)


# -- irreducibility -----------------------------------------------------


def test_is_irreducible_examples():
    assert is_irreducible(Poly.from_string(F2, "t^2+t+1"))
    assert not is_irreducible(Poly.from_string(F2, "t^2+1"))
    # oracle for the reducible case: (t+1)^2 expands to t^2+1 over F_2
    tp1 = Poly.from_string(F2, "t+1")
    assert schoolbook_mul(tp1, tp1) == Poly.from_string(F2, "t^2+1")
    for F in ALL_FIELDS:
        assert is_irreducible(Poly(F, (0, 1)))


def test_is_irreducible_rejects_non_monic():
    with pytest.raises(ValueError):
        is_irreducible(Poly.from_string(F3, "2*t^2+1"))


def test_irreducible_counts_small_q2():
    I = irreducibles_up_to(F2, 4)
    assert [len(x) for x in I] == [2, 1, 2, 3]
    # exhaustive oracle: per-poly Frobenius test over the full enumeration
    for k in range(1, 5):
        brute = [f for f in enumerate_monic(F2, k) if is_irreducible(f)]
        assert brute == I[k - 1]


def test_irreducible_counts_exhaustive_oracle_q3():
    I = irreducibles_up_to(F3, 3)
    assert len(I[1]) == 3
    for k in range(1, 4):
        brute = [f for f in enumerate_monic(F3, k) if is_irreducible(f)]
        assert brute == I[k - 1]


def test_pi_1_equals_q():
    for F in ALL_FIELDS:
        assert len(irreducibles_up_to(F, 1)[0]) == F.q


def test_necklace_formula_against_enumeration():
    # pi_k <= q^k/k and exhaustive counts match the necklace formula
    for F, kmax in [(F2, 8), (F3, 6), (F4, 5), (F5, 4)]:
        I = irreducibles_up_to(F, kmax)
        for k in range(1, kmax + 1):
            pk = len(I[k - 1])
            assert pk == monic_irreducible_count(F.q, k)
            assert pk * k <= F.q**k


def test_degree_weighted_irreducible_sum():
    # sum_{k|d} k*pi_k = q^d
    for q in (2, 3, 4):
        for d in range(1, 9):
            total = sum(
                k * monic_irreducible_count(q, k) for k in range(1, d + 1) if d % k == 0
            )
            assert total == q**d


def test_lex_least_irreducible_is_first_in_stream():
    for F, d in [(F2, 4), (F3, 3), (F4, 2)]:
        least = lex_least_irreducible(F, d)
        for f in enumerate_monic(F, d):
            if is_irreducible(f):
                assert f == least
                break


# -- factors of a modulus --------------------------------------------------


def repeated(pairs) -> str:
    """The regex of Modulus's message for a Q with these repeated factors."""
    return re.escape(f"(repeated factors: {[(str(g), m) for g, m in pairs]})")


def test_modulus_factors_obvious_split():
    m = Modulus(Poly.from_string(F2, "t^2+t"))
    assert [str(p) for p in m.irreducible_factors] == ["t", "t+1"]
    assert m.kind == "squarefree-composite"


def test_modulus_factors_irreducible_identity():
    f = Poly.from_string(F2, "t^3+t+1")
    assert Modulus(f).irreducible_factors == (f,)


def test_modulus_refuses_a_square():
    g = Poly.from_string(F2, "t^2+t+1")
    sq = schoolbook_mul(g, g)
    with pytest.raises(ValueError, match=repeated([(g, 2)])):
        Modulus(sq)
    assert trial_factor(sq) == ((g, 2),)
    assert factorization_product(trial_factor(sq), F2) == sq


def test_modulus_and_trial_factor_reject_zero():
    with pytest.raises(ValueError, match="degree >= 1"):
        Modulus(Poly(F2, ()))
    with pytest.raises(ValueError):
        trial_factor(Poly(F2, ()))


def test_modulus_factors_of_random_multisets():
    """Products of known irreducibles with known multiplicities: the factors, or the repeated ones in the refusal."""
    rng = random.Random(11)
    for F in ALL_FIELDS:
        irr = irreducibles_up_to(F, 3)
        pool = [f for level in irr for f in level]
        for _ in range(25):
            chosen = rng.choices(pool, k=rng.randrange(1, 4))
            mults = [rng.randrange(1, 3) for _ in chosen]
            prod = Poly.one(F)
            for f, m in zip(chosen, mults):
                prod = prod * f**m
            unit = rng.randrange(1, F.q)
            prod = Poly(F, [F.mul(c, unit) for c in prod.coeffs])
            expected = {}
            for f, m in zip(chosen, mults):
                expected[f] = expected.get(f, 0) + m
            ordered = sorted(expected.items(), key=lambda fm: (fm[0].degree, fm[0].code()))
            if F.q**prod.degree > 16 * residue.FULL_TABLE_LIMIT:
                with pytest.raises(ValueError, match="16 times the dense table limit"):
                    Modulus(prod)
            elif max(expected.values()) > 1:
                with pytest.raises(ValueError, match=repeated((g, m) for g, m in ordered if m > 1)):
                    Modulus(prod)
            else:
                m = Modulus(prod)
                assert m.poly == prod.monic()
                assert m.irreducible_factors == tuple(g for g, _ in ordered)


def test_modulus_refuses_an_inseparable_power():
    # every odd coefficient of (t^2+t+1)^4 over F_2 is zero, so its derivative vanishes
    g = Poly.from_string(F2, "t^2+t+1")
    f = g**4
    assert not any(f.coeffs[1::2])
    with pytest.raises(ValueError, match=repeated([(g, 4)])):
        Modulus(f)
    assert trial_factor(f) == ((g, 4),)


# -- smoothness ---------------------------------------------------------


def test_is_smooth_trivial_cases():
    f = Poly.from_string(F2, "t^4+t^3+1")
    assert is_smooth(f, f.degree)
    assert is_smooth(Poly.from_string(F2, "t^2+t"), 1)


def test_irreducible_not_smooth_below_its_degree():
    f = Poly.from_string(F2, "t^3+t+1")
    assert not is_smooth(f, 2)


def test_max_factor_degree():
    f = Poly.from_string(F2, "t^2+t") * Poly.from_string(F2, "t^3+t+1")
    assert max_factor_degree(f) == 3


# -- text format --------------------------------------------------------


def test_poly_text_roundtrip():
    for F in ALL_FIELDS:
        rng = random.Random(F.q)
        for _ in range(20):
            f = Poly.from_code(F, rng.randrange(0, F.q**6))
            assert Poly.from_string(F, str(f)) == f


def test_poly_parse_csv_form():
    assert Poly.from_string(F2, "1,1,1") == Poly.from_string(F2, "t^2+t+1")
    assert Poly.from_string(F3, "2, 0, 1") == Poly.from_string(F3, "t^2+2")


def test_zero_polynomial_conventions():
    z = Poly(F2, ())
    assert z.degree is None
    assert z.is_zero
    assert str(z) == "0"
    assert not z.is_monic
