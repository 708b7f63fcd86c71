import math

import numpy as np
import pytest

from ffchar.algebra import Field, Poly, factorize, irreducibles_up_to
from ffchar.characters import character_by_index
from ffchar.lfun import (
    build_all_lpolynomials,
    inverse_root_power_sum,
    mertens_product,
    prime_sum_spectrum,
    verify_weil,
    von_mangoldt_spectrum,
)
from ffchar.residue import Modulus
from phase_oracle import (
    all_characters,
    build_lpolynomial,
    character_sum_Ad,
    chi_eval,
    enumerate_monic,
    is_principal,
    prime_char_sum,
    von_mangoldt_sum,
)

F2 = Field.get(2)
F3 = Field.get(3)
F4 = Field.of_order(4)


def test_smallest_lpolynomial():
    m = Modulus.from_text(F2, "t^2+t+1")
    for k in (1, 2):
        chi = character_by_index(m, k)
        L = build_lpolynomial(chi)
        # direct A(1, chi) oracle: two monic linears
        want = chi_eval(chi, Poly.t(F2)).to_complex() + chi_eval(
            chi, Poly.from_string(F2, "t+1")
        ).to_complex()
        assert abs(L.coeffs[1] - want) < 1e-12
        assert abs(L.coeffs[0] - 1) < 1e-12
        assert abs(want - (-1)) < 1e-12  # zeta + zeta^2 = -1 for a cube root of unity


def test_constant_term_is_one():
    m = Modulus.irreducible(F2, 4)
    for chi in all_characters(m):
        if is_principal(chi):
            continue
        L = build_lpolynomial(chi)
        assert abs(L.coeffs[0] - 1) < 1e-12


def test_high_coefficients_vanish():
    m = Modulus.irreducible(F2, 4)
    for chi in all_characters(m):
        if is_principal(chi):
            continue
        for d in (4, 5, 6):
            s = character_sum_Ad(chi, d)
            assert abs(s.value) < 1e-9 * 2**d


def test_principal_rejected():
    m = Modulus.irreducible(F2, 3)
    with pytest.raises(ValueError):
        build_lpolynomial(character_by_index(m, 0))


def test_weil_q2_degree4():
    m = Modulus.irreducible(F2, 4)  # t^4+t+1
    for chi in all_characters(m):
        if is_principal(chi):
            continue
        rep = verify_weil(build_lpolynomial(chi), tol=1e-6)
        assert rep.passed
        assert rep.max_deviation < 1e-6


def test_weil_q3_degree3():
    m = Modulus.irreducible(F3, 3)
    for chi in all_characters(m):
        if is_principal(chi):
            continue
        rep = verify_weil(build_lpolynomial(chi), tol=1e-6)
        assert rep.passed


def test_weil_vacuous_on_degree_zero():
    from ffchar.lfun import LPolynomial

    m = Modulus.irreducible(F2, 2)
    chi = character_by_index(m, 1)
    L = LPolynomial(chi, np.array([1.0 + 0j]), np.zeros(0, dtype=np.complex128), 0.0)
    assert verify_weil(L).passed


def test_bulk_lpolynomials_match_per_character():
    m = Modulus.irreducible(F2, 5)
    bulk = build_all_lpolynomials(m)
    for k in (1, 7, 19, 30):
        single = build_lpolynomial(character_by_index(m, k))
        assert np.allclose(bulk[k].coeffs, single.coeffs, atol=1e-9)


def test_bulk_lpolynomials_match_per_character_on_composites():
    for field, text in [(F2, "t^5+t^4+t^3+t"), (Field.get(3), "t^4+t^3+t")]:
        m = Modulus.from_text(field, text)
        bulk = build_all_lpolynomials(m)
        chars = list(all_characters(m))
        assert sorted(bulk) == list(range(1, len(chars)))
        for k, L in bulk.items():
            assert L.chi == chars[k]
            single = build_lpolynomial(chars[k])
            assert np.allclose(L.coeffs, single.coeffs, atol=1e-9)
            assert L.degree == single.degree
            assert verify_weil(L).passed


def test_coefficient_root_consistency():
    # expanding prod (1 - alpha_i z) reproduces the coefficients
    for field, n in [(F2, 4), (F2, 6), (F3, 3)]:
        m = Modulus.irreducible(field, n)
        for k in range(1, m.unit_group.group_order):
            L = build_lpolynomial(character_by_index(m, k))
            poly = np.array([1.0 + 0j])
            for a in L.inverse_roots:
                poly = np.convolve(poly, np.array([1.0, -a]))
            want = np.zeros(n, dtype=np.complex128)
            want[: len(poly)] = poly
            assert np.max(np.abs(want - L.coeffs)) < 1e-6


def test_euler_product_consistency_at_sample_point():
    # L(z0) from coefficients vs the truncated Euler product, within the tail
    field, n, D = F2, 6, 12
    m = Modulus.irreducible(field, n)
    q = field.q
    z0 = 1.0 / (2 * q)
    irr = irreducibles_up_to(field, D)
    tail = 1.1 / (D + 1) * (q * z0) ** (D + 1) / (1 - q * z0)
    for k in (1, 5, 23, 44):
        chi = character_by_index(m, k)
        L = build_lpolynomial(chi)
        prod = 1.0 + 0j
        for level in irr:
            for P in level:
                v = chi_eval(chi, P).to_complex()
                prod /= 1 - v * z0**P.degree
        bound = abs(prod) * 2 * (math.exp(tail) - 1) + 1e-9
        assert abs(L.eval_at(z0) - prod) <= bound


def test_prime_char_sum_principal():
    # principal: pi_k minus 1 exactly when Q itself has degree k
    m = Modulus.irreducible(F2, 3)
    chi0 = character_by_index(m, 0)
    irr = irreducibles_up_to(F2, 4)
    for k in range(1, 5):
        got = prime_char_sum(chi0, k)
        want = len(irr[k - 1]) - (1 if k == 3 else 0)
        assert abs(got.value - want) < 1e-9


def test_prime_char_sum_two_terms():
    m = Modulus.from_text(F2, "t^2+t+1")
    for k in (1, 2):
        chi = character_by_index(m, k)
        got = prime_char_sum(chi, 1)
        want = chi_eval(chi, Poly.t(F2)).to_complex() + chi_eval(
            chi, Poly.from_string(F2, "t+1")
        ).to_complex()
        assert abs(got.value - want) < 1e-12


def test_prime_char_sum_bound_never_violated():
    for field, ns in [(F2, (2, 3, 4, 5, 6)), (F3, (2, 3))]:
        for n in ns:
            m = Modulus.irreducible(field, n)
            for chi in all_characters(m):
                if is_principal(chi):
                    continue
                for k in range(1, 8):
                    got = prime_char_sum(chi, k)
                    assert abs(got.value) <= got.bound + 1e-9


# irreducible moduli over F_2, F_3, F_4 and the composites of test_residue.py
SPECTRUM_MODULI = [(F2, "t^4+t+1"), (F3, "t^3+2t+1"), (F4, "t^2+t+2"), (F2, "t^3+t^2+t"), (F3, "t^3+2t"), (F4, "t^2+t")]


def test_prime_and_von_mangoldt_spectra_match_the_phase_oracle():
    # every character, k from 1 to deg Q + 3: below, at and above the degree of the modulus
    for field, text in SPECTRUM_MODULI:
        m = Modulus.from_text(field, text)
        ks = range(1, m.n + 4)
        spectra = {k: prime_sum_spectrum(m, k) for k in ks}
        for k in ks:
            vm = von_mangoldt_spectrum(m, k, spectra)
            for j, chi in enumerate(all_characters(m)):
                assert abs(spectra[k][j] - prime_char_sum(chi, k).value) < 1e-9, (text, k, j)
                assert abs(vm[j] - von_mangoldt_sum(chi, k).value) < 1e-9, (text, k, j)


def test_von_mangoldt_literal_oracle():
    # brute force: factor every f in A_k and apply the Lambda definition
    m = Modulus.irreducible(F2, 4)
    for chi in [character_by_index(m, 1), character_by_index(m, 6), character_by_index(m, 0)]:
        for k in range(1, 7):
            brute = 0j
            for f in enumerate_monic(F2, k):
                fac = factorize(f).factors
                if len(fac) == 1:
                    P, _ = fac[0]
                    brute += P.degree * chi_eval(chi, f).to_complex()
            got = von_mangoldt_sum(chi, k)
            assert abs(got.value - brute) < 1e-9


def test_von_mangoldt_equals_root_power_sums():
    for field, n in [(F2, 4), (F2, 6), (F3, 3)]:
        m = Modulus.irreducible(field, n)
        for k_idx in range(1, m.unit_group.group_order):
            chi = character_by_index(m, k_idx)
            L = build_lpolynomial(chi)
            for k in range(1, 9):
                lhs = von_mangoldt_sum(chi, k).value
                rhs = -inverse_root_power_sum(L, k)
                assert abs(lhs - rhs) < 1e-6
                assert abs(lhs) <= (n - 1) * field.q ** (k / 2.0) + 1e-6


def test_von_mangoldt_degree_one_structure():
    # A_1 consists of monic linears, all irreducible with Lambda = 1
    m = Modulus.irreducible(F3, 2)
    chi = character_by_index(m, 3)
    want = sum(
        chi_eval(chi, Poly(F3, (a, 1))).to_complex() for a in range(3)
    )
    assert abs(von_mangoldt_sum(chi, 1).value - want) < 1e-12


def test_mertens_small_exact():
    got = mertens_product(2, 1)
    assert got.product == pytest.approx(4.0, abs=1e-12)  # (1 - 1/2)^(-2)


def test_mertens_ratio_window_and_monotone():
    prev = 0.0
    for k in range(1, 21):
        got = mertens_product(2, k)
        assert got.product > prev  # extra factors all exceed 1
        prev = got.product
    assert 0.9 <= mertens_product(2, 20).ratio <= 1.1
