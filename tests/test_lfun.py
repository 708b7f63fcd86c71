import math

import numpy as np
import pytest

import ffchar.lfun
from ffchar.algebra import Field, Poly, irreducibles_up_to
from ffchar.lfun import (
    WEIL_CLASSES,
    conductor_profile,
    inverse_roots,
    lpolynomial_coeffs,
    mertens_products,
    prime_sum_spectrum,
    von_mangoldt_spectrum,
    weil_classes,
    weil_counts_match,
)
from ffchar.residue import Modulus
from phase_oracle import (
    LPolynomial,
    _extract_inverse_roots,
    all_characters,
    build_all_lpolynomials,
    build_lpolynomial,
    character_by_index,
    character_sum_Ad,
    chi_eval,
    conductor,
    enumerate_monic,
    inverse_root_power_sum,
    is_principal,
    modulus_from_text,
    prime_char_sum,
    trial_factor,
    verify_weil,
    von_mangoldt_sum,
)

F2 = Field.get(2)
F3 = Field.get(3)
F4 = Field.of_order(4)


def test_smallest_lpolynomial():
    m = modulus_from_text(F2, "t^2+t+1")
    for k in (1, 2):
        chi = character_by_index(m, k)
        L = build_lpolynomial(chi)
        # direct A(1, chi) oracle: two monic linears
        want = chi_eval(chi, Poly(F2, (0, 1))).to_complex() + chi_eval(
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


def weil_verdict(m: Modulus) -> tuple[bool, float]:
    """(class counts as the conductors predict, max deviation) of every inverse root of every non-principal chi mod m."""
    _, cls, dev = weil_classes(inverse_roots(lpolynomial_coeffs(m)).roots, m.field.q, 1e-6)
    return weil_counts_match(m, cls), float(dev.max(initial=0.0))


def test_weil_q2_degree4():
    passed, worst = weil_verdict(Modulus.irreducible(F2, 4))  # t^4+t+1
    assert passed
    assert worst < 1e-6


def test_weil_q3_degree3():
    assert weil_verdict(Modulus.irreducible(F3, 3))[0]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_weil_on_degree_one_moduli(q):
    # n = 1: q - 2 non-principal characters, each L-polynomial the constant 1, D = 0 and no roots
    m = Modulus.irreducible(Field.of_order(q), 1)
    L = inverse_roots(lpolynomial_coeffs(m))
    assert L.coeffs.tolist() == [[1 + 0j]] * (q - 2) and L.roots.shape == (q - 2, 0)
    assert L.flat_roots().size == 0 and L.residual.tolist() == [0.0] * (q - 2)
    assert L.power_sums(3).tolist() == [0j] * (q - 2)
    mod, cls, dev = weil_classes(L.roots, q, 1e-6)
    assert mod.shape == cls.shape == dev.shape == (q - 2, 0)
    assert weil_counts_match(m, cls)


def test_weil_classes_match_the_per_root_oracle():
    # roots placed on, near and off the two circles, classified one root at a time by the oracle
    q, tol = 3, 1e-6
    radii = [1.0, 1 + 5e-7, 1 - 2e-6, math.sqrt(q), math.sqrt(q) + 9e-7, math.sqrt(q) - 3e-6, 0.5, 2.0]
    roots = np.array([r * np.exp(1j * (0.3 + i)) for i, r in enumerate(radii)])
    chi = character_by_index(Modulus.irreducible(F3, 2), 1)
    oracle = verify_weil(LPolynomial(chi, np.ones(1, dtype=np.complex128), roots, 0.0), tol)
    mod, cls, dev = weil_classes(roots, q, tol)
    assert [WEIL_CLASSES[c] for c in cls.tolist()] == [r["class"] for r in oracle.roots]
    assert [WEIL_CLASSES[c] for c in cls.tolist()] == ["unit", "unit", "violation", "sqrt_q", "sqrt_q"] + ["violation"] * 3
    assert mod.tolist() == [r["modulus"] for r in oracle.roots]
    assert float(dev.max()) == oracle.max_deviation


def test_bulk_lpolynomials_match_per_character():
    m = Modulus.irreducible(F2, 5)
    coeffs = lpolynomial_coeffs(m)
    assert coeffs.shape == (30, 5)
    for k in (1, 7, 19, 30):
        single = build_lpolynomial(character_by_index(m, k))
        assert np.allclose(coeffs[k - 1], single.coeffs, atol=1e-9)


def test_bulk_lpolynomials_match_per_character_on_composites():
    for field, text in [(F2, "t^5+t^4+t^3+t"), (Field.get(3), "t^4+t^3+t")]:
        m = modulus_from_text(field, text)
        coeffs = lpolynomial_coeffs(m)
        chars = list(all_characters(m))
        assert len(coeffs) == len(chars) - 1
        for k in range(1, len(chars)):
            single = build_lpolynomial(chars[k])
            assert np.allclose(coeffs[k - 1], single.coeffs, atol=1e-9)
            assert single.degree == m.n - 1  # found numerically by the oracle: the degree production assumes
        assert weil_verdict(m)[0]


# the moduli whose weil and primes-bound --identity output digests tests/test_cli.py pins
DIGEST_MODULI = [(F2, None, 8), (F3, None, 4), (F4, None, 3), (Field.of_order(9), None, 2), (F2, None, 12),
                 (F2, "t^6+t^5+t^3+t", 6), (F3, "t^3+2t", 3)]


@pytest.mark.parametrize("field,text,n", DIGEST_MODULI)
def test_inverse_roots_bit_identical_to_the_per_character_oracle(field, text, n):
    # the same coefficient rows, roots by one np.roots per character against one eigvals per degree
    m = modulus_from_text(field, text) if text else Modulus.irreducible(field, n)
    oracle = build_all_lpolynomials(m)
    L = inverse_roots(lpolynomial_coeffs(m))
    flat, residual, D = L.flat_roots(), L.residual, m.n - 1
    assert len(oracle) == len(L.roots) == m.unit_group.group_order - 1
    for k, single in oracle.items():
        assert single.degree == D
        assert flat[(k - 1) * D : k * D].tobytes() == single.inverse_roots.tobytes()
        assert residual[k - 1 : k].tobytes() == np.float64(single.root_residual).tobytes()
    for j in range(1, 7):
        want = np.array([inverse_root_power_sum(oracle[k], j) for k in sorted(oracle)], dtype=np.complex128)
        assert L.power_sums(j).tobytes() == want.tobytes()


@pytest.mark.parametrize("block", [2048, 7])
def test_inverse_roots_bit_identical_across_blocks(monkeypatch, block):
    # q = 2, n = 8: 254 rows of degree 7, in one block or in 37 blocks of at most 7 rows
    monkeypatch.setattr(ffchar.lfun, "ROOT_BLOCK", block)
    coeffs = lpolynomial_coeffs(Modulus.irreducible(F2, 8))
    L = inverse_roots(coeffs)
    assert L.roots.shape == (254, 7)
    sums = L.power_sums(5)
    for i, row in enumerate(coeffs):
        roots, res = _extract_inverse_roots(row)
        assert L.roots[i].tobytes() == roots.tobytes()
        assert L.residual[i] == res
        assert sums[i] == complex((roots**5).sum())


# squarefree moduli over F_2..F_5: irreducible ones, the composites pinned by digests and CI, and factors of degree 1
CONDUCTOR_MODULI = [
    (F2, "t^4+t+1"), (F2, "t^3+t^2+t"), (F2, "t^5+t^4+t^3+t"), (F2, "t^6+t^5+t^3+t"),
    (F3, "t^3+2t+1"), (F3, "t^3+2t"), (F3, "t^4+t^3+t"),
    (F4, "t^2+t+2"), (F4, "t^2+t"), (F4, "t^3+t^2+2"),
    (Field.get(5), "t^2+2"), (Field.get(5), "t^3+4t"),
]


@pytest.mark.parametrize("field,text", CONDUCTOR_MODULI)
def test_conductor_profile_matches_the_brute_force_oracle(field, text):
    """deg c and e against residues, and the class counts they predict against each character's np.roots."""
    m = modulus_from_text(field, text)
    deg_c, even = conductor_profile(m)
    want = [conductor(character_by_index(m, k)) for k in range(1, m.unit_group.group_order)]
    assert list(zip(deg_c.tolist(), even.tolist())) == want
    assert field.q == 2 or set(even.tolist()) == {0, 1}  # over F_2 every character is trivial on F_2^* = {1}
    for k, L in build_all_lpolynomials(m).items():
        classes = [r["class"] for r in verify_weil(L).roots]
        d, e = want[k - 1]
        assert (classes.count("unit"), classes.count("sqrt_q")) == (m.n - d + e, d - 1 - e)


def test_coefficient_root_consistency():
    # expanding prod (1 - alpha_i z) reproduces the coefficients
    for field, n in [(F2, 4), (F2, 6), (F3, 3)]:
        m = Modulus.irreducible(field, n)
        L = inverse_roots(lpolynomial_coeffs(m))
        for i, coeffs in enumerate(L.coeffs):
            poly = np.array([1.0 + 0j])
            for a in L.roots[i]:
                poly = np.convolve(poly, np.array([1.0, -a]))
            want = np.zeros(n, dtype=np.complex128)
            want[: len(poly)] = poly
            assert np.max(np.abs(want - coeffs)) < 1e-6


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
    m = modulus_from_text(F2, "t^2+t+1")
    for k in (1, 2):
        chi = character_by_index(m, k)
        got = prime_char_sum(chi, 1)
        want = chi_eval(chi, Poly(F2, (0, 1))).to_complex() + chi_eval(
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
        m = modulus_from_text(field, text)
        ks = range(1, m.n + 4)
        spectra = {k: prime_sum_spectrum(m, k) for k in ks}
        for k in ks:
            vm = von_mangoldt_spectrum(m.unit_group.component_orders, k, spectra)
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
                fac = trial_factor(f)
                if len(fac) == 1:
                    P, _ = fac[0]
                    brute += P.degree * chi_eval(chi, f).to_complex()
            got = von_mangoldt_sum(chi, k)
            assert abs(got.value - brute) < 1e-9


def test_von_mangoldt_equals_root_power_sums():
    for field, n in [(F2, 4), (F2, 6), (F3, 3)]:
        m = Modulus.irreducible(field, n)
        roots = inverse_roots(lpolynomial_coeffs(m))
        sums = {k: roots.power_sums(k) for k in range(1, 9)}
        for k_idx in range(1, m.unit_group.group_order):
            chi = character_by_index(m, k_idx)
            for k in range(1, 9):
                lhs = von_mangoldt_sum(chi, k).value
                rhs = -sums[k][k_idx - 1]
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
    (got,) = mertens_products(2, 1)
    assert got.product == pytest.approx(4.0, abs=1e-12)  # (1 - 1/2)^(-2)


def test_mertens_ratio_window_and_monotone():
    prev = 0.0
    rows = mertens_products(2, 20)
    assert [got.k for got in rows] == list(range(1, 21))
    for got in rows:
        assert got.product > prev  # extra factors all exceed 1
        prev = got.product
    assert 0.9 <= rows[-1].ratio <= 1.1


def test_mertens_one_pass_matches_each_product_from_scratch():
    """Row k of the one pass renders the product over deg P <= k formed on its own, to the bit."""
    from ffchar.algebra import monic_irreducible_count

    for q, k in ((2, 12), (3, 6), (4, 5), (9, 3)):
        for got in mertens_products(q, k):
            pis = [(q**j, monic_irreducible_count(q, j)) for j in range(1, got.k + 1)]
            num, den = math.prod(qj**pj for qj, pj in pis), math.prod((qj - 1) ** pj for qj, pj in pis)
            assert abs(got.product - num / den) <= 1e-15 * got.product
            assert got.product == ffchar.lfun._big_ratio_to_float(num, den)
            assert got.ratio == got.product / (math.exp(float(np.euler_gamma)) * got.k)
