import random
import warnings

import mpmath
import numpy as np
import pytest

from ffchar import characters
from ffchar.algebra import Field, Poly
from ffchar.characters import (
    all_char_sums_Ad,
    character_labels,
    dlog_histogram,
    power_index,
    unit_dlog_histogram,
)
from ffchar.residue import Modulus
from ffchar.smooth import smooth_dlog_histogram
from ffchar.vecpoly import max_degree_profile_cached
from phase_oracle import (
    all_characters,
    char_order,
    character_by_index,
    character_sum_Ad,
    chi_eval,
    dlog,
    enumerate_monic,
    flat_dlog,
    is_principal,
    modulus_from_text,
    power,
)

F2 = Field.get(2)
F3 = Field.get(3)
F4 = Field.of_order(4)
COMPOSITES = [(F2, "t^3+t^2+t"), (F3, "t^3+2t"), (F4, "t^2+t"), (F2, "t^5+t^4+t^3+t")]


def mkmod(field, text):
    return modulus_from_text(field, text)


# -- dual group ----------------------------------------------------------


def test_character_count_smallest():
    m = mkmod(F2, "t^2+t+1")
    chars = list(all_characters(m))
    assert len(chars) == 3
    assert sum(is_principal(c) for c in chars) == 1


def test_character_count_equals_group_order():
    for field, text in [(F2, "t^3+t+1"), (F3, "t^2+1")]:
        m = mkmod(field, text)
        assert len(list(all_characters(m))) == m.unit_group.group_order


def test_characters_with_power_principal_counts():
    m = mkmod(F2, "t^4+t+1")  # N-1 = 15
    for div in (1, 3, 5, 15):
        assert sum(is_principal(power(chi, div)) for chi in all_characters(m)) == div


def test_character_order_divides_group_order():
    m = mkmod(F2, "t^4+t+1")
    for chi in all_characters(m):
        assert 15 % char_order(chi) == 0
        assert is_principal(power(chi, char_order(chi)))


# -- evaluation ----------------------------------------------------------


def test_chi_eval_zero_on_modulus():
    m = mkmod(F2, "t^3+t+1")
    for chi in all_characters(m):
        assert chi_eval(chi, m.poly).is_zero


def test_principal_is_one_on_units():
    m = mkmod(F2, "t^3+t+1")
    chi0 = character_by_index(m, 0)
    for code in range(1, 8):
        v = chi_eval(chi0, Poly.from_code(F2, code))
        assert v.phase == 0
        assert v.to_complex() == 1


def test_multiplicativity_random_pairs():
    rng = random.Random(13)
    for field, text in [(F2, "t^4+t+1"), (F3, "t^2+1"), (F2, "t^3+t^2+t")]:
        m = mkmod(field, text)
        chars = list(all_characters(m))
        for _ in range(60):
            chi = rng.choice(chars)
            f = Poly.from_code(field, rng.randrange(0, field.q**5))
            g = Poly.from_code(field, rng.randrange(0, field.q**5))
            lhs = chi_eval(chi, f * g)
            rhs = chi_eval(chi, f) * chi_eval(chi, g)
            assert lhs == rhs


def test_value_depends_only_on_residue():
    m = mkmod(F2, "t^3+t+1")
    chi = character_by_index(m, 3)
    f = Poly.from_string(F2, "t^5+t+1")
    assert chi_eval(chi, f) == chi_eval(chi, f % m.poly)


def test_char_value_modulus_is_one():
    m = mkmod(F3, "t^2+1")
    for chi in all_characters(m):
        for code in range(1, 9):
            v = chi_eval(chi, Poly.from_code(F3, code))
            if not v.is_zero:
                assert abs(abs(v.to_complex()) - 1) < 1e-12


# -- orthogonality -------------------------------------------------------


def test_orthogonality_sum_over_units():
    m = mkmod(F2, "t^4+t+1")
    for chi in all_characters(m):
        total = sum(chi_eval(chi, Poly.from_code(F2, c)).to_complex() for c in range(1, 16))
        if is_principal(chi):
            assert abs(total - 15) < 1e-9
        else:
            assert abs(total) < 1e-9


def test_orthogonality_sum_over_characters():
    m = mkmod(F2, "t^4+t+1")
    for code in range(1, 16):
        x = Poly.from_code(F2, code)
        total = sum(chi_eval(chi, x).to_complex() for chi in all_characters(m))
        if x == Poly.one(F2):
            assert abs(total - 15) < 1e-9
        else:
            assert abs(total) < 1e-9


def test_power_residue_identity():
    # sum over chi with chi^m principal of chi(x) = m on m-th power residues, else 0
    m = mkmod(F2, "t^4+t+1")
    table = m.dlog_table
    for div in (1, 3, 5, 15):
        chars = [chi for chi in all_characters(m) if is_principal(power(chi, div))]
        for code in range(1, 16):
            x = Poly.from_code(F2, code)
            total = sum(chi_eval(chi, x).to_complex() for chi in chars)
            is_power = dlog(table, x) % div == 0  # cyclic group: m-th power iff m | dlog
            want = div if is_power else 0
            assert abs(total - want) < 1e-9


# -- character sums over A_d ---------------------------------------------


def test_principal_sum_counts_units():
    m = mkmod(F2, "t^4+t+1")
    chi0 = character_by_index(m, 0)
    for d in range(4):  # d < n: no multiples of Q
        s = character_sum_Ad(chi0, d)
        assert s.value == 2**d
    s4 = character_sum_Ad(chi0, 4)  # exactly one multiple of Q in A_4
    assert s4.value == 16 - 1


def test_nonprincipal_sum_degree_zero_is_one():
    m = mkmod(F2, "t^4+t+1")
    chi = character_by_index(m, 7)
    s = character_sum_Ad(chi, 0)
    assert abs(s.value - 1) < 1e-12


def test_high_degree_sums_vanish():
    # A(m, chi) = 0 for m >= n, exhaustively for q=2, n <= 6, d <= n+2
    for n in range(2, 7):
        m = Modulus.irreducible(F2, n)
        for chi in all_characters(m):
            if is_principal(chi):
                continue
            for d in range(n, n + 3):
                s = character_sum_Ad(chi, d)
                assert abs(s.value) < 1e-9 * 2**d


def test_sum_matches_brute_force():
    for field, text in [(F2, "t^4+t+1"), (F3, "t^2+1"), (F2, "t^3+t^2+t")]:
        m = mkmod(field, text)
        for chi in all_characters(m):
            for d in range(5):
                brute = sum(chi_eval(chi, f).to_complex() for f in enumerate_monic(field, d))
                s = character_sum_Ad(chi, d)
                assert abs(s.value - brute) < 1e-9


def test_sum_matches_high_precision_histogram_oracle():
    """Rational-arithmetic oracle: exact phase counts x 50-digit roots of unity."""
    m = mkmod(F2, "t^6+t+1")
    hist, _ = unit_dlog_histogram(m, 5)
    M = 63
    with mpmath.workdps(50):
        for k in (1, 5, 21, 40):
            chi = character_by_index(m, k)
            acc = mpmath.mpc(0)
            for j in range(M):
                if hist[j]:
                    acc += int(hist[j]) * mpmath.e ** (2j * mpmath.pi * ((k * j) % M) / M)
            want = complex(acc)
            got = character_sum_Ad(chi, 5)
            assert abs(got.value - want) <= 1e-9 * max(1.0, abs(want))
            assert got.err_bound < 1e-10


def test_sum_oracle_at_a_million_terms():
    # 2^20 monic polynomials mod a degree-6 modulus: histogram route vs the
    # high-precision oracle, 1e-9 relative
    m = Modulus.irreducible(F2, 6)
    hist, nonunits = unit_dlog_histogram(m, 20)
    assert hist.sum() + nonunits == 2**20
    M = 63
    with mpmath.workdps(40):
        for k in (1, 31):
            acc = mpmath.mpc(0)
            for j in range(M):
                if hist[j]:
                    acc += int(hist[j]) * mpmath.e ** (2j * mpmath.pi * ((k * j) % M) / M)
            want = complex(acc)
            got = character_sum_Ad(character_by_index(m, k), 20)
            assert abs(got.value - want) <= 1e-9 * max(1.0, abs(want))


def test_bulk_fft_sums_match_exact_phase_path():
    for field, n in [(F2, 5), (F3, 3)]:
        m = Modulus.irreducible(field, n)
        for d in (0, 2, 4, n, n + 1):
            bulk = all_char_sums_Ad(m, d)
            for k in range(m.unit_group.group_order):
                chi = character_by_index(m, k)
                s = character_sum_Ad(chi, d)
                assert abs(bulk[k] - s.value) < 1e-8


def test_histograms_worker_invariant():
    m = Modulus.irreducible(F2, 5)
    for d in (3, 6):
        h1, nu1 = unit_dlog_histogram(m, d, workers=1)
        h8, nu8 = unit_dlog_histogram(m, d, workers=8)
        assert np.array_equal(h1, h8)
        assert nu1 == nu8


def test_composite_modulus_sums():
    m = Modulus(Poly.from_string(F2, "t") * Poly.from_string(F2, "t^2+t+1"))
    chars = list(all_characters(m))
    assert len(chars) == 3  # orders 1 * 3
    for chi in chars:
        for d in range(4):
            brute = sum(chi_eval(chi, f).to_complex() for f in enumerate_monic(F2, d))
            s = character_sum_Ad(chi, d)
            assert abs(s.value - brute) < 1e-9


def test_character_by_index_is_all_characters_order():
    for field, text in COMPOSITES + [(F2, "t^4+t+1")]:
        m = mkmod(field, text)
        chars = list(all_characters(m))
        assert len(chars) == m.unit_group.group_order
        for k, chi in enumerate(chars):
            assert character_by_index(m, k) == chi


# irreducible moduli over F_2, F_3, F_4 and the composites of test_residue.py
SPECTRUM_MODULI = [(F2, "t^4+t+1"), (F3, "t^3+2t+1"), (F4, "t^2+t+2"), (F2, "t^3+t^2+t"), (F3, "t^3+2t"), (F4, "t^2+t")]


def test_power_index_is_the_oracle_power():
    for field, text in SPECTRUM_MODULI:
        m = mkmod(field, text)
        order = m.unit_group.group_order
        idx = np.arange(order)
        for e in list(range(order + 2)) + [5 * order + 3]:
            got = power_index(m, idx, e)
            for j in range(order):
                want = power(character_by_index(m, j), e)
                assert character_by_index(m, int(got[j])) == want, (text, j, e)
                assert power_index(m, j, e) == got[j]


def test_bulk_fft_sums_match_exact_phase_path_on_composites():
    for field, text in COMPOSITES[:3]:
        m = mkmod(field, text)
        chars = list(all_characters(m))
        for d in range(7):
            bulk = all_char_sums_Ad(m, d)
            assert bulk.shape == (len(chars),)
            for k, chi in enumerate(chars):
                assert abs(bulk[k] - character_sum_Ad(chi, d).value) < 1e-8


def test_histograms_chunk_and_worker_invariant(monkeypatch):
    for field, text, d in [(F2, "t^5+t^2+1", 9), (F3, "t^3+2t", 6)]:
        m = mkmod(field, text)
        want = unit_dlog_histogram(m, d)
        for chunk, workers in [(7, 1), (7, 3), (64, 2), (1, 4)]:
            monkeypatch.setattr(characters, "HIST_CHUNK", chunk)
            got = unit_dlog_histogram(m, d, workers=workers)
            assert np.array_equal(got[0], want[0])
            assert got[1] == want[1]


def test_histogram_holds_one_chunk_bincount_at_a_time(monkeypatch):
    """Across chunks the peak is the histogram, one chunk's bincount and that chunk's arrays."""
    import tracemalloc

    m = Modulus.irreducible(F2, 16)
    m.dlog_table  # built before tracing
    order_bytes = m.unit_group.group_order * 8
    monkeypatch.setattr(characters, "HIST_CHUNK", 1 << 12)  # A_15 spans 8 chunks
    want = unit_dlog_histogram(m, 15)
    tracemalloc.start()
    try:
        got = unit_dlog_histogram(m, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    # a previous chunk's bincount kept alive while the next chunk is reduced adds one order_bytes
    assert peak < 2.5 * order_bytes


def test_dual_group_sums_refuse_non_finite_sums():
    m = Modulus.irreducible(F2, 5)
    hist = np.ones(m.unit_group.group_order)
    assert np.isfinite(characters.dual_group_sums(m, hist)).all()
    for bad in (np.nan, np.inf):
        hist[3] = bad
        # an inf sum holds inf and -inf, whose reduction warns unless the check silences it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match="not all finite"):
                characters.dual_group_sums(m, hist)


# -- closed form at d >= deg Q against enumeration ------------------------


def block_loop_dlogs(modulus, d):
    """Oracle: flat dlog of every f in A_d (d >= deg Q) in code order, -1 for non-units.

    Each block of q^n consecutive codes shares its head t^d + hi * t^n, which
    is reduced mod Q once with scalar `%`; the block's residues are then
    head + lo for every lo of degree < n.
    """
    F = modulus.field
    q, n = F.q, modulus.n
    flat_of = np.array([flat_dlog(modulus.dlog_table, Poly.from_code(F, c)) for c in range(q**n)])
    out = []
    for hi in range(q ** (d - n)):
        head = Poly.from_code(F, q**d + hi * q**n) % modulus.poly
        out.extend(flat_of[(Poly.from_code(F, lo) + head).code()] for lo in range(q**n))
    return np.array(out, dtype=np.int64)


def counted(flat, order):
    """(histogram of the unit dlogs in flat, number of non-units)."""
    return np.bincount(flat[flat >= 0], minlength=order), int((flat < 0).sum())


def hist_moduli():
    irreducible = [Modulus.irreducible(Field.of_order(q), n) for q, n in [(2, 4), (3, 3), (4, 2), (5, 2)]]
    return irreducible + [mkmod(field, text) for field, text in COMPOSITES]


@pytest.mark.parametrize("workers", [1, 2])
def test_closed_form_histogram_equals_enumeration(monkeypatch, workers):
    monkeypatch.setattr(characters, "HIST_CHUNK", 7)
    for m in hist_moduli():
        q, n, order = m.field.q, m.n, m.unit_group.group_order
        for d in (n, n + 1, n + 3):
            hist, nonunits = unit_dlog_histogram(m, d, workers=workers)
            assert np.array_equal(hist, np.full(order, q ** (d - n)))
            assert nonunits == q**d - order * q ** (d - n)
            want_hist, want_nonunits = counted(block_loop_dlogs(m, d), order)
            assert np.array_equal(hist, want_hist), (str(m.poly), d)
            assert nonunits == want_nonunits
            # r >= d keeps every f: the smooth slice is the closed form too
            for r in (d, d + 1):
                s_hist, s_nonunits = smooth_dlog_histogram(m, d, r)
                assert np.array_equal(s_hist, hist) and s_nonunits == nonunits


def test_non_unit_count_is_its_closed_form_below_at_and_above_n():
    """The inclusion-exclusion count `unit_dlog_histogram` checks, against Euclid's gcd for every f in A_d."""
    for m in hist_moduli():
        for d in range(m.n + 3):
            want = 0
            for f in enumerate_monic(m.field, d):
                g, h = m.poly, f
                while not h.is_zero:
                    g, h = h, g % h
                want += g.degree > 0
            assert unit_dlog_histogram(m, d)[1] == want, (str(m.poly), d)


@pytest.mark.parametrize("workers", [1, 2])
def test_smooth_slices_at_and_above_n_match_enumeration(monkeypatch, workers):
    # r < d still enumerates: chunks of 7 cut across the blocks of q^n codes.
    # The profile is checked against scalar factorization in test_vecpoly.
    monkeypatch.setattr(characters, "HIST_CHUNK", 7)
    for m in hist_moduli():
        for d in (m.n, m.n + 1, m.n + 3):
            flat = block_loop_dlogs(m, d)
            top = max_degree_profile_cached(m.field, d)
            for r in range(1, d):
                got = dlog_histogram(m, d, r, workers=workers)
                want = counted(flat[top <= r], m.unit_group.group_order)
                assert np.array_equal(got[0], want[0]), (str(m.poly), d, r)
                assert got[1] == want[1]


@pytest.mark.parametrize("q,Q", [(2, "t^5+t^2+1"), (3, "t^3+2t"), (2, "t^6+t^5+t^3+t")])
def test_character_labels_match_character_by_index(q, Q):
    m = Modulus(Poly.from_string(Field.get(q), Q))
    order = m.unit_group.group_order
    assert character_labels(m) == [character_by_index(m, k).label for k in range(order)]
