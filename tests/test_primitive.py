import math
from fractions import Fraction

import numpy as np
import pytest

from ffchar import primitive
from ffchar.algebra import Field, Poly
from ffchar.intfact import factor_integer
from ffchar.primitive import (
    best_epsilon_bound,
    density_experiment,
    epsilon_bound,
    in_theorem_range,
    primitivity_indicator_check,
    schedule_degree,
    sieve_quantities,
)
from ffchar.residue import Modulus
from phase_oracle import dlog, enumerate_monic, is_primitive

F2 = Field.get(2)
F3 = Field.get(3)
F4 = Field.of_order(4)


# -- epsilon bound -------------------------------------------------------


def test_epsilon_r_equals_d():
    eb = epsilon_bound(2, 6, 6, 13)
    # rho(1) = 1, so the main term is q^(C2 log d / d)
    want = 2 ** (math.log(6) / 6) + 13 * 2 ** (-3.0)
    assert eb.value == pytest.approx(want, rel=1e-12)


def test_epsilon_monotone_decreasing_in_r():
    for d in (8, 10, 12):
        vals = [epsilon_bound(2, d, r, 13).value for r in range(2, d + 1)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_epsilon_range_flag():
    assert in_theorem_range(2, 10, 8, 13)  # 2 log_2 13 = 7.4 <= 8 <= 10 <= 13
    assert not in_theorem_range(2, 10, 4, 13)
    assert not in_theorem_range(2, 14, 8, 13)  # d > n


def test_epsilon_bound_is_smooths_and_still_primitives():
    from ffchar import primitive, smooth

    for name in ("EpsilonBound", "epsilon_bound", "in_theorem_range"):
        assert getattr(primitive, name) is getattr(smooth, name)
        assert name in primitive.__all__ and name in smooth.__all__


def test_best_epsilon_bound_is_min():
    eb = best_epsilon_bound(2, 10, 13)
    assert eb.value == min(epsilon_bound(2, 10, r, 13).value for r in range(1, 11))


def test_schedule_degree():
    d = schedule_degree(2, 64, 1e-3, 1.0)
    assert d >= 1
    # more stringent eps gives larger d
    assert schedule_degree(2, 64, 1e-6, 1.0) > d
    with pytest.raises(ValueError):
        schedule_degree(2, 64, 0.9, 1.0)


# -- indicator -----------------------------------------------------------


def test_indicator_matches_predicate_small():
    for n in (2, 3, 4, 6):
        m = Modulus.irreducible(F2, n)
        rep = primitivity_indicator_check(m)
        assert rep.max_unit_deviation < 1e-9
        assert rep.primitive_count_units == rep.phi


def test_indicator_generator_and_one():
    m = Modulus.irreducible(F2, 4)
    fact = factor_integer(15)
    g = m.unit_group.components[0].generator
    assert is_primitive(g, m, fact)
    assert not is_primitive(Poly.one(F2), m, fact)


def test_indicator_sum_over_Ad():
    for n, d in [(3, 3), (4, 4), (4, 6), (6, 4)]:
        m = Modulus.irreducible(F2, n)
        rep = primitivity_indicator_check(m, d=d)
        assert abs(rep.total_over_Ad - rep.direct_count_Ad) < 1e-6
        assert rep.decomposition_error < 1e-6


def test_indicator_qd_form_below_n():
    # with d < n every f in A_d is a unit, so the q^d main-term form is exact
    for n, d in [(3, 2), (4, 3), (6, 4)]:
        m = Modulus.irreducible(F2, n)
        rep = primitivity_indicator_check(m, d=d)
        assert rep.unit_count_Ad == 2**d
        main_term_qd_form = Fraction(rep.q**rep.d) * Fraction(rep.phi, rep.group_order)
        assert abs(float(main_term_qd_form) + rep.correction - rep.direct_count_Ad) < 1e-6


def test_indicator_direct_count_against_bruteforce():
    # the dlog mask against the power test over A_d, below, at and above n
    for F, n, ds in [(F2, 4, (2, 4, 5)), (F3, 3, (2, 3, 5)), (F3, 2, (1, 4)), (F4, 2, (1, 2, 4)), (F4, 3, (2, 3))]:
        m = Modulus.irreducible(F, n)
        fact = factor_integer(F.q**n - 1)
        for d in ds:
            rep = primitivity_indicator_check(m, d=d)
            brute = sum(1 for f in enumerate_monic(F, d) if is_primitive(f, m, fact))
            assert rep.direct_count_Ad == brute, (F.q, n, d)
            assert rep.primitive_count_units == fact.phi


def test_composite_modulus_is_refused_by_every_primitivity_route():
    # t^4+t^2+t = t (t^3+t+1): units of order 7, no element of order 15
    Q = Poly.from_string(F2, "t^4+t^2+t")
    with pytest.raises(ValueError, match="^the density experiment needs an irreducible modulus$"):
        density_experiment(Modulus(Q), 3)
    with pytest.raises(ValueError, match="^the sieve needs an irreducible modulus$"):
        sieve_quantities(Modulus(Q), 3)
    with pytest.raises(ValueError, match="^the indicator decomposition needs an irreducible modulus$"):
        primitivity_indicator_check(Modulus(Q), d=3)


@pytest.mark.parametrize("F,Q", [(F2, "t^4+t^3+1"), (F3, "t^3+2t^2+1")])
def test_every_primitivity_route_counts_the_same_for_a_non_canonical_modulus(F, Q):
    m = Modulus(Poly.from_string(F, Q))
    assert m.is_irreducible and m != Modulus.irreducible(F, m.n)
    fact = factor_integer(F.q**m.n - 1)
    for d in (m.n - 1, m.n, m.n + 2):
        count = density_experiment(m, d).count
        sieve = sieve_quantities(m, d)
        assert count == sieve.T == sieve.primitive_count_direct, d
        assert count == primitivity_indicator_check(m, d=d).direct_count_Ad, d
        assert count == sum(1 for f in enumerate_monic(F, d) if is_primitive(f, m, fact)), d


# -- index arithmetic against the per-term oracles ----------------------


def per_term_indicator(order, walk):
    """Oracle: the decomposition at every dlog j, one complex exp over all units per character term."""
    js = np.arange(order, dtype=np.int64)
    rhs = np.zeros(order, dtype=np.complex128)
    for m, mu in walk:
        inner = np.zeros(order, dtype=np.complex128)
        stride = order // m
        for i in range(m):
            phases = (js * (i * stride)) % order
            inner += np.exp(2j * np.pi * phases / order)
        rhs += (mu / m) * inner
    return rhs


# N-1 = 8191 prime; 4095, 728 and 1023 composite; 1
@pytest.mark.parametrize("F,n,d", [(F2, 13, 8), (F2, 12, 8), (F3, 6, 5), (F4, 5, 4), (F2, 1, 3)])
def test_index_arithmetic_is_bit_for_bit_the_per_term_oracles(F, n, d):
    m = Modulus.irreducible(F, n)
    fact = factor_integer(F.q**n - 1)
    order, walk = fact.value, fact.mobius_walk()
    indicator = np.gcd(np.arange(order), order) == 1
    want = float(np.max(np.abs(per_term_indicator(order, walk) - indicator)))
    assert primitivity_indicator_check(m).max_unit_deviation == want
    hist, sums = primitive._spectrum(m, d, 1)
    js = np.arange(order, dtype=np.int64)
    S = primitive._congruence_counts(hist, [k for k, _ in walk])
    assert S == {k: int(hist[js % k == 0].sum()) for k, _ in walk}
    for k, _ in walk:
        stride = order // k
        want_sum = sum(sums[i * stride] for i in range(k))
        assert primitive._sum_chi_m_principal(sums, k).tobytes() == want_sum.tobytes(), k


# -- density experiment --------------------------------------------------


def test_density_q2_n4_d4():
    rep = density_experiment(Modulus.irreducible(F2, 4), 4)
    assert rep.count == 8  # every residue hit once; phi(15) = 8
    assert rep.density == Fraction(8, 16)
    assert rep.target == Fraction(8, 15)
    assert rep.deviation == abs(Fraction(8, 16) - Fraction(8, 15))
    assert rep.char_bound_holds


def test_density_counts_match_bruteforce():
    m = Modulus.irreducible(F2, 4)
    fact = factor_integer(15)
    for d in (2, 3, 5, 6):
        rep = density_experiment(m, d)
        brute = sum(1 for f in enumerate_monic(F2, d) if is_primitive(f, m, fact))
        assert rep.count == brute


def test_density_deviation_within_char_bound():
    # the triangle-inequality bound holds exactly at exhaustive scale
    for n in (3, 4, 6):
        for d in range(2, 7):
            rep = density_experiment(Modulus.irreducible(F2, n), d)
            assert rep.char_bound_holds, (n, d)


def test_density_exact_rationals():
    rep = density_experiment(Modulus.irreducible(F2, 3), 5)
    assert rep.density == Fraction(rep.count, 32)
    assert rep.target == Fraction(factor_integer(7).phi, 7)


def test_density_explicit_Q():
    rep = density_experiment(Modulus(Poly.from_string(F2, "t^4+t^3+1")), 3)
    assert rep.Q_text == "t^4+t^3+1"


# -- sieve ----------------------------------------------------------------


def test_sieve_S1_is_qd():
    rep = sieve_quantities(Modulus.irreducible(F2, 4), 3)
    assert rep.S[1] == 2**3  # every unit's dlog is 0 mod 1; d < n: all units


def test_sieve_T_equals_primitive_count():
    for n in (4, 6):
        for d in range(1, 9):
            rep = sieve_quantities(Modulus.irreducible(F2, n), d)
            dens = density_experiment(Modulus.irreducible(F2, n), d)
            assert rep.T == dens.count, (n, d)


def test_sieve_char_identity():
    for n in (4, 6):
        for d in range(1, 9):
            rep = sieve_quantities(Modulus.irreducible(F2, n), d)
            assert rep.char_identity_max_err < 1e-6, (n, d)


def test_sieve_exhaustive_oracle_n4_d3():
    # direct S_m recomputation from per-polynomial dlogs
    m = Modulus.irreducible(F2, 4)
    table = m.dlog_table
    rep = sieve_quantities(m, 3)
    for mm in (1, 3, 5, 15):
        brute = 0
        for f in enumerate_monic(F2, 3):
            if dlog(table, f) % mm == 0:
                brute += 1
        assert rep.S[mm] == brute


def test_sieve_lower_bound_only_with_constants():
    rep = sieve_quantities(Modulus.irreducible(F2, 4), 3)
    assert rep.lower_bound is None
    rep2 = sieve_quantities(Modulus.irreducible(F2, 4), 3, c1=1.0, c2=1.0)
    assert rep2.lower_bound is not None


@pytest.mark.parametrize("constants", [dict(c1=1.0), dict(c2=1.0)])
def test_sieve_refuses_a_lone_constant_before_the_histogram(monkeypatch, constants):
    from ffchar import primitive

    def no_histogram(*args, **kwargs):
        raise AssertionError("the histogram was built")

    monkeypatch.setattr(primitive, "unit_dlog_histogram", no_histogram)
    with pytest.raises(ValueError, match="both constants c1 and c2, or neither"):
        sieve_quantities(Modulus.irreducible(F2, 4), 3, **constants)


def test_phi_ratio_identity():
    # phi(N-1)/(N-1) = prod (1 - 1/p) exactly in rational arithmetic
    for n in (4, 6, 13):
        order = 2**n - 1
        fact = factor_integer(order)
        prod = Fraction(1)
        for p in fact.primes:
            prod *= Fraction(p - 1, p)
        assert Fraction(fact.phi, order) == prod
