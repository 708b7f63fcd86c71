import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ffchar
from ffchar import dickman_panels, smooth, vecpoly
from ffchar.algebra import Field, enumerate_monic, irreducibles_up_to, is_smooth, max_factor_degree
from ffchar.characters import character_by_index, unit_dlog_histogram
from ffchar.cli import main
from ffchar.residue import Modulus
from ffchar.smooth import (
    DickmanTable,
    all_smooth_char_sums,
    default_dickman_table,
    dickman_residual,
    dickman_rho,
    march_dickman_panels,
    smooth_count,
    smooth_count_by_enumeration,
    smooth_dlog_histogram,
    soundararajan_check,
)
from phase_oracle import NotAUnitError, all_characters, character_sum_Ad, chi_eval, dlog, smooth_char_sum

F2 = Field.get(2)
F3 = Field.get(3)
F4 = Field.get(2, 2)

SRC = str(Path(ffchar.__file__).resolve().parents[1])

# squarefree composites: t (t^2+t+1) over F_2, t (t+1) (t+2) over F_3
COMPOSITES = [(F2, "t^3+t^2+t"), (F3, "t^3+2t")]


def walker_histogram(modulus, d, r):
    """Reference (flat dlog histogram, non-units) of the r-smooth slice of A_d.

    Walks every factor multiset over I_1..I_r with an exact degree budget,
    independently of the factor-degree profile, and adds up the component
    dlogs of its factors.  Factors of Q make the product a non-unit.
    """
    table = modulus.dlog_table
    units = modulus.unit_group
    orders = units.component_orders
    basis = []  # (degree, component dlogs or None for a factor of Q), degree-sorted
    for level in irreducibles_up_to(modulus.field, r):
        for P in level:
            try:
                dl = dlog(table, P)
            except NotAUnitError:
                basis.append((P.degree, None))
                continue
            basis.append((P.degree, (dl,) if isinstance(dl, int) else dl))
    hist = np.zeros(units.group_order, dtype=np.int64)
    nonunits = 0
    # stack entries: (basis index, remaining budget, acc dlogs, unit flag)
    stack = [(0, d, tuple(0 for _ in orders), True)]
    while stack:
        i, budget, acc, unit = stack.pop()
        if budget == 0:
            if unit:
                hist[sum(x * s for x, s in zip(acc, units.flat_strides))] += 1
            else:
                nonunits += 1
            continue
        if i >= len(basis) or basis[i][0] > budget:
            continue  # basis is degree-sorted: nothing later fits either
        deg, dl = basis[i]
        stack.append((i + 1, budget, acc, unit))
        for a in range(1, budget // deg + 1):
            if dl is None:
                unit = False
            else:
                acc = tuple((x + y) % m for x, y, m in zip(acc, dl, orders))
            stack.append((i + 1, budget - a * deg, acc, unit))
    return hist, nonunits


def assert_matches_walker(m, d, r):
    hist, nonunits = smooth_dlog_histogram(m, d, r)
    ref_hist, ref_nonunits = walker_histogram(m, d, r)
    assert np.array_equal(hist, ref_hist), (m, d, r)
    assert nonunits == ref_nonunits, (m, d, r)


# -- exact counts --------------------------------------------------------


def test_smooth_count_trivial_when_r_geq_d():
    for q in (2, 3, 4):
        for d in range(9):
            for r in range(max(d, 1), d + 3):
                assert smooth_count(q, d, r) == q**d


def test_smooth_count_small_example():
    # q=2, d=2, r=1: t^2, t(t+1), (t+1)^2
    assert smooth_count(2, 2, 1) == 3


def test_smooth_count_rejects_a_q_that_is_not_a_prime_power():
    for q in (6, 1, 0, -4):
        with pytest.raises(ValueError, match=f"q = {q} is not a prime power"):
            smooth_count(q, 3, 1)
        with pytest.raises(ValueError, match=f"q = {q} "):
            soundararajan_check(q, 3, 1)


def test_smooth_count_matches_filter_oracle():
    # brute force with per-polynomial is_smooth over the full stream
    for F, d in [(F2, 4), (F2, 6), (F3, 4), (F4, 3)]:
        for r in range(1, d + 1):
            brute = sum(is_smooth(f, r) for f in enumerate_monic(F, d))
            assert smooth_count(F.q, d, r) == brute


def test_generating_function_equals_enumeration_grid():
    # exact integer equality across the full small grid
    for F in (F2, F3, F4):
        for d in range(9):
            for r in range(1, max(d, 1) + 1):
                assert smooth_count(F.q, d, r) == smooth_count_by_enumeration(F, d, r)


def test_smooth_count_table_invariants():
    counts = [smooth_count(2, d, 3) for d in range(9)]
    assert counts[0] == 1
    for d in range(9):
        assert counts[d] <= 2**d
    assert counts == [smooth_count_by_enumeration(F2, d, 3) for d in range(9)]
    # nondecreasing in r at fixed d
    for d in range(9):
        vals = [smooth_count(2, d, r) for r in range(1, d + 2)]
        assert vals == sorted(vals)


# -- smooth character sums -----------------------------------------------


def test_smooth_sum_principal_counts():
    m = Modulus.irreducible(F2, 5)
    chi0 = character_by_index(m, 0)
    for d in range(5):  # d < n: no multiples of Q
        for r in range(1, d + 2):
            s = smooth_char_sum(chi0, d, r)
            assert s.value == smooth_count(2, d, r)


def test_smooth_sum_equals_full_sum_when_r_geq_d():
    m = Modulus.irreducible(F2, 4)
    for chi in all_characters(m):
        for d in range(5):
            a = character_sum_Ad(chi, d)
            s = smooth_char_sum(chi, d, max(d, 1))
            assert abs(a.value - s.value) < 1e-10


def test_smooth_sum_matches_filter_oracle():
    # the histogram route vs literal filtering of A_d by is_smooth
    for field, n in [(F2, 4), (F3, 2)]:
        m = Modulus.irreducible(field, n)
        for chi in all_characters(m):
            for d in range(1, 6):
                for r in (1, 2, d):
                    brute = 0j
                    for f in enumerate_monic(field, d):
                        if is_smooth(f, r):
                            brute += chi_eval(chi, f).to_complex()
                    got = smooth_char_sum(chi, d, r)
                    assert abs(got.value - brute) < 1e-9, (field.q, n, chi.label, d, r)


def test_smooth_sum_filter_oracle_q2_d10():
    # the deeper q=2 check: the production filter route against the walker
    m = Modulus.irreducible(F2, 13)
    for r in (4, 7):
        assert_matches_walker(m, 10, r)


def test_smooth_histogram_matches_scalar_path():
    m = Modulus.irreducible(F2, 4)
    assert_matches_walker(m, 5, 2)
    hist, nonunit = smooth_dlog_histogram(m, 5, 2)
    total = 0
    for f in enumerate_monic(F2, 5):
        if is_smooth(f, 2):
            total += 1
    assert hist.sum() + nonunit == total


def test_smooth_histogram_matches_walker_q3_and_composites():
    # q=3 with d >= n reduces the vector dlogs through base-p digit addition;
    # the composites take the scalar flat-dlog route
    moduli = [Modulus.irreducible(F3, 4)] + [Modulus.from_text(f, text) for f, text in COMPOSITES]
    for m in moduli:
        for d in range(7):
            for r in range(1, d + 2):
                assert_matches_walker(m, d, r)


def test_smooth_sum_composite_matches_brute_force():
    for field, text in COMPOSITES:
        m = Modulus.from_text(field, text)
        chars = list(all_characters(m))
        for d in range(7):
            polys = list(enumerate_monic(field, d))
            top = [max_factor_degree(f) for f in polys]
            for chi in chars:
                vals = [chi_eval(chi, f).to_complex() for f in polys]
                for r in range(1, d + 2):
                    brute = sum(v for v, k in zip(vals, top) if k <= r)
                    got = smooth_char_sum(chi, d, r)
                    assert abs(got.value - brute) < 1e-9, (text, chi.label, d, r)


def test_smooth_histogram_is_whole_histogram_when_r_geq_d():
    for m in (Modulus.irreducible(F2, 5), Modulus.irreducible(F3, 3), Modulus.from_text(F3, "t^3+2t")):
        for d in range(7):
            whole_hist, whole_nonunits = unit_dlog_histogram(m, d)
            for r in range(max(d, 1), d + 3):
                hist, nonunits = smooth_dlog_histogram(m, d, r)
                assert np.array_equal(hist, whole_hist)
                assert nonunits == whole_nonunits


def _corrupt_profile(monkeypatch, field, d):
    """Plant a degree-d profile that calls t^d (really 1-smooth) irreducible."""
    bad = vecpoly.max_degree_profile_cached(field, d).copy()
    bad[0] = d
    monkeypatch.setitem(vecpoly._profiles, (field, d), bad)


def test_smooth_histogram_checks_slice_total(monkeypatch):
    _corrupt_profile(monkeypatch, F2, 6)
    with pytest.raises(ArithmeticError, match="N\\(d, r\\)"):
        smooth_dlog_histogram(Modulus.irreducible(F2, 5), 6, 3)


def test_main_thm_exits_1_on_corrupt_profile(monkeypatch, capsys, tmp_path):
    _corrupt_profile(monkeypatch, F2, 6)
    argv = ["main-thm", "--q", "2", "--n-list", "5", "--d", "6", "--r", "3", "--format", "csv"]
    assert main(argv + ["--out", str(tmp_path / "grid.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_bulk_smooth_sums_match_per_character():
    m = Modulus.irreducible(F2, 5)
    for d, r in [(3, 2), (4, 2), (5, 3)]:
        bulk = all_smooth_char_sums(m, d, r)
        for k in range(31):
            got = smooth_char_sum(character_by_index(m, k), d, r)
            assert abs(bulk[k] - got.value) < 1e-9


def test_bulk_smooth_sums_match_per_character_on_composites():
    for field, text in COMPOSITES:
        m = Modulus.from_text(field, text)
        chars = list(all_characters(m))
        for d in range(7):
            for r in range(1, d + 1):
                bulk = all_smooth_char_sums(m, d, r)
                for k, chi in enumerate(chars):
                    assert abs(bulk[k] - smooth_char_sum(chi, d, r).value) < 1e-9


def test_mobius_like_m_series_identity():
    # prod_{deg P <= r} (1 - chi(P) z^deg P)^(-1) has k-th coefficient
    # equal to the smooth sum, checked by truncated formal expansion
    m = Modulus.irreducible(F2, 4)
    kmax, r = 8, 2
    for chi in all_characters(m):
        series = np.zeros(kmax + 1, dtype=np.complex128)
        series[0] = 1.0
        for level in irreducibles_up_to(F2, r):
            for P in level:
                v = chi_eval(chi, P).to_complex()
                # multiply by (1 + v z^deg + v^2 z^(2 deg) + ...)
                geom = np.zeros(kmax + 1, dtype=np.complex128)
                acc = 1.0 + 0j
                for j in range(0, kmax + 1, P.degree):
                    geom[j] = acc
                    acc *= v
                series = np.convolve(series, geom)[: kmax + 1]
        for k in range(kmax + 1):
            got = smooth_char_sum(chi, k, r)
            assert abs(series[k] - got.value) < 1e-9


# -- Dickman -------------------------------------------------------------


def test_rho_is_one_below_one():
    tab = default_dickman_table()
    for u in (0.0, 0.25, 0.5, 0.99, 1.0):
        assert dickman_rho(u, tab) == pytest.approx(1.0, abs=1e-12)


def test_rho_log_branch():
    tab = default_dickman_table()
    for u in np.linspace(1.0, 2.0, 101):
        assert abs(dickman_rho(float(u), tab) - (1 - math.log(u) if u > 1 else 1.0)) < 1e-9


def test_rho_at_three_dual_method():
    """Independent scheme: fixed-step RK4 on u rho' = -rho(u-1) over [2, 3].

    On [1, 2] the closed form 1 - log u feeds the delay term, so this march
    shares nothing with the Chebyshev panel construction.
    """
    h = 1.0 / 4096
    u, y = 2.0, 1 - math.log(2.0)

    def fprime(u_, y_, shift):
        return -(1 - math.log(u_ - 1.0 + shift)) / (u_ + shift)

    # rho(t-1) = 1 - log(t-1) for t in [2, 3]
    def deriv(u_, y_):
        return -(1 - math.log(u_ - 1.0)) / u_ if u_ > 1 else -1.0 / u_

    steps = int(round(1.0 / h))
    for _ in range(steps):
        k1 = deriv(u, y)
        k2 = deriv(u + h / 2, y + h * k1 / 2)
        k3 = deriv(u + h / 2, y + h * k2 / 2)
        k4 = deriv(u + h, y + h * k3)
        y += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        u += h
    got = dickman_rho(3.0)
    assert abs(got - y) < 1e-8
    assert got == pytest.approx(0.0486083882911316, abs=1e-8)  # frozen from both schemes


def test_rho_positive_nonincreasing():
    tab = default_dickman_table()
    us = np.linspace(1.0, 30.0, 400)
    vals = tab.rho_many(us)
    assert (vals > 0).all()
    assert (np.diff(vals) <= 1e-15).all()


def test_defining_equation_residual():
    tab = default_dickman_table()
    for u in np.linspace(1.5, 30.0, 58):
        # relative-to-rho(u-1) residual far below 1e-6 absolute
        assert dickman_residual(tab, float(u)) <= 1e-6


def test_rho_upper_bound_exp():
    tab = default_dickman_table()
    for u in np.linspace(10.0, 30.0, 41):
        assert tab.rho(float(u)) <= math.exp(-u * math.log(u))


def test_rho_rejects_negative():
    with pytest.raises(ValueError):
        dickman_rho(-0.5)


def test_lazy_panels_equal_full_march():
    # beyond u = 30 the table marches its panels; the shipped u_max = 30 table never does
    full = march_dickman_panels(31)
    tab = DickmanTable(u_max=31)
    assert tab.rho(2.5) > 0
    for m in range(31):
        assert np.array_equal(tab.panel(m), full[m])
    with pytest.raises(ValueError):
        tab.panel(31)


def test_shipped_panels_are_the_march():
    full = march_dickman_panels(30)
    tab = DickmanTable(u_max=30)
    assert dickman_panels.PANELS.shape == (30, 18)
    for m in range(30):
        assert tab.panel(m).tobytes() == full[m].tobytes()
    with pytest.raises(ValueError):
        tab.panel(30)


def test_panels_and_integer_rho_do_not_depend_on_table_size():
    # a larger table marches at a higher precision to the same doubles, and
    # an integer u >= 30 reads the same panel end in every table reaching it
    small, large = DickmanTable(u_max=31), DickmanTable(u_max=33)
    for m in range(31):
        assert np.array_equal(small.panel(m), large.panel(m))
    for m in range(30):
        assert np.array_equal(small.panel(m), dickman_panels.PANELS[m])
    for u in (29.0, 30.0, 31.0):
        assert small.rho(u) == large.rho(u)
    assert DickmanTable(u_max=30).rho(30.0) == large.rho(30.0)


def test_smooth_count_builds_one_table_for_the_largest_u(monkeypatch, capsys):
    built = []
    init = DickmanTable.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.u_max)

    monkeypatch.setattr(smooth, "_default_table", None)
    monkeypatch.setattr(DickmanTable, "__init__", record)
    assert main(["smooth-count", "--q", "2", "--d", "30..33", "--r", "1..2"]) == 0
    assert built == [33]
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 1 + 4 * 2


def test_rho_up_to_thirty_runs_without_mpmath():
    # neither mpmath nor orjson is imported before the code that needs it runs, and
    # smooth-count and a one-worker density load no module of another subcommand
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import ffchar.cli\n"
        "assert ffchar.cli.main(['smooth-count', '--q', '3', '--d', '1..6', '--format', 'csv']) == 0\n"
        "loaded = {'ffchar.primitive', 'ffchar.experiments', 'ffchar.lfun', 'ffchar.residue', 'ffchar.characters',\n"
        "          'fractions', 'concurrent.futures'}\n"
        "assert not loaded & set(sys.modules), loaded & set(sys.modules)\n"
        "assert ffchar.cli.main(['density', '--q', '3', '--n', '5', '--d', '4', '--workers', '1']) == 0\n"
        "loaded = {'ffchar.experiments', 'ffchar.lfun', 'concurrent.futures'}\n"
        "assert not loaded & set(sys.modules), loaded & set(sys.modules)\n"
        "from ffchar.primitive import best_epsilon_bound\n"
        "from ffchar.smooth import default_dickman_table\n"
        "default_dickman_table().rho(16.0)\n"
        "best_epsilon_bound(3, 16, 9)\n"
        "assert ffchar.cli.main(['density', '--q', '2', '--n', '5', '--d', '4']) == 0\n"
        "assert 'mpmath' not in sys.modules\n"
        "assert 'orjson' not in sys.modules\n"
        "from ffchar.smooth import dickman_rho\n"
        "dickman_rho(30.5)\n"
        "assert 'mpmath' in sys.modules\n"
        "from ffchar.experiments import ComboBlock\n"
        "col = np.array([0.5])\n"
        "list(ComboBlock(2, 5, 't^5+t^2+1', '\"t^5+t^2+1\"', 4, 3, '', False, 1.0, 0.5,\n"
        "                np.array([1]), col + 0j, col + 0j, col, col).chunks())\n"
        "assert 'orjson' in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_dickman_table_rejects_u_max_below_one():
    for u_max in (0, -3):
        with pytest.raises(ValueError, match=f"got {u_max}"):
            default_dickman_table(u_max)
        with pytest.raises(ValueError, match=f"got {u_max}"):
            DickmanTable(u_max=u_max)


def test_rho_extends_beyond_default():
    v = dickman_rho(32.5)
    assert 0 < v < 1e-50


# -- Soundararajan comparison ---------------------------------------------


def test_soundararajan_ratio_one_when_r_geq_d():
    rep = soundararajan_check(2, 6, 6)
    assert rep.ratio == pytest.approx(1.0, abs=1e-12)


def test_soundararajan_reports_finite_exponent():
    rep = soundararajan_check(2, 10, 5)
    assert rep.n_exact == smooth_count(2, 10, 5)
    assert rep.normalized_exponent is not None
    assert math.isfinite(rep.normalized_exponent)
    assert rep.prediction == pytest.approx(2**10 * dickman_rho(2.0), rel=1e-12)


def test_soundararajan_range_flag():
    assert soundararajan_check(2, 10, 5).in_range is False  # log_2(10 ln^2 10) ~ 5.7
    assert soundararajan_check(2, 10, 8).in_range is True
