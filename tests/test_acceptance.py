"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here, straight from the contract; nothing is
deferred to later calibration.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from ffchar.algebra import Field
from ffchar.characters import all_char_sums_Ad
from ffchar.cli import main as cli_main
from ffchar.experiments import ExperimentConfig, run_main_theorem_grid
from ffchar.lfun import (
    WEIL_CLASSES,
    inverse_roots,
    lpolynomial_coeffs,
    mertens_products,
    prime_sum_bound,
    prime_sum_spectrum,
    von_mangoldt_spectrum,
    weil_classes,
)
from ffchar.primitive import density_experiment, primitivity_indicator_check, sieve_quantities
from ffchar.residue import Modulus
from ffchar.smooth import (
    default_dickman_table,
    dickman_residual,
    smooth_count,
    smooth_count_by_enumeration,
)
from grid_rows import jsonl_records

WEIL_GRID = [(2, n) for n in range(2, 9)] + [(3, n) for n in range(2, 6)]


def report(num: int, ok: bool, detail: str):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def moduli():
    return {(q, n): Modulus.irreducible(Field.of_order(q), n) for q, n in WEIL_GRID}


@pytest.fixture(scope="module")
def lpolys(moduli):
    return {key: inverse_roots(lpolynomial_coeffs(m)) for key, m in moduli.items()}


def test_criterion_1_weil_roots(moduli, lpolys):
    worst = 0.0
    count = 0
    for (q, n), L in lpolys.items():
        _, cls, dev = weil_classes(L.flat_roots(), q, 1e-6)
        worst = max(worst, float(dev.max(initial=0.0)))
        count += len(L.degree)
        # the character index of each root, kept where the root is a violation
        bad = np.repeat(np.arange(1, len(L.degree) + 1), L.degree)[cls == WEIL_CLASSES.index("violation")]
        if bad.size:
            report(1, False, f"violation at {(q, n)}, chi index {int(bad[0])}")
    report(1, worst <= 1e-6, f"{count} characters, max root-modulus deviation {worst:.3e} (tol 1e-6)")


def test_criterion_2_high_coefficients_vanish(moduli):
    worst = 0.0
    for (q, n), m in moduli.items():
        for d in (n, n + 1, n + 2):
            sums = all_char_sums_Ad(m, d)
            mags = np.abs(sums[1:])  # non-principal only
            worst = max(worst, float(mags.max()) / (1e-9 * q**d))
    report(2, worst <= 1.0, f"max |A(m,chi)| / (1e-9 q^m) = {worst:.3e} over m in {{n, n+1, n+2}}")


def test_criterion_3_prime_sum_bound_and_identity(moduli, lpolys):
    worst_ratio = 0.0
    worst_ident = 0.0
    violations = 0
    for (q, n), m in moduli.items():
        order = m.unit_group.group_order
        spectra = {k: prime_sum_spectrum(m, k) for k in range(1, 11)}
        vm = {k: von_mangoldt_spectrum(m, k, spectra) for k in spectra}
        power_sums = {k: lpolys[(q, n)].power_sums(k) for k in spectra}
        for k_idx in range(1, order):
            for k in range(1, 11):
                value, bound = spectra[k][k_idx], prime_sum_bound(m, k)
                ratio = abs(value) / bound
                worst_ratio = max(worst_ratio, ratio)
                if abs(value) > bound:
                    violations += 1
                if k <= 10:
                    err = abs(vm[k][k_idx] + power_sums[k][k_idx - 1])
                    worst_ident = max(worst_ident, err)
    ok = violations == 0 and worst_ident <= 1e-6
    report(
        3,
        ok,
        f"zero bound violations (worst ratio {worst_ratio:.4f}); "
        f"log-derivative identity max err {worst_ident:.3e} (tol 1e-6)",
    )


def test_criterion_4_smooth_count_oracle_equivalence():
    checked = 0
    for q in (2, 3, 4):
        field = Field.of_order(q)
        for d in range(9):
            for r in range(1, max(d, 1) + 1):
                a = smooth_count(q, d, r)
                b = smooth_count_by_enumeration(field, d, r)
                if a != b:
                    report(4, False, f"q={q} d={d} r={r}: series {a} != enumeration {b}")
                checked += 1
    report(4, True, f"{checked} (q, d, r) cells, generating function == enumeration exactly")


def test_criterion_5_dickman():
    table = default_dickman_table(30)
    log_err = max(
        abs(table.rho(float(u)) - (1 - math.log(u))) for u in np.linspace(1.0, 2.0, 1000)
    )
    res_err = max(dickman_residual(table, float(u)) for u in np.arange(1.25, 30.01, 0.25))
    decay_ok = all(
        table.rho(float(u)) <= math.exp(-float(u) * math.log(u)) for u in np.linspace(10, 30, 81)
    )
    ok = log_err <= 1e-9 and res_err <= 1e-6 and decay_ok
    report(
        5,
        ok,
        f"[1,2] closed-form err {log_err:.2e} (tol 1e-9); residual {res_err:.2e} (tol 1e-6); "
        f"decay bound on [10,30]: {decay_ok}",
    )


@pytest.fixture(scope="module")
def main_grid(tmp_path_factory):
    base = tmp_path_factory.mktemp("grid")
    cfg = ExperimentConfig(
        q=2,
        ns=(13,),
        ds=tuple(range(6, 11)),
        rs=tuple(range(4, 11)),
        char_policy="all",
        workers=1,
        out=str(base / "main.csv"),
    )
    return run_main_theorem_grid(cfg), jsonl_records((base / "main.csv.jsonl").read_text())


def test_criterion_6_main_theorem_grid(main_grid):
    res, records = main_grid
    combos = {(rec.d, rec.r) for rec in records}
    want_combos = {(d, r) for d in range(6, 11) for r in range(4, d + 1)}
    K = res.max_implied_constant
    diag_ok = all(rec.lhs == 0.0 for rec in records if rec.r == rec.d)
    n_records = len(records)
    ok = (
        combos == want_combos
        and n_records == res.n_records == len(want_combos) * 8190
        and math.isfinite(K)
        and K > 0
        and K == max(rec.implied_constant for rec in records if math.isfinite(rec.implied_constant))
        and diag_ok
        and not res.skipped
    )
    report(
        6,
        ok,
        f"{n_records} records over {len(combos)} combos, K = {K:.6f} finite, "
        f"r = d diagonal lhs exactly 0: {diag_ok}",
    )


def test_criterion_7_primitivity_indicator():
    worst_unit = 0.0
    worst_total = 0.0
    worst_decomp = 0.0
    for n in (2, 3, 4, 6):
        m = Modulus.irreducible(Field.get(2), n)
        d = max(1, n - 1)  # d < n keeps the q^d main-term form exact
        rep = primitivity_indicator_check(m, d=d)
        worst_unit = max(worst_unit, rep.max_unit_deviation)
        worst_total = max(worst_total, abs(rep.total_over_Ad - rep.direct_count_Ad))
        main_term_qd_form = Fraction(rep.q**rep.d) * Fraction(rep.phi, rep.group_order)
        worst_decomp = max(worst_decomp, abs(float(main_term_qd_form) + rep.correction - rep.direct_count_Ad))
    ok = worst_unit <= 1e-9 and worst_total <= 1e-6 and worst_decomp <= 1e-6
    report(
        7,
        ok,
        f"unit indicator max dev {worst_unit:.2e} (tol 1e-9); A_d totals match |Q(d)| "
        f"within {worst_total:.2e}; q^d-form decomposition err {worst_decomp:.2e} (tol 1e-6)",
    )


def test_criterion_8_density_bound():
    worst = 0.0
    for d in range(6, 11):
        rep = density_experiment(Modulus.irreducible(Field.get(2), 13), d)
        bound = 2.0 * rep.max_char_norm
        dev = float(rep.deviation)
        if bound == 0:
            report(8, False, f"d={d}: zero character bound")
        worst = max(worst, dev / bound)
        if dev > bound + 1e-15:
            report(8, False, f"d={d}: deviation {dev} exceeds 2 max|A|/q^d = {bound}")
    report(8, True, f"deviation <= 2 max_chi |A(d,chi)|/q^d for d=6..10 (worst ratio {worst:.4f})")


def test_criterion_9_sieve_cross_check():
    worst_ident = 0.0
    for n in (4, 6):
        for d in range(1, 9):
            sv = sieve_quantities(Modulus.irreducible(Field.get(2), n), d)
            de = density_experiment(Modulus.irreducible(Field.get(2), n), d)
            if sv.T != de.count:
                report(9, False, f"n={n} d={d}: T={sv.T} != |Q(d)|={de.count}")
            worst_ident = max(worst_ident, sv.char_identity_max_err)
    ok = worst_ident <= 1e-6
    report(9, ok, f"T = |Q(d)| everywhere; S_m char identity max err {worst_ident:.2e} (tol 1e-6)")


def test_criterion_10_mertens_trend():
    ratios = {got.k: got.ratio for got in mertens_products(2, 20)[9:]}
    in_window = all(0.85 <= r <= 1.15 for r in ratios.values())
    ks = np.array(sorted(ratios))
    dist = np.array([abs(ratios[k] - 1.0) for k in ks])
    slope = float(np.polyfit(ks, dist, 1)[0])
    ok = in_window and slope <= 0.0
    report(
        10,
        ok,
        f"ratio to e^gamma k in [0.85, 1.15] on k=10..20: {in_window}; "
        f"|ratio-1| regression slope {slope:.5f} <= 0",
    )


# -- criterion 11: byte-identical CLI outputs across worker counts ---------

_CLI_RUNS = [
    # criterion 1 (and 2's vanishing shows up as zero short norms in corollary)
    *(["weil", "--q", str(q), "--n", str(n), "--format", "csv"] for q, n in WEIL_GRID),
    ["corollary", "--q", "2", "--n-list", "5", "--d", "4..7", "--r", "4", "--format", "csv"],
    # criterion 3
    ["primes-bound", "--q", "2", "--n", "6", "--k", "10", "--identity", "--format", "csv"],
    ["primes-bound", "--q", "3", "--n", "4", "--k", "8", "--identity", "--format", "csv"],
    # criterion 4
    *(
        ["smooth-count", "--q", str(q), "--d", "1..8", "--enum-check", "--format", "csv"]
        for q in (2, 3, 4)
    ),
    # criterion 5
    ["dickman", "--u-max", "30", "--format", "csv"],
    # criterion 6
    ["main-thm", "--q", "2", "--n-list", "13", "--d", "6..10", "--r", "4..10", "--format", "csv"],
    # criterion 7
    *(["indicator", "--q", "2", "--n", str(n), "--d", str(max(1, n - 1)), "--format", "json"] for n in (2, 3, 4, 6)),
    # criterion 8
    *(["density", "--q", "2", "--n", "13", "--d", str(d), "--format", "json"] for d in range(6, 11)),
    # criterion 9
    *(["sieve", "--q", "2", "--n", str(n), "--d", str(d), "--format", "csv"] for n in (4, 6) for d in (4, 8)),
    # criterion 10
    ["mertens", "--q", "2", "--k", "20", "--format", "csv"],
]


def test_criterion_11_determinism_across_workers(tmp_path):
    mismatches = []
    for i, argv in enumerate(_CLI_RUNS):
        outs = {}
        for w in (1, 8):
            path = tmp_path / f"run{i}_w{w}.out"
            code = cli_main(argv + ["--out", str(path), "--workers", str(w)])
            assert code == 0, f"{argv} exited {code}"
            outs[w] = path.read_bytes()
            extra = path.with_name(path.name + ".jsonl")
            if extra.exists():
                outs[w] += extra.read_bytes()
        if outs[1] != outs[8]:
            mismatches.append(argv)
    report(
        11,
        not mismatches,
        f"{len(_CLI_RUNS)} CLI runs byte-identical with --workers 1 vs --workers 8"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )
