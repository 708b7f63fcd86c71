import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

import ffchar
from ffchar.algebra import Field, Poly
from ffchar.cli import main

SRC = str(Path(ffchar.__file__).resolve().parents[1])
GRID = ["main-thm", "--q", "2", "--n-list", "5", "--d", "3", "--r", "2"]


def run_cli(argv: list[str], cwd, extra_env: Optional[dict] = None) -> subprocess.CompletedProcess:
    """python -m ffchar.cli in a fresh process, its stdout and stderr as bytes."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FFCHAR_")}
    env.update(extra_env or {}, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "ffchar.cli", *argv], cwd=cwd, env=env, capture_output=True)


def test_weil_exit_zero(capsys):
    assert main(["weil", "--q", "2", "--n", "4"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_weil_degree_one_modulus(capsys):
    # q=7, n=1: unit group of order 6, every L-polynomial has degree 0
    assert main(["weil", "--q", "7", "--n", "1"]) == 0
    capsys.readouterr()
    # no roots at all: the JSON lines still come out, one per character
    assert main(["weil", "--q", "7", "--n", "1", "--format", "json"]) == 0
    recs = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    assert len(recs) == 5 and all(rec["roots"] == [] for rec in recs)


def test_malformed_Q_usage_error(capsys):
    assert main(["weil", "--q", "2", "--n", "4", "--Q", "t^4+t^2"]) == 2  # not squarefree
    assert main(["weil", "--q", "2", "--n", "4", "--Q", "garbage!!"]) == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_weil_csv_output(tmp_path):
    out = tmp_path / "weil.csv"
    assert main(["weil", "--q", "2", "--n", "4", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "chi,re,im,modulus,class,residual"
    assert all(ln.split(",")[4] in ("unit", "sqrt_q") for ln in lines[1:])


def test_weil_json_output(tmp_path):
    out = tmp_path / "weil.json"
    assert main(["weil", "--q", "2", "--n", "3", "--format", "json", "--out", str(out)]) == 0
    recs = [json.loads(ln) for ln in out.read_text().splitlines()]
    assert len(recs) == 6
    for rec in recs:
        assert set(rec) == {"chi", "roots", "residuals", "coeffs"}
        for root in rec["roots"]:
            assert set(root) == {"re", "im", "modulus", "class"}


def test_primes_bound(capsys):
    assert main(["primes-bound", "--q", "2", "--n", "3", "--k", "6", "--identity"]) == 0


def test_weil_composite_modulus(capsys):
    assert main(["weil", "--q", "2", "--n", "3", "--Q", "t^3+t^2+t"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_primes_bound_composite_modulus(tmp_path):
    out = tmp_path / "pb.csv"
    argv = ["primes-bound", "--q", "3", "--n", "3", "--Q", "t^3+2t", "--k", "4", "--identity"]
    assert main(argv + ["--format", "csv", "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["chi", "k", "abs_sum", "bound", "ratio", "identity_err"]
    assert all(len(row) == 6 for row in rows)
    # unit group Z/2 x Z/2 x Z/2: characters chi[a,b,c], the principal one skipped
    labels = sorted({row[0] for row in rows[1:]})
    assert labels == [f"chi[{a},{b},{c}]" for a in range(2) for b in range(2) for c in range(2)][1:]


def test_weil_composite_csv_labels(tmp_path):
    out = tmp_path / "weil.csv"
    argv = ["weil", "--q", "2", "--n", "5", "--Q", "t^5+t^4+t^3+t", "--format", "csv", "--out", str(out)]
    assert main(argv) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert all(len(row) == 6 for row in rows)
    # component orders (1, 1, 7): six non-principal characters chi[0,0,k]
    assert sorted({row[0] for row in rows[1:]}) == [f"chi[0,0,{k}]" for k in range(1, 7)]


def test_smooth_count_csv(tmp_path):
    out = tmp_path / "sc.csv"
    assert (
        main(
            ["smooth-count", "--q", "2", "--d", "4..6", "--format", "csv", "--out", str(out), "--enum-check"]
        )
        == 0
    )
    lines = out.read_text().splitlines()
    assert lines[0] == "d,r,N_exact,qd_rho,ratio,normalized_exponent"


def test_dickman(capsys):
    assert main(["dickman", "--u-max", "30"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_main_thm_grid_files(tmp_path):
    out = tmp_path / "grid.csv"
    code = main(
        [
            "main-thm",
            "--q", "2",
            "--n-list", "5",
            "--d", "3..5",
            "--r", "2..5",
            "--out", str(out),
            "--format", "csv",
        ]
    )
    assert code == 0
    assert out.exists() and (tmp_path / "grid.csv.jsonl").exists()
    header = out.read_text().splitlines()[0]
    assert header == "q,n,Q,chi,d,r,lhs,bound_core,implied_constant,short_norm,eps,flags"


def test_main_thm_budget_exit(tmp_path):
    code = main(
        [
            "main-thm",
            "--q", "2",
            "--n-list", "5",
            "--d", "4",
            "--r", "2",
            "--budget", "3",
            "--out", str(tmp_path / "g.csv"),
        ]
    )
    assert code == 3


def test_density_and_sieve(capsys):
    assert main(["density", "--q", "2", "--n", "4", "--d", "3"]) == 0
    assert main(["sieve", "--q", "2", "--n", "4", "--d", "3", "--c1", "1", "--c2", "1"]) == 0


def test_indicator(capsys):
    assert main(["indicator", "--q", "2", "--n", "4", "--d", "3"]) == 0


@pytest.mark.parametrize("extra", [[], ["--d", "5"], ["--Q", "t^6+t+1", "--d", "4"]])
def test_indicator_csv_is_a_header_and_one_row_of_the_json_fields(capsys, extra):
    argv = ["indicator", "--q", "2", "--n", "6", *extra]
    code = main(argv + ["--format", "json"])
    want = json.loads(capsys.readouterr().out)
    assert main(argv + ["--format", "csv"]) == code
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 2
    assert sorted(rows[0]) == sorted(want)
    assert dict(zip(*rows)) == {k: str(v) for k, v in want.items()}


def test_density_schedule_from_eps(capsys):
    # the asymptotic schedule prescribes d = 38 >= n: the A_d histogram is a
    # closed form, nothing is enumerated, so the budget does not apply
    assert main(["density", "--q", "2", "--n", "6", "--eps", "0.05", "--C", "1.0"]) == 0
    assert "schedule: eps=0.05, C=1.0 -> d=38" in capsys.readouterr().err
    # below n the budget guard reports the q^d polynomials it would enumerate and exits 3
    assert main(["density", "--q", "2", "--n", "22", "--eps", "0.05", "--C", "0.3", "--budget", "1000"]) == 3
    err = capsys.readouterr().err
    assert "d=15" in err and "budget" in err
    # a generous budget paired with a tiny C keeps the run enumerable
    assert main(["density", "--q", "2", "--n", "6", "--eps", "0.05", "--C", "0.3"]) == 0
    assert main(["density", "--q", "2", "--n", "6"]) == 2  # neither --d nor --eps


def test_mertens_csv(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["mertens", "--q", "2", "--k", "12", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,product,ratio"
    assert len(lines) == 13


def test_worker_flag_accepted(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["density", "--q", "2", "--n", "6", "--d", "5", "--format", "json", "--out", str(a), "--workers", "1"])
    main(["density", "--q", "2", "--n", "6", "--d", "5", "--format", "json", "--out", str(b), "--workers", "8"])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("exc", [ArithmeticError, AssertionError])
def test_kernel_failure_exits_math_without_traceback(monkeypatch, capsys, exc):
    import ffchar.lfun

    def broken(*args, **kwargs):
        raise exc("invariant broken")

    # cmd_weil imports weil_classes when it runs, so the patch on its home module is what it sees
    monkeypatch.setattr(ffchar.lfun, "weil_classes", broken)
    assert main(["weil", "--q", "2", "--n", "3"]) == 1
    assert capsys.readouterr().err == "error: invariant broken\n"


@pytest.mark.parametrize(
    "argv,bad",
    [
        (["density", "--q", "2", "--n", "5", "--d", "0"], "d = 0"),
        (["sieve", "--q", "2", "--n", "5", "--d", "0"], "d = 0"),
        (["smooth-count", "--q", "6", "--d", "1..3"], "q = 6"),
        (["dickman", "--u-max", "0"], "got 0"),
        (["mertens", "--q", "6", "--k", "3"], "q = 6 is not a prime power"),
        (["mertens", "--q", "0", "--k", "2"], "q = 0 is not a prime power"),
        (["mertens", "--q", "1", "--k", "2"], "q = 1 is not a prime power"),
        (["mertens", "--q", "-3", "--k", "2"], "q = -3 is not a prime power"),
        (["density", "--q", "2", "--n", "5", "--d", "-1"], "d = -1"),
        (["sieve", "--q", "2", "--n", "5", "--d", "-1"], "d = -1"),
        (["indicator", "--q", "2", "--n", "4", "--d", "-1"], "d = -1"),
        (["primes-bound", "--q", "2", "--n", "4", "--k", "0"], "k = 0"),
        (["mertens", "--q", "2", "--k", "0"], "k = 0"),
        (["primes-bound", "--q", "2", "--n", "4", "--k", "23"], "k = 23 has q^k = 8388608"),
        (["density", "--q", "2", "--n", "5", "--d", "3", "--workers", "0"], "--workers must be >= 1, got 0"),
        (["smooth-count", "--q", "2", "--d", "3", "--workers", "-2"], "--workers must be >= 1, got -2"),
        (["smooth-count", "--q", "2", "--d", "3", "--r", "0"], "r must be >= 1, got 0"),
        (["smooth-count", "--q", "2", "--d", "3", "--r", "-1"], "r must be >= 1, got -1"),
        (["smooth-count", "--q", "2", "--d", "-1"], "d must be >= 0, got -1"),
        # an empty range a..b, b < a, is refused wherever a range is read
        (["smooth-count", "--q", "2", "--d", "3..1"], "range 3..1 is empty: 1 is below 3"),
        (["smooth-count", "--q", "2", "--d", "4", "--r", "3..1"], "range 3..1 is empty: 1 is below 3"),
        (["main-thm", "--q", "2", "--n-list", "5", "--d", "3..1", "--r", "2"], "range 3..1 is empty: 1 is below 3"),
        (["sieve", "--q", "2", "--n", "6", "--d", "4", "--c1", "1"], "takes both constants c1 and c2, or neither"),
        (["sieve", "--q", "2", "--n", "6", "--d", "4", "--c2", "1"], "takes both constants c1 and c2, or neither"),
        (GRID + ["--workers", "0"], "--workers must be >= 1, got 0"),
        (GRID + ["--policy", "sample-k", "--sample-k", "0"], "--sample-k must be >= 1, got 0"),
        (GRID + ["--policy", "sample-k", "--sample-k", "-1"], "--sample-k must be >= 1, got -1"),
        (["density", "--q", "2", "--n", "5", "--d", "63"], "q^d = 9223372036854775808 polynomials"),
        (["weil", "--q", "2", "--n", "5", "--Q", "t^6+t^5+t^3+t"], "Q = t^6+t^5+t^3+t has degree 6, not n = 5"),
        (["indicator", "--q", "2", "--n", "9", "--Q", "t^3+t+1"], "Q = t^3+t+1 has degree 3, not n = 9"),
        (["primes-bound", "--q", "2", "--n", "9", "--Q", "t^3+t+1", "--k", "2"], "Q = t^3+t+1 has degree 3, not n = 9"),
        (["mertens", "--q", "3"], "q = 3, k = 20 has about 8.29e+09 bits, above the limit 16777216"),
        (["mertens", "--q", "2", "--k", "24"], "q = 2, k = 24 has about 3.35e+07 bits"),
        # a field size at or above 2^40 is refused before it is factored, prime or not
        (["smooth-count", "--q", "1099511627776", "--d", "1..2"], "1099511627776 is not below the factoring bound"),
        (["mertens", "--q", "1000000000000000003", "--k", "1"], "1000000000000000003 is not below the factoring bound"),
        # a subcommand that builds F_q refuses q above 2^16 before factoring it
        (["density", "--q", "1000000000000000003", "--n", "2", "--d", "2"], "exceeds the supported bound 2^16"),
        # a nan or inf constant or tolerance, or a negative tolerance, is refused before any modulus is built
        (["density", "--q", "2", "--n", "5", "--d", "3", "--C2", "nan"], "--C2 must be finite, got nan"),
        (["density", "--q", "2", "--n", "5", "--d", "3", "--C3", "inf"], "--C3 must be finite, got inf"),
        (["sieve", "--q", "2", "--n", "5", "--d", "3", "--c1", "nan", "--c2", "1"], "--c1 must be finite, got nan"),
        (["sieve", "--q", "2", "--n", "5", "--d", "3", "--c1", "1", "--c2", "inf"], "--c2 must be finite, got inf"),
        (["weil", "--q", "2", "--n", "3", "--tol", "nan"], "--tol must be finite, got nan"),
        (["weil", "--q", "2", "--n", "3", "--tol", "-1"], "--tol must be >= 0, got -1.0"),
        (["primes-bound", "--q", "2", "--n", "4", "--k", "3", "--tol", "nan"], "--tol must be finite, got nan"),
        (["density", "--q", "2", "--n", "5", "--eps", "0.01", "--C", "0"], "C must be finite and > 0, got 0.0"),
        (["density", "--q", "2", "--n", "5", "--eps", "0.01", "--C", "-1"], "C must be finite and > 0, got -1.0"),
        (["density", "--q", "2", "--n", "5", "--eps", "0.01", "--C", "nan"], "C must be finite and > 0, got nan"),
        (["density", "--q", "2", "--n", "5", "--eps", "0.5", "--C", "nan"], "eps must lie in (0, 1/e)"),
        # an empty --Q is an empty polynomial, not the canonical modulus
        (["weil", "--q", "2", "--n", "3", "--Q", ""], "empty polynomial text"),
        # a degree below 1 is refused by name, for every subcommand that builds the canonical modulus
        (["weil", "--q", "2", "--n", "0"], "n must be >= 1, got 0"),
        (["weil", "--q", "2", "--n", "-3"], "n must be >= 1, got -3"),
        (["main-thm", "--q", "2", "--n-list", "0", "--d", "3", "--r", "2"], "n must be >= 1, got 0"),
        (["main-thm", "--q", "2", "--n-list", "5", "--d", "-1", "--r", "2"], "d must be >= 0, got -1"),
    ],
)
def test_bad_input_is_usage_error_naming_the_value(capsys, argv, bad):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and bad in captured.err


def test_a_dlog_stream_of_the_wrong_length_is_a_math_error(monkeypatch, capsys):
    """The same check on the smooth slice, whose profile mask raised IndexError on a short stream: exit 1."""
    from ffchar import residue

    real = residue.DlogTable.dlogs_of_monic_degree

    def dropped(self, d, start=0, stop=None):
        return real(self, d, start, stop)[1:]

    monkeypatch.setattr(residue.DlogTable, "dlogs_of_monic_degree", dropped)
    assert main(["primes-bound", "--q", "2", "--n", "3", "--k", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: A_4 slice 0:16 has 15 dlogs, not 16\n"


def test_environment_does_not_change_output(tmp_path):
    """The argv alone fixes the output: FFCHAR_* variables, once read as defaults, change no byte."""
    env = {"FFCHAR_WORKERS": "0", "FFCHAR_FORMAT": "json", "FFCHAR_BUDGET": "1", "FFCHAR_TOL": "2.5", "FFCHAR_SEED": "9"}
    grid = "main-thm --q 2 --n-list 5 --d 3..6 --r 2..6 --policy sample-k --sample-k 3 --out grid.csv"
    for i, argv in enumerate(("density --q 3 --n 5 --d 8", "smooth-count --q 2 --d 1..6 --enum-check", grid)):
        runs = []
        for j, extra in enumerate(({}, env)):
            workdir = tmp_path / f"{i}-{j}"
            workdir.mkdir()
            proc = run_cli(argv.split(), workdir, extra)
            files = {p.name: p.read_bytes() for p in workdir.iterdir()}
            runs.append((proc.returncode, proc.stdout, proc.stderr, files))
        assert runs[0] == runs[1], argv
        assert runs[0][0] == 0


def test_mertens_refuses_a_large_product_before_forming_any(monkeypatch, capsys):
    from ffchar import lfun

    calls, rendered = [], []
    real_products, real_render = lfun.mertens_products, lfun._big_ratio_to_float

    def recorded(q, k):
        calls.append((q, k))
        return real_products(q, k)

    def render(num, den):
        rendered.append(num.bit_length())
        return real_render(num, den)

    monkeypatch.setattr(lfun, "mertens_products", recorded)
    monkeypatch.setattr(lfun, "_big_ratio_to_float", render)
    assert main(["mertens", "--q", "3"]) == 2
    # one pass asked for k = 1..20, refused on k = 20's bit count before any product is formed
    assert calls == [(3, 20)]
    assert rendered == []
    assert capsys.readouterr().out == ""
    # within the limit the same pass forms and renders one product per k
    assert main(["mertens", "--q", "3", "--k", "4"]) == 0
    assert calls[1:] == [(3, 4)] and len(rendered) == 4
    assert capsys.readouterr().out.count("\n") == 5


@pytest.mark.parametrize(
    "argv",
    [
        ["main-thm", "--q", "2", "--n-list", "5", "--d", "3", "--r", "2"],
        ["primes-bound", "--q", "2", "--n", "4", "--k", "2"],
    ],
)
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "g.csv"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(out) in captured.err


@pytest.mark.parametrize("cmd", ["main-thm", "corollary"])
@pytest.mark.parametrize(
    "grid,bad",
    [
        (["--q", "6", "--n-list", "5"], "q = 6 is not a prime power"),
        # the second modulus is above the dense limit: refused before the first one's rows
        (["--q", "2", "--n-list", "5,23"], "above the dense table limit"),
    ],
)
def test_grid_usage_error_writes_nothing(tmp_path, monkeypatch, capsys, cmd, grid, bad):
    monkeypatch.chdir(tmp_path)
    argv = [cmd, *grid, "--d", "3", "--r", "2"]
    for fmt in ("csv", "json", "human"):
        for out in ([], ["--out", "grid.csv"]):
            assert main(argv + ["--format", fmt, *out]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and bad in captured.err
            assert list(tmp_path.iterdir()) == []


def test_density_budget_counts_only_enumerated_polynomials(capsys):
    """At d >= n the closed-form histogram enumerates none of the q^d polynomials, so no budget applies."""
    argv = ["density", "--q", "3", "--n", "9", "--d", "16", "--format", "json"]
    assert main(argv) == 0
    free = capsys.readouterr().out
    assert main(argv + ["--budget", "100000000"]) == 0
    assert capsys.readouterr().out == free
    # below n the enumerated q^d still counts against it
    assert main(["density", "--q", "3", "--n", "9", "--d", "8", "--budget", "1000"]) == 3
    assert "q^d = 6561 exceeds the work budget 1000" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", ["weil --q 2 --n 100", "main-thm --q 2 --n-list 100 --d 3 --r 2"], ids=["weil", "main-thm"]
)
def test_canonical_modulus_above_limit_refused_before_its_search(monkeypatch, capsys, argv):
    from ffchar import algebra

    def no_search(f):
        raise AssertionError(f"searched for the degree-100 modulus: is_irreducible({f})")

    monkeypatch.setattr(algebra, "is_irreducible", no_search)
    assert main(argv.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: the degree-100 modulus over F_2 has q^n = {2**100} residues, ")
    assert "above 16 times the dense table limit 4194304" in err


def test_grid_budget_charges_only_enumerated_polynomials(capsys):
    """A d >= n, r = d combo takes the closed-form histogram and enumerates nothing, so it is charged nothing."""
    assert main("main-thm --q 2 --n-list 5 --d 24 --r 24 --format csv".split()) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 1 + 30  # the header, then one row per non-principal character
    assert captured.err == ""
    # r < d enumerates the smooth slice of A_24: still charged q^d + N(d, r)
    assert main("main-thm --q 2 --n-list 5 --d 24 --r 23 --format csv".split()) == 3
    assert "exceeds budget 10000000" in capsys.readouterr().err


def test_grid_budget_at_r_equal_d_below_n(capsys):
    """At r = d < n the smooth slice is A_d itself: the combo enumerates q^d = 4096 polynomials, and is charged that."""
    argv = "main-thm --q 2 --n-list 13 --d 12 --r 12 --format csv".split()
    assert main(argv + ["--budget", "4096"]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 1 + 8190
    assert captured.err == ""
    assert main(argv + ["--budget", "4095"]) == 3
    assert "work estimate 4096 exceeds budget 4095" in capsys.readouterr().err


@pytest.mark.parametrize("dr", ["--d 3 --r 0", "--d 0 --r 0", "--d 3 --r 2,0"])
def test_grid_refuses_r_below_one_before_output(tmp_path, monkeypatch, capsys, dr):
    # r = 0 after a valid r as well: nothing is written before the refusal
    monkeypatch.chdir(tmp_path)
    argv = f"main-thm --q 2 --n-list 13 {dr} --format csv".split()
    for out in ([], ["--out", "grid.csv"]):
        assert main(argv + out) == 2
        assert capsys.readouterr() == ("", "error: r must be >= 1\n")
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "cmd", ["corollary", "main-thm --policy worst-case", "main-thm --policy all", "main-thm --policy sample-k"]
)
def test_trivial_unit_group_selects_no_character(capsys, cmd):
    # mod t over F_2 the unit group has order 1: no non-principal character, so no row under any rule
    assert main(f"{cmd} --q 2 --n-list 1 --d 1..2 --r 1 --format csv".split()) == 0
    captured = capsys.readouterr()
    assert captured.out == "q,n,Q,chi,d,r,lhs,bound_core,implied_constant,short_norm,eps,flags\n"
    assert captured.err == ""


@pytest.mark.parametrize("flag", ["--policy all", "--sample-k 3", "--seed 7"])
def test_corollary_takes_no_selection_flags(capsys, flag):
    # the corollary always takes the worst case ranked by the short norms
    with pytest.raises(SystemExit) as exc:
        main(f"corollary --q 2 --n-list 5 --d 3 --r 2 {flag}".split())
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("budget", [[], ["--budget", str(10**24)]])
def test_grid_refuses_int64_overflow_before_output(tmp_path, monkeypatch, capsys, budget):
    monkeypatch.chdir(tmp_path)
    argv = ["main-thm", "--q", "2", "--n-list", "5", "--d", "64", "--r", "64", "--format", "csv", *budget]
    for out in ([], ["--out", "grid.csv"]):
        assert main(argv + out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: A_64 holds q^d = 18446744073709551616 polynomials")
        assert list(tmp_path.iterdir()) == []


def test_strict_range_grid_skips_an_int64_overflow_combo(tmp_path, monkeypatch, capsys):
    # d = 70 > n is out of the theorem range, so --strict-range skips it before its counts are checked
    monkeypatch.chdir(tmp_path)
    argv = "main-thm --q 2 --n-list 5 --d 70 --r 70 --strict-range --format csv".split()
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == "q,n,Q,chi,d,r,lhs,bound_core,implied_constant,short_norm,eps,flags\n"
    assert captured.err == "skipping q=2;n=5;d=70;r=70: out of theorem range\n"
    assert list(tmp_path.iterdir()) == []


def test_sieve_lower_bound_refuses_a_group_order_without_primes(monkeypatch, capsys):
    # q = 2, n = 1: N-1 = 1, so omega(N-1) = 0 and the bound's log omega is undefined
    from ffchar import primitive

    def no_histogram(*args, **kwargs):
        raise AssertionError("the histogram was built")

    monkeypatch.setattr(primitive, "unit_dlog_histogram", no_histogram)
    assert main("sieve --q 2 --n 1 --d 1 --c1 1 --c2 1".split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the sieve lower bound takes log omega(N-1), and N-1 = 1 has no prime factor\n"
    )


def test_smooth_count_enum_check_refuses_its_budget_before_any_profile(monkeypatch, capsys):
    from ffchar import smooth, vecpoly

    def refused(*args, **kwargs):
        raise AssertionError("built before the budget was checked")

    monkeypatch.setattr(vecpoly, "max_factor_degree_profile", refused)
    monkeypatch.setattr(smooth, "default_dickman_table", refused)
    assert main("smooth-count --q 3 --d 1..15 --enum-check".split()) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "--enum-check at d = 15: q^d = 14348907 exceeds the work budget 10000000\n"


@pytest.mark.parametrize(
    "argv,q,d",
    [
        ("density --q 3 --n 7 --d 6 --format json", 3, 6),
        ("sieve --q 2 --n 12 --d 9 --format json", 2, 9),
        ("indicator --q 2 --n 8 --d 6", 2, 6),
    ],
)
def test_primitive_subcommands_enumerate_Ad_once(monkeypatch, capsys, argv, q, d):
    """One A_d histogram per report: its slices cover the q^d polynomials exactly once."""
    from ffchar import primitive
    from ffchar.residue import DlogTable

    slices, hists = [], []
    real_slice, real_hist = DlogTable.dlogs_of_monic_degree, primitive.unit_dlog_histogram

    def counted_slice(self, deg, start=0, stop=None):
        got = real_slice(self, deg, start, stop)
        slices.append((deg, len(got)))
        return got

    def counted_hist(*args, **kwargs):
        hists.append(args[1])
        return real_hist(*args, **kwargs)

    monkeypatch.setattr(DlogTable, "dlogs_of_monic_degree", counted_slice)
    monkeypatch.setattr(primitive, "unit_dlog_histogram", counted_hist)
    assert main(argv.split()) == 0
    assert {deg for deg, _ in slices} == {d}
    assert sum(size for _, size in slices) == q**d
    assert hists == [d]


@pytest.mark.parametrize(
    "argv",
    ["density --q 2 --n 8 --d 6", "sieve --q 2 --n 8 --d 6", "indicator --q 2 --n 8 --d 6"],
)
def test_primitive_subcommands_pass_workers_to_the_histogram(monkeypatch, capsys, argv):
    from ffchar import characters

    seen = []
    real = characters.dlog_histogram

    def recorded(*args, **kwargs):
        seen.append(kwargs["workers"])
        return real(*args, **kwargs)

    monkeypatch.setattr(characters, "dlog_histogram", recorded)
    for workers in (1, 2):
        assert main(argv.split() + ["--workers", str(workers)]) == 0
    assert seen == [1, 2]


def test_sieve_fails_when_a_congruence_count_is_off(monkeypatch, capsys):
    """T is inclusion-exclusion over the S_m, so one wrong S_m shows up against the direct primitive count."""
    from ffchar import primitive
    from ffchar.residue import Modulus

    real = primitive._congruence_counts

    def off_by_one(hist, divisors):
        S = real(hist, divisors)
        S[3] += 1
        return S

    monkeypatch.setattr(primitive, "_congruence_counts", off_by_one)
    rep = primitive.sieve_quantities(Modulus.irreducible(Field.get(2), 8), 6)
    assert rep.T == rep.primitive_count_direct - 1  # S_3 enters T with mu(3) = -1
    assert main("sieve --q 2 --n 8 --d 6".split()) == 1
    assert "FAIL" in capsys.readouterr().out


def test_primes_bound_reads_each_degree_once(monkeypatch, capsys):
    """One A_k histogram and one (k-1)-smooth slice per prime degree k, the slice only from k = 2."""
    from ffchar import lfun, smooth

    units, slices = [], []
    real_units, real_slice = lfun.unit_dlog_histogram, smooth.smooth_dlog_histogram

    def counted_units(modulus, d, workers=1):
        units.append(d)
        return real_units(modulus, d, workers)

    def counted_slice(modulus, d, r, workers=1):
        slices.append((d, r))
        return real_slice(modulus, d, r, workers)

    monkeypatch.setattr(lfun, "unit_dlog_histogram", counted_units)
    monkeypatch.setattr(smooth, "smooth_dlog_histogram", counted_slice)
    assert main("primes-bound --q 2 --n 6 --k 6 --identity --format csv".split()) == 0
    assert sorted(units) == [1, 2, 3, 4, 5, 6]
    assert sorted(slices) == [(2, 1), (3, 2), (4, 3), (5, 4), (6, 5)]


def test_primes_bound_count_checks_its_dlog_stream(monkeypatch, capsys):
    """A dlog stream that loses a polynomial fails the length check of its chunk: exit 1."""
    from ffchar.residue import DlogTable

    real = DlogTable.dlogs_of_monic_degree

    def short(self, d, start=0, stop=None):
        return real(self, d, start, stop)[:-1]

    monkeypatch.setattr(DlogTable, "dlogs_of_monic_degree", short)
    # k = 4 < n: A_4 is enumerated, not read off the closed form
    assert main("primes-bound --q 2 --n 6 --k 4 --format csv".split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: A_4 slice 0:16 has 15 dlogs, not 16\n"


@pytest.mark.parametrize("bad", [10**6, 63, -2])
def test_a_dlog_outside_the_group_is_a_math_error(monkeypatch, capsys, bad):
    """A dlog at or above the group order (63 mod a sextic over F_2) or below -1 fails its chunk's range check: exit 1."""
    from ffchar.residue import DlogTable

    real = DlogTable.dlogs_of_monic_degree

    def corrupted(self, d, start=0, stop=None):
        vec = real(self, d, start, stop)
        vec[-1] = bad
        return vec

    monkeypatch.setattr(DlogTable, "dlogs_of_monic_degree", corrupted)
    assert main("primes-bound --q 2 --n 6 --k 4 --format csv".split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: A_4 slice 0:16 has a dlog outside -1..62\n"


def test_a_unit_read_as_a_non_unit_fails_the_non_unit_count(monkeypatch, capsys):
    """Every f in A_4 is a unit mod an irreducible sextic, so one unit streamed as -1 is caught: exit 1."""
    from ffchar.residue import DlogTable

    real = DlogTable.dlogs_of_monic_degree

    def mislabelled(self, d, start=0, stop=None):
        vec = real(self, d, start, stop)
        vec[1] = -1
        return vec

    monkeypatch.setattr(DlogTable, "dlogs_of_monic_degree", mislabelled)
    assert main("density --q 2 --n 6 --d 4 --format json".split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: A_4 histogram counts 1 non-units, not the 0 Q's factors give\n"


def primes_bound_rows(q: int, Q: str, k: int, identity: bool) -> str:
    """The primes-bound CSV one row at a time: per character, per degree, each value formatted on its own."""
    from ffchar.characters import character_labels
    from ffchar.lfun import prime_sum_bound, prime_sum_spectrum, von_mangoldt_spectrum
    from ffchar.residue import Modulus
    from phase_oracle import build_all_lpolynomials, inverse_root_power_sum

    modulus = Modulus(Poly.from_string(Field.of_order(q), Q))
    spectra = {j: prime_sum_spectrum(modulus, j) for j in range(1, k + 1)}
    ls = build_all_lpolynomials(modulus) if identity else {}
    lines = ["chi,k,abs_sum,bound,ratio,identity_err"]
    for c, label in enumerate(character_labels(modulus)[1:], start=1):
        field = f'"{label}"' if "," in label else label
        for j in range(1, k + 1):
            mag, bound = float(np.abs(spectra[j][c])), prime_sum_bound(modulus, j)
            err = ""
            if identity:
                err = repr(abs(complex(von_mangoldt_spectrum(modulus, j, spectra)[c]) + inverse_root_power_sum(ls[c], j)))
            lines.append(f"{field},{j},{mag!r},{bound!r},{mag / bound!r},{err}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("identity", [False, True])
def test_primes_bound_csv_matches_per_row_oracle(tmp_path, monkeypatch, capsys, identity):
    from ffchar import experiments

    argv = ["primes-bound", "--q", "3", "--n", "3", "--Q", "t^3+2t", "--k", "6", "--format", "csv"]
    argv += ["--identity"] * identity
    want = primes_bound_rows(3, "t^3+2t", 6, identity)
    assert '"chi[0,0,1]",1,' in want
    # 7 characters x 6 degrees, all in one chunk, then 5 rows at a time: a character's degrees straddle chunks
    for chunk in (experiments.ROW_CHUNK, 5):
        monkeypatch.setattr(experiments, "ROW_CHUNK", chunk)
        assert main(argv) == 0
        assert capsys.readouterr().out == want
        out = tmp_path / f"pb{chunk}.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text() == want


# sha256 of stdout: a change to any root, residual, class or power sum shows here
ROOT_DIGESTS = {
    "weil --q 2 --n 8 --format csv": "44d4c1f04104468281bc70064e84cf7a6e14aaeec742a5f59e53c8554aa5fc1d",
    "weil --q 2 --n 8 --format json": "8eb2c65672cc87a51a827988e82249a3cf418a47cf2d0ce5c31d7773d379f537",
    "weil --q 2 --n 8 --format human": "aec3635c731e87203b6a17a3ca1d772f03dd99852a67f8cd55510e114e08ba87",
    "primes-bound --q 2 --n 8 --k 6 --identity --format csv": "261865c424b79108a2da95d0e8823789ae23a5eeb4d1ae3e8b862d8fc6923562",
    "primes-bound --q 2 --n 8 --k 6 --identity --format json": "e0e519d8720bf89142ffe8b715fe658d988ef4d2e64c8a9440dc8c420840fc34",
    "weil --q 3 --n 4 --format csv": "9af73a4a3ceeb5241eb5320ae0943b89d5fee5f75bddde2f0f81369e16c44c83",
    "weil --q 3 --n 4 --format json": "4eb4c3f51c515f9cd3e2e33073f9164484cfe0ff9e1d92b51c30c3782e816a8b",
    "weil --q 3 --n 4 --format human": "4433573746e7868d661a8f7c47e6f9f27733b84725881f6faf5ba6cf4c27139e",
    "primes-bound --q 3 --n 4 --k 6 --identity --format csv": "96e89b956c1eb95b2c1ca8b474c721b34d92c91728575ce35111ad9b5919110c",
    "primes-bound --q 3 --n 4 --k 6 --identity --format json": "24907a4535be4af67d68054c38e25bafec528b79929d882b1847c012c359e502",
    "weil --q 4 --n 3 --format csv": "655a1b3d513257f5063c8da7aa11aeacd0a24d4f64559e69c0f4d10c1c5c9680",
    "weil --q 4 --n 3 --format json": "844d7c8288de4fb8a08d947f206acd2b0d1d34fb4c1c7058672867a16194017e",
    "weil --q 4 --n 3 --format human": "fd28c65649250e60630154dc4ba7af787fa9a950d0f107b64ed2064d3ce31623",
    "primes-bound --q 4 --n 3 --k 6 --identity --format csv": "f6413537492afc501a9de47aacae6b77348a4176515675d258875141ca1d87a7",
    "primes-bound --q 4 --n 3 --k 6 --identity --format json": "8611a0aa1afaf29a5a70ecbe0cebbbd312d9ecfaabe2a65503af10432ff74a45",
    "weil --q 9 --n 2 --format csv": "d6e52feb35f54cbb48a5ea5f495ad5c680cb1317ced74e5f3a4122246820bdbf",
    "weil --q 9 --n 2 --format json": "1559b6dc9816ca63ad81e27d9a3426df374756fbee9ef10a46433e10d9c2948f",
    "weil --q 9 --n 2 --format human": "2e9cd50c28299278741365c9ab2b31113f819b26a1b7846f638c64701b48aef8",
    "primes-bound --q 9 --n 2 --k 6 --identity --format csv": "f02cdd871e361ce569f68fc76adac711e6f47f00ed87c6f5526f166723662497",
    "primes-bound --q 9 --n 2 --k 6 --identity --format json": "f5f90751624a9cedac9c70fbb5c5ff456c662d6df24de69d9bf2991285f4ed1f",
    "weil --q 2 --n 12 --format csv": "0593a1a125b70ec64334e0bc335f032e873ed49b436089e4cd455723014edddc",
    "weil --q 2 --n 12 --format json": "fedd8230695c8092dbf184f09d4bf2c2fdbc6734848644293d8b32301e089c24",
    "weil --q 2 --n 12 --format human": "e199e2faf5376350ea3b05393d2eaeb47e1b66e2c7a1d2f4e86992cae99b0cb2",
    "primes-bound --q 2 --n 12 --k 6 --identity --format csv": "fee36e834fcb9bba8066b426010c776803688b1aa083e2e3207552b123ca9e7a",
    "primes-bound --q 2 --n 12 --k 6 --identity --format json": "769ccad5da6ea3ace1fa995f5528b2198a5e95b7dc4cd1c843d7f18b2249edc2",
    "weil --q 2 --n 6 --Q t^6+t^5+t^3+t --format csv": "87ad0c1b8d3893f7edd6209672cc2a2a3e2fc5cbcfc57add2fca0be141f7cb50",
    "weil --q 2 --n 6 --Q t^6+t^5+t^3+t --format json": "dbcea5f3bacd7aad78723f11031a57812374edb845f7c0c0782067232b31ef30",
    "weil --q 2 --n 6 --Q t^6+t^5+t^3+t --format human": "b875de202a35e16bdebd24969a27e8c7e054b63ef88a96a0963482f1f5dd882b",
    "primes-bound --q 2 --n 6 --Q t^6+t^5+t^3+t --k 6 --identity --format csv": "612a2e2819fbe1ebf56d2b5b2772331effe2f4e4e53a36961b85b550d813ffcd",
    "primes-bound --q 2 --n 6 --Q t^6+t^5+t^3+t --k 6 --identity --format json": "97d9d0a12727b659db7daa9e07d1acaec0209545317c4cd1e3bbaf8142d91936",
    "weil --q 3 --n 3 --Q t^3+2t --format csv": "dfe58ce08d803fd0109ed528c3276f52684b70ec8e1e0141dc239c20c0004311",
    "weil --q 3 --n 3 --Q t^3+2t --format json": "aa964afa231fedcca2a53d861f6a7d6d88bc0a0457e8d8f4cbf8bdcb9b9a8eab",
    "weil --q 3 --n 3 --Q t^3+2t --format human": "6faad64b17409befa582cb610fb122825d4f2b9a251f32a2bbdfda325df57d81",
    "primes-bound --q 3 --n 3 --Q t^3+2t --k 6 --identity --format csv": "301cf0687150912e5884b893402943ff35e65c1dee912d95fd045ff4133ed57b",
    "primes-bound --q 3 --n 3 --Q t^3+2t --k 6 --identity --format json": "15f546ec791223a360a5f8179fce5f6e4a6b281c0c09fb6a91a8a55c7d90827f",
}


@pytest.mark.parametrize("argv", sorted(ROOT_DIGESTS))
def test_weil_and_identity_stdout_digests(capsys, argv):
    import hashlib

    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == ROOT_DIGESTS[argv]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_weil_rows_across_block_and_chunk_edges(tmp_path, monkeypatch, capsys, fmt):
    import hashlib

    from ffchar import experiments

    argv = f"weil --q 2 --n 6 --Q t^6+t^5+t^3+t --format {fmt}"
    # 14 characters of 5 roots, written 4 rows at a time: a character's roots straddle chunks
    monkeypatch.setattr(experiments, "ROW_CHUNK", 4)
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == ROOT_DIGESTS[argv]
    out = tmp_path / "weil.out"
    assert main(argv.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ROOT_DIGESTS[argv]


@pytest.mark.parametrize("chunk", [1, 4, 7, 100_000])
@pytest.mark.parametrize(
    "argv",
    ["weil --q 2 --n 6 --Q t^6+t^5+t^3+t --format json", "weil --q 3 --n 3 --Q t^3+2t --format json", "weil --q 2 --n 8 --format json"],
)
def test_weil_json_converts_one_block_of_characters_at_a_time(monkeypatch, capsys, argv, chunk):
    """Blocks of chunk // (n - 1) characters: the same bytes, and no block holds more roots than a chunk or one character."""
    import hashlib

    from ffchar import cli, experiments

    texts = []
    emit = cli._emit_texts

    def recorded(lines, out):
        texts.extend(lines)
        emit(texts, out)

    monkeypatch.setattr(experiments, "ROW_CHUNK", chunk)
    monkeypatch.setattr(cli, "_emit_texts", recorded)
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == ROOT_DIGESTS[argv]
    n = int(argv.split()[4])  # every character has at most n - 1 roots
    assert all(text.count('"re": ') <= max(chunk, n - 1) for text in texts)
    assert (len(texts) == 1) == (chunk == 100_000)


def test_primes_bound_json_across_block_and_chunk_edges(tmp_path, monkeypatch, capsys):
    """The JSON rows are written a chunk at a time, with the same bytes as one json.dumps of them all."""
    import hashlib

    from ffchar import experiments

    argv = "primes-bound --q 2 --n 6 --Q t^6+t^5+t^3+t --k 6 --identity --format json"
    # 14 characters x 6 degrees, written 4 rows at a time: a character's degrees straddle chunks
    monkeypatch.setattr(experiments, "ROW_CHUNK", 4)
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == ROOT_DIGESTS[argv]
    out = tmp_path / "pb.json"
    assert main(argv.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ROOT_DIGESTS[argv]
    # no character: an empty list
    assert main("primes-bound --q 2 --n 1 --k 3 --format json".split()) == 0
    assert capsys.readouterr().out == '{"rows": []}\n'
    # smooth-count with no r <= d writes the same empty list
    assert main("smooth-count --q 2 --d 3 --r 5 --format json".split()) == 0
    assert capsys.readouterr().out == '{"rows": []}\n'


def test_weil_and_primes_bound_format_one_chunk_per_float_texts_call(monkeypatch, capsys):
    """Each float_texts call formats at most one chunk of rows, but weil's one call on its residuals."""
    from ffchar import experiments

    sizes = []
    real = experiments.float_texts

    def recorded(col):
        sizes.append(len(col))
        return real(col)

    monkeypatch.setattr(experiments, "float_texts", recorded)
    monkeypatch.setattr(experiments, "ROW_CHUNK", 4)
    # 14 characters, 70 roots: the residuals, then re, im and modulus 4 rows at a time
    assert main("weil --q 2 --n 6 --Q t^6+t^5+t^3+t --format csv".split()) == 0
    assert sizes[0] == 14 and max(sizes[1:]) == 4 * 3 and sum(sizes[1:]) == 70 * 3
    sizes.clear()
    # 14 characters x 6 degrees: abs_sum, ratio and identity_err 4 rows at a time
    assert main("primes-bound --q 2 --n 6 --Q t^6+t^5+t^3+t --k 6 --identity --format csv".split()) == 0
    assert max(sizes) == 4 * 3 and sum(sizes) == 84 * 3
    capsys.readouterr()


# recorded when `sieve` still built its modulus once per report
SIEVE_Q2_N12_D9_JSON = (
    '{"A": 512, "B_observed": "88/3", "B_observed_float": 29.333333333333332, "B_within_eps": true, '
    '"Q": "t^12+t^3+1", "S": {"1": 512, "105": 11, "13": 48, "1365": 0, "15": 39, "195": 0, "21": 32, '
    '"273": 8, "3": 200, "35": 20, "39": 14, "455": 0, "5": 96, "65": 0, "7": 72, "91": 8}, "T": 190, '
    '"char_identity_max_err": 2.1316391561971976e-14, "d": 9, "eps": 1.714713394604422, '
    '"eps_B": 877.933258037464, "lower_bound": null, "n": 12, "primitive_count_direct": 190, "q": 2, '
    '"radical": 1365}\n'
)


def test_sieve_builds_one_dlog_table(monkeypatch, capsys):
    from ffchar import residue

    builds = []
    real = residue.power_tables

    def counted(Qi, g, N):
        builds.append(N)
        return real(Qi, g, N)

    monkeypatch.setattr(residue, "power_tables", counted)
    assert main(["sieve", "--q", "2", "--n", "12", "--d", "9", "--format", "json"]) == 0
    assert builds == [2**12 - 1]
    assert capsys.readouterr().out == SIEVE_Q2_N12_D9_JSON


@pytest.mark.parametrize(
    "argv,code",
    [
        ("smooth-count --q 3 --d 1..6 --format csv", 0),
        ("density --q 3 --n 5 --d 8 --format json --out density.json", 0),
        ("main-thm --q 2 --n-list 5 --d 3..5 --r 2..5 --format csv --workers 2 --out grid.csv", 0),
        ("primes-bound --q 2 --n 4 --k 3 --identity --format csv", 0),
        ("density --q 2 --n 5 --d 0", 2),
        ("density --q 2 --n 13 --d 12 --budget 100", 3),
        ("main-thm --q 2 --n-list 5 --d 4 --r 2 --budget 3 --format human --out g.csv", 3),
    ],
)
def test_module_entry_matches_in_process_main(tmp_path, monkeypatch, capsys, argv, code):
    """python -m ffchar.cli, which leaves through os._exit, writes what main() writes and exits with its code."""
    inproc, child = tmp_path / "inproc", tmp_path / "child"
    inproc.mkdir()
    child.mkdir()
    monkeypatch.chdir(inproc)
    assert main(argv.split()) == code
    out, err = capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)  # block-buffered stdout: output left unflushed would be lost
    proc = subprocess.run(
        [sys.executable, "-m", "ffchar.cli", *argv.split()], cwd=child, env=env, capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    files = sorted(p.name for p in inproc.iterdir())
    assert sorted(p.name for p in child.iterdir()) == files
    for name in files:
        assert (child / name).read_bytes() == (inproc / name).read_bytes(), name


@pytest.mark.parametrize("cmd", ["main-thm", "corollary"])
def test_stdout_is_the_out_file_bytes(tmp_path, cmd):
    """Without --out a grid prints the bytes its --out run writes: grid.csv for csv, its JSONL mirror for json."""
    # n = 10: 1,023 rows per main-thm combo, so each combo spans more than one row chunk
    argv = [cmd, "--q", "2", "--n-list", "5,10", "--d", "3..6", "--r", "2..6"]
    files = run_cli(argv + ["--format", "csv", "--out", "grid.csv"], tmp_path)
    assert (files.returncode, files.stdout, files.stderr) == (0, b"", b"")
    for fmt, name in (("csv", "grid.csv"), ("json", "grid.csv.jsonl")):
        printed = run_cli(argv + ["--format", fmt], tmp_path)
        assert (printed.returncode, printed.stderr) == (0, b"")
        assert printed.stdout == (tmp_path / name).read_bytes(), fmt


def test_closed_stdout_exits_141_quietly(tmp_path):
    """A reader that takes one line and closes the pipe ends the grid with exit 141 and nothing on stderr."""
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = ["main-thm", "--q", "2", "--n-list", "13", "--d", "10", "--r", "4", "--format", "csv"]
    with open(tmp_path / "err", "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "ffchar.cli", *argv], env=env, stdout=subprocess.PIPE, stderr=err)
        header = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=120)
    assert header == b"q,n,Q,chi,d,r,lhs,bound_core,implied_constant,short_norm,eps,flags\n"
    assert code == 141
    assert (tmp_path / "err").read_bytes() == b""


EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"  # sha256 of no bytes

# every subcommand in every format, the grid's three --out files with and without --resume, a
# composite Q, q = 4 and q = 9: (exit code, sha256 of stdout, sha256 of stderr, then "file:sha256"
# for each file the runs wrote), recorded before the FFCHAR_* defaults and the members no
# subcommand read left src/
ARGV_DIGESTS = {
    "weil --q 2 --n 5": (0, "62ce6769dccf27b68027b95553b38f7a8b20b50c4222654e2312e64e9ea7028f", EMPTY),
    "weil --q 2 --n 5 --format json": (0, "45c6c86c3b3fcf47607bc60521fdc6dc86107c7ac6133a4f9785581fba3677a1", EMPTY),
    "weil --q 2 --n 5 --format csv": (0, "a53d20354084b40a1841dbcd259cd23848911c5b7fd27bd955e3a0e36a6c0c79", EMPTY),
    "weil --q 2 --n 5 --format csv --out w.csv": (
        0, EMPTY, EMPTY,
        "w.csv:a53d20354084b40a1841dbcd259cd23848911c5b7fd27bd955e3a0e36a6c0c79",
    ),
    "weil --q 3 --n 3 --Q t^3+2t": (0, "6faad64b17409befa582cb610fb122825d4f2b9a251f32a2bbdfda325df57d81", EMPTY),
    "weil --q 4 --n 2 --format json": (0, "3af6675c52d9ae42daa9ac2e2c57be82f6deae726898ce85b3d7d76c0876fa20", EMPTY),
    "weil --q 9 --n 2": (0, "2e9cd50c28299278741365c9ab2b31113f819b26a1b7846f638c64701b48aef8", EMPTY),
    "primes-bound --q 2 --n 5 --k 5 --identity": (
        0, "30022539526aa33faa82f7abd4d3f0775fcca20da87c0713470b9a9c4e3168f4", EMPTY,
    ),
    "primes-bound --q 2 --n 5 --k 5 --identity --format json": (
        0, "54f44d24077a1ed5129ed66896fac3f3ef46541f54512cae8d7864352b1a8ccc", EMPTY,
    ),
    "primes-bound --q 2 --n 5 --k 5 --format csv": (
        0, "067ca96f4a462e68f8c883a4c05444f5a0ae6cc45a05f028568c26b727fbb080", EMPTY,
    ),
    "primes-bound --q 2 --n 6 --Q t^6+t^5+t^3+t --k 4 --identity": (
        0, "64add10545e432e94992113ced3c718094a368434b28bd95447aadb1ea15b4df", EMPTY,
    ),
    "primes-bound --q 4 --n 2 --k 3 --identity --format csv": (
        0, "b3b0858ca241099756dfd1d163533d733493f72f851fa8f1d9ef2d0fcafd6f97", EMPTY,
    ),
    "primes-bound --q 9 --n 2 --k 2 --format json --out pb.json": (
        0, EMPTY, EMPTY,
        "pb.json:4e95c4212ac57989bb4bb4e8c81929f012364994a2180fdf11857ae197f496b9",
    ),
    "smooth-count --q 2 --d 1..8 --enum-check": (
        0, "a9e5655409a7b7f4986dac1812d57d12ac2d8ee94fb2c82e71c13905449e2cfd", EMPTY,
    ),
    "smooth-count --q 2 --d 1..8 --enum-check --format json": (
        0, "c28e9572c0f4e3549ff9cc3ae135db69f6f195675adc0f1d0bca4a8c6ba52251", EMPTY,
    ),
    "smooth-count --q 3 --d 1..6 --r 1..3 --format csv": (
        0, "fce0174d17f326a26530430276cfcf5451e8862e54e4cbb0b54555a69194752e", EMPTY,
    ),
    "smooth-count --q 4 --d 1..4 --enum-check --format csv": (
        0, "7c93acb8fd693f8f37155b0dacd4957921cfc4b2e5b2a0b3422e0b1c62b04d0f", EMPTY,
    ),
    "smooth-count --q 9 --d 1..3 --format csv --out sc.csv": (
        0, EMPTY, EMPTY,
        "sc.csv:ec0a49e74705ebecc2aaa5bb00278fd65a42dfe64d52037eafe4e0d1b7ed2edf",
    ),
    "dickman --u-max 12": (0, "4e284eec5ed6e71a6c44b9bc2ea14d26aba732e1fae81c116b6072fdcec82e05", EMPTY),
    "dickman --u-max 30 --format json": (0, "007fd095104590655294a935502cfb9f556a7704c3395145bef84c7934515008", EMPTY),
    "dickman --u-max 8 --format csv": (0, "c7e1392681948b07652595df9d57052e1e442de04fbaec0a5a600150e8fc3626", EMPTY),
    "main-thm --q 2 --n-list 5 --d 3..6 --r 2..6": (
        0, "6b7b4c9f81e914826b2fb595688bc9cb68fe43441b27a99ea3402cb8dff3c017", "507be4367a6507e8359e0c182591c1ae42ed7f9e1592eb9bb12bcd3d32ad8981",
    ),
    "main-thm --q 2 --n-list 5 --d 3..6 --r 2..6 --format json": (
        0, "3aa73ae0bdedf43b999778772a6e535700ee2291340e2b43c64595093d6c0485", EMPTY,
    ),
    "main-thm --q 2 --n-list 5 --d 3..6 --r 2..6 --format csv": (
        0, "6b7b4c9f81e914826b2fb595688bc9cb68fe43441b27a99ea3402cb8dff3c017", EMPTY,
    ),
    "main-thm --q 2 --n-list 5 --d 3..6 --r 2..6 --format csv --out g.csv": (
        0, EMPTY, EMPTY,
        "g.csv:6b7b4c9f81e914826b2fb595688bc9cb68fe43441b27a99ea3402cb8dff3c017",
        "g.csv.ckpt:92daa1c735eb35059de47708ea72f05310384ecb5618e525f217dc0a58ed0bb7",
        "g.csv.jsonl:3aa73ae0bdedf43b999778772a6e535700ee2291340e2b43c64595093d6c0485",
    ),
    "main-thm --q 2 --n-list 5 --d 3 --r 2 --format csv --out g.csv && main-thm --q 2 --n-list 5 --d 3..6 --r 2..6 --format csv --out g.csv --resume": (
        0, EMPTY, EMPTY,
        "g.csv:6b7b4c9f81e914826b2fb595688bc9cb68fe43441b27a99ea3402cb8dff3c017",
        "g.csv.ckpt:92daa1c735eb35059de47708ea72f05310384ecb5618e525f217dc0a58ed0bb7",
        "g.csv.jsonl:3aa73ae0bdedf43b999778772a6e535700ee2291340e2b43c64595093d6c0485",
    ),
    "main-thm --q 2 --n-list 5 --d 3..6 --r 2..6 --format csv --out g.csv && main-thm --q 2 --n-list 5 --d 3..6 --r 2..6 --format csv --out g.csv --resume": (
        0, EMPTY, EMPTY,
        "g.csv:6b7b4c9f81e914826b2fb595688bc9cb68fe43441b27a99ea3402cb8dff3c017",
        "g.csv.ckpt:92daa1c735eb35059de47708ea72f05310384ecb5618e525f217dc0a58ed0bb7",
        "g.csv.jsonl:3aa73ae0bdedf43b999778772a6e535700ee2291340e2b43c64595093d6c0485",
    ),
    "main-thm --q 2 --n-list 5,6 --d 4..7 --r 3..7 --policy sample-k --sample-k 3 --seed 7 --format csv": (
        0, "ecb2660616939eaec2e8e78244c9c3357c407c5959f14229bf679f617bf9b309", EMPTY,
    ),
    "main-thm --q 2 --n-list 6 --d 4..7 --r 3..7 --policy worst-case --format json": (
        0, "feebfbb369e0535829e2d5d5887f3eb5dea225e471a9324d4c5364141abd54a6", EMPTY,
    ),
    "main-thm --q 2 --n-list 5 --d 3..6 --r 2..6 --strict-range": (
        0, "422862d174b2221d501351605850b7c0e9e42f7eb5f124e85c1ddc0cd3a9bee0", "f58fa3003f0dd26c95f2071b805657dd5af7aa308e8c2f278eacb09ec981a7be",
    ),
    "main-thm --q 2 --n-list 5 --d 4 --r 2 --budget 3": (
        3, "99be82426b919a76222178f252e099898ccebc1186cd0e815c1f0c5ac6c3de62", "fa3933657621822e51830bb669119c9e4f9123f1a1020f7fbf0a4c09330c0b40",
    ),
    "main-thm --q 2 --n-list 5 --d 7..9 --r 5..9 --format csv": (
        0, "2a1a332c71ff43f23310c34ad8df8202a844ea03f2b41352993d627a0c79f402", EMPTY,
    ),
    "main-thm --q 4 --n-list 3 --d 2..4 --r 1..4 --format csv --out g.csv": (
        0, EMPTY, EMPTY,
        "g.csv:8aef35c4a1af82de4c0e91fa622e5951ea923a463829a9a30fd693c47ee6941a",
        "g.csv.ckpt:0a89c46cee23cda875b7765f7b37c263188632a7f50915f6ad84c8d2ea36eafb",
        "g.csv.jsonl:175b3b6dbcf1697209b527fb231d4923f2648fcb34f608be88bae61c14b0eccf",
    ),
    "main-thm --q 9 --n-list 2 --d 1..3 --r 1..3 --format json": (
        0, "8083d833a03cb5ff36cc3ffd6b9c46adfdb0cad2d7cf7d6bad970783ae4aef57", EMPTY,
    ),
    "corollary --q 2 --n-list 5,6 --d 3..6 --r 2..6": (
        0, "2e236a51ccc1ae44cfd1aacd7d1cc8bc4b40b722e73a43022d52f721bae7185e", "a5e9d82a3f07d34956ba8a921c5e936ac83ca9100d7a6dbab58640ef7e046693",
    ),
    "corollary --q 2 --n-list 5,6 --d 3..6 --r 2..6 --format json": (
        0, "78f2f230c3728c0c3f368f8992d25b6cbbc20fe6ee4d5d2bf20dbc3be23a4d97", EMPTY,
    ),
    "corollary --q 2 --n-list 5,6 --d 3..6 --r 2..6 --format csv --out c.csv": (
        0, EMPTY, EMPTY,
        "c.csv:2e236a51ccc1ae44cfd1aacd7d1cc8bc4b40b722e73a43022d52f721bae7185e",
        "c.csv.ckpt:65b857b47070c2cc71f2257e112549b09ce3a6cc9c5045693a1233b231d4f21e",
        "c.csv.jsonl:78f2f230c3728c0c3f368f8992d25b6cbbc20fe6ee4d5d2bf20dbc3be23a4d97",
    ),
    "corollary --q 3 --n-list 3 --d 2..4 --r 1..4 --format csv": (
        0, "0ea25ac457e350efcd2cecd9db4e86c01bcb2897a7cd0ace8cd88739657d5d72", EMPTY,
    ),
    "density --q 2 --n 6 --d 5": (0, "d3db3b452fb75def275fb547984b67e4980ce08e975422e9c019835faa18ab4f", EMPTY),
    "density --q 2 --n 6 --d 5 --format json": (
        0, "a35cfdd2c8d6e0e14126d5d3f19c8c55062a689b67771f70a66a83e0e2c56428", EMPTY,
    ),
    "density --q 2 --n 6 --d 5 --format csv": (
        0, "fae3f04f5c677fc5e074bd64a7f44ab48f460cebff3774f95f7378556e591be2", EMPTY,
    ),
    "density --q 3 --n 5 --d 8 --format json": (
        0, "1994dfa372d42835b49c57613feefa5574cf1b9512ac06f5bb37f72ed1a7304d", EMPTY,
    ),
    "density --q 4 --n 3 --d 4 --format csv": (
        0, "21372474fc37fca0de06ea3b96d2a41f0cdcb73f0f7929b2f2a1106c3a95db07", EMPTY,
    ),
    "density --q 9 --n 2 --d 3": (0, "b13aa1047d1093290f344ed727194bb9a47f6eb0d0ba9342159f1cea27da740b", EMPTY),
    "density --q 2 --n 6 --eps 0.05 --C 0.3": (
        0, "63f095bfbcb0e5f26d928e1b4b8cf4a0f2c22e1c04d5bd725c125018a5a57a4c", "1e79724631d5646faa6b7fdce779d1d27e53624777a2147084247506254c5198",
    ),
    "density --q 2 --n 13 --d 12 --budget 100": (
        3, EMPTY, "1e94e43e5a4719ca8a3394e3dce782ae2b9504e28e451787dd807d1427b0761b",
    ),
    "sieve --q 2 --n 8 --d 6 --c1 1 --c2 1": (
        0, "b90ca3b6f4634932ec1ffc6521ef601a74749a35f55fde4df3572c15669a456f", EMPTY,
    ),
    "sieve --q 2 --n 8 --d 6 --format json": (
        0, "f3ca7114aaff5eb42a7a2d4cec8348381b5cd867e01f994cb0d6d2bb82b9383c", EMPTY,
    ),
    "sieve --q 2 --n 8 --d 6 --format csv": (
        0, "d2a9c8a9e44debad3f857207ef6f20b4ed63a7fb673e9a913750cb55885fbb9f", EMPTY,
    ),
    "sieve --q 4 --n 3 --d 3 --format json": (
        0, "027ca4be902a7eb0a1dccdff5e0d2715581a5162c9ed6a8a7868fb9faeb13b20", EMPTY,
    ),
    "sieve --q 9 --n 2 --d 2 --format csv": (
        0, "818c5beecc68e3e6c00df7392221e198a6c12ff610145a0f790d1c4feff033a9", EMPTY,
    ),
    "mertens --q 2 --k 12": (0, "d3db48860ad1913a33d0abad8e05442e5e28ac43b2949626e48fd64d7aedcfd3", EMPTY),
    "mertens --q 2 --k 12 --format json": (
        0, "e09a0c59fbef1c3c471208f3c1b644fef8836b80c39cd7817e6045c3927f07fd", EMPTY,
    ),
    "mertens --q 2 --k 20 --format csv": (0, "852c2762809adbcbae7a239f67bb2525ae58f312cf1585c78ed7f356878c6a12", EMPTY),
    "mertens --q 4 --k 8": (0, "7eca44b506577075e1e30d72cd105a8b589a1d4c6b3902bf737e72971570a2f9", EMPTY),
    "mertens --q 9 --k 5 --format json": (0, "44f8802cf571d589eb3fda91baa451f695a9485439f29f064b3c20b704973632", EMPTY),
    "indicator --q 2 --n 6 --d 5": (0, "80327daeda942ea3ece6fca404e03ebcb55b936d78eb9318c4ba4a59a037b4fd", EMPTY),
    "indicator --q 2 --n 6 --d 5 --format json": (
        0, "7ecd3862708ddfa551d56fba2e515c344cd9beb439b5b2febc10c444cf97d267", EMPTY,
    ),
    "indicator --q 2 --n 5 --format csv": (
        0, "312fbf79c8a2f09074234330ad908aea7ab531292b513a5822372c93382af766", EMPTY,
    ),
    "indicator --q 4 --n 2 --d 3 --format json": (
        0, "9c063fcb823c8123892099a2f1819adbba5153c48d5d640c4d7334f0700bccb3", EMPTY,
    ),
    "indicator --q 9 --n 2 --d 2": (0, "44f062db7ee2c988888c6210bf3ff1d512cb98da79d7615a946f7103487c72f0", EMPTY),
    "indicator --q 2 --n 3 --Q t^3+t+1 --d 2": (
        0, "15eb850b791b7e8ce2b1f196a6f8eea9cd352b7c5d43a96c78b6f3f227c5c4ba", EMPTY,
    ),
    "weil --q 2 --n 4 --Q t^4+t^2": (2, EMPTY, "11c3650a0a2182a765faea0a80188863c8ce5a8be28c4a061dfe61f452b0e0c3"),
    # (t+2)(t^2+3t+1) over F_4: the factor order fixes the generators and the character labels
    "weil --q 4 --n 3 --Q t^3+t^2+2 --format csv": (
        0, "ed726cb3621f879e22230309531f035bb5dd469e701d890abaff302692168781", EMPTY,
    ),
    # (t^2+t+3)^2 over F_4, whose derivative is zero
    "weil --q 4 --n 4 --Q t^4+t^2+2": (2, EMPTY, "94ba99fda4b4babaf6add599688f4ab91e8d83a23921295ffac67c3017dee37c"),
    "indicator --q 2 --n 3 --Q t^3+t^2+t": (
        2, EMPTY, "b9a8265eb160a5ec58f74bb8d34c5ad35375f095dfb8ae7f386be75b60950e62",
    ),
    "density --q 2 --n 5 --d 0": (2, EMPTY, "ac28281104694c903f72622199036411644bd9858ed8bd8fbc86e67a0b0a9885"),
    "mertens --q 6 --k 3": (2, EMPTY, "4d1ac28106ea8254b8598b84c9d901c8091f7ac388bf389fac2d59b42a665920"),
    # a prime q above the 2^16 Field bound: smooth-count needs no Field
    "smooth-count --q 65537 --d 1..3 --format csv": (
        0, "6202ba0d91931f071557d04c904d8c5c0db84643fcd8a15420786abb3f1b1d53", EMPTY,
    ),
    "main-thm --q 2 --n-list 5 --d 3 --r 0": (
        2, EMPTY, "ef547f1d7a795db259dd5e9e46d8ca908732db3b779040143a6993d4ed99a7c2",
    ),
}


def argv_digest(runs: str, capsys) -> tuple:
    """The ARGV_DIGESTS entry of runs, " && "-joined argv run in order in the working directory."""
    import hashlib

    for argv in runs.split(" && "):
        code = main(argv.split())
        out, err = capsys.readouterr()
    files = tuple(f"{p.name}:{hashlib.sha256(p.read_bytes()).hexdigest()}" for p in sorted(Path().iterdir()))
    return (code, hashlib.sha256(out.encode()).hexdigest(), hashlib.sha256(err.encode()).hexdigest()) + files


@pytest.mark.parametrize("runs", list(ARGV_DIGESTS))
def test_output_bytes_match_recorded_digests(tmp_path, monkeypatch, capsys, runs):
    monkeypatch.chdir(tmp_path)
    assert argv_digest(runs, capsys) == ARGV_DIGESTS[runs]
