import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ffchar
from ffchar.algebra import Field, Poly
from ffchar.cli import main

SRC = str(Path(ffchar.__file__).resolve().parents[1])
GRID = ["main-thm", "--q", "2", "--n-list", "5", "--d", "3", "--r", "2"]


def run_cli(argv: list[str], cwd) -> subprocess.CompletedProcess:
    """python -m ffchar.cli in a fresh process, its stdout and stderr as bytes."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "ffchar.cli", *argv], cwd=cwd, env=env, capture_output=True)


def test_weil_exit_zero(capsys):
    assert main(["weil", "--q", "2", "--n", "4"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_weil_degree_one_modulus(capsys):
    # q=7, n=1: unit group of order 6, every L-polynomial has degree 0
    assert main(["weil", "--q", "7", "--n", "1"]) == 0


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


def test_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("FFCHAR_FORMAT", "csv")
    out = tmp_path / "w.csv"
    assert main(["weil", "--q", "2", "--n", "3", "--out", str(out)]) == 0
    assert out.read_text().startswith("chi,")


def test_worker_flag_accepted(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["density", "--q", "2", "--n", "6", "--d", "5", "--format", "json", "--out", str(a), "--workers", "1"])
    main(["density", "--q", "2", "--n", "6", "--d", "5", "--format", "json", "--out", str(b), "--workers", "8"])
    assert a.read_bytes() == b.read_bytes()


def test_malformed_env_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("FFCHAR_WORKERS", "two")
    assert main(["weil", "--q", "2", "--n", "3"]) == 2
    assert "FFCHAR_WORKERS" in capsys.readouterr().err


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
        (["density", "--q", "2", "--n", "5", "--d", "3", "--workers", "0"], "--workers (or FFCHAR_WORKERS) must be >= 1, got 0"),
        (["smooth-count", "--q", "2", "--d", "3", "--workers", "-2"], "--workers (or FFCHAR_WORKERS) must be >= 1, got -2"),
        (GRID + ["--workers", "0"], "--workers (or FFCHAR_WORKERS) must be >= 1, got 0"),
        (GRID + ["--policy", "sample-k", "--sample-k", "0"], "--sample-k must be >= 1, got 0"),
        (GRID + ["--policy", "sample-k", "--sample-k", "-1"], "--sample-k must be >= 1, got -1"),
        (["density", "--q", "2", "--n", "5", "--d", "63"], "q^d = 9223372036854775808 polynomials"),
    ],
)
def test_bad_input_is_usage_error_naming_the_value(capsys, argv, bad):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and bad in captured.err


@pytest.mark.parametrize("workers", ["0", "-2"])
@pytest.mark.parametrize("argv", [["density", "--q", "2", "--n", "5", "--d", "3"], GRID])
def test_workers_below_one_from_env_is_usage_error(monkeypatch, capsys, argv, workers):
    # argparse applies no type check to a default, so the value from the environment is checked on its own
    monkeypatch.setenv("FFCHAR_WORKERS", workers)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --workers (or FFCHAR_WORKERS) must be >= 1, got {workers}\n"


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

    real = primitive._congruence_counts

    def off_by_one(hist, divisors):
        S = real(hist, divisors)
        S[3] += 1
        return S

    monkeypatch.setattr(primitive, "_congruence_counts", off_by_one)
    rep = primitive.sieve_quantities(2, 8, 6)
    assert rep.T == rep.primitive_count_direct - 1  # S_3 enters T with mu(3) = -1
    assert main("sieve --q 2 --n 8 --d 6".split()) == 1
    assert "FAIL" in capsys.readouterr().out


def test_primes_bound_reads_each_degree_once(monkeypatch, capsys):
    from ffchar.residue import DlogTable

    degrees = []
    real = DlogTable.irreducible_dlogs

    def counted(self, k):
        degrees.append(k)
        return real(self, k)

    monkeypatch.setattr(DlogTable, "irreducible_dlogs", counted)
    assert main("primes-bound --q 2 --n 6 --k 6 --identity --format csv".split()) == 0
    assert sorted(degrees) == [1, 2, 3, 4, 5, 6]


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
    from ffchar import cli, experiments

    argv = ["primes-bound", "--q", "3", "--n", "3", "--Q", "t^3+2t", "--k", "6", "--format", "csv"]
    argv += ["--identity"] * identity
    want = primes_bound_rows(3, "t^3+2t", 6, identity)
    assert '"chi[0,0,1]",1,' in want
    # 7 characters x 6 degrees in blocks of 3 characters, written 5 rows at a time
    for block, chunk in ((cli.CHAR_BLOCK, experiments.ROW_CHUNK), (3, 5)):
        monkeypatch.setattr(cli, "CHAR_BLOCK", block)
        monkeypatch.setattr(experiments, "ROW_CHUNK", chunk)
        assert main(argv) == 0
        assert capsys.readouterr().out == want
        out = tmp_path / f"pb{block}.csv"
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

    from ffchar import cli, experiments

    argv = f"weil --q 2 --n 6 --Q t^6+t^5+t^3+t --format {fmt}"
    # 14 characters of 5 roots in blocks of 3 characters, written 4 rows at a time
    monkeypatch.setattr(cli, "CHAR_BLOCK", 3)
    monkeypatch.setattr(experiments, "ROW_CHUNK", 4)
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == ROOT_DIGESTS[argv]
    out = tmp_path / "weil.out"
    assert main(argv.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ROOT_DIGESTS[argv]


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
