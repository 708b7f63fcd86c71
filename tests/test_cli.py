import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ffchar
from ffchar.cli import main

SRC = str(Path(ffchar.__file__).resolve().parents[1])


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
    # the asymptotic schedule prescribes a large degree; the budget guard
    # reports it and exits 3 instead of enumerating q^d polynomials
    assert main(["density", "--q", "2", "--n", "6", "--eps", "0.05", "--C", "1.0"]) == 3
    err = capsys.readouterr().err
    assert "schedule:" in err and "budget" in err
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

    # cmd_weil imports verify_weil when it runs, so the patch on its home module is what it sees
    monkeypatch.setattr(ffchar.lfun, "verify_weil", broken)
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
    ],
)
def test_bad_input_is_usage_error_naming_the_value(capsys, argv, bad):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and bad in captured.err


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
        ("density --q 2 --n 5 --d 12 --budget 100", 3),
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
