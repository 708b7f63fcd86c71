import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from ffchar import experiments
from ffchar.algebra import Field, Poly, irreducibles_up_to
from ffchar.characters import character_by_index
from ffchar.cli import main
from ffchar.experiments import (
    CSV_HEADER,
    ComboBlock,
    ExperimentConfig,
    run_corollary_grid,
    run_main_theorem_grid,
)
from ffchar.residue import Modulus
from ffchar.smooth import smooth_count
from phase_oracle import character_sum_Ad, chi_eval, prime_char_sum, smooth_char_sum

F2 = Field.get(2)


# -- per-record oracle for the block formatter --------------------------------


def csv_row(rec) -> str:
    fields = [rec.q, rec.n, rec.Q, rec.chi, rec.d, rec.r]
    floats = [rec.lhs, rec.bound_core, rec.implied_constant, rec.short_norm, rec.eps]
    return ",".join([str(x) for x in fields] + [repr(x) for x in floats] + [rec.flags])


def json_line(rec) -> str:
    doc = {
        "q": rec.q,
        "n": rec.n,
        "Q": rec.Q,
        "chi": rec.chi,
        "d": rec.d,
        "r": rec.r,
        "lhs": rec.lhs,
        "bound_core": rec.bound_core,
        "implied_constant": rec.implied_constant,
        "short_norm": rec.short_norm,
        "eps": rec.eps,
        "flags": rec.flags,
        "a_re": rec.a_sum.real,
        "a_im": rec.a_sum.imag,
        "s_re": rec.s_sum.real,
        "s_im": rec.s_sum.imag,
    }
    return json.dumps(doc, sort_keys=True)


def oracle_texts(block) -> tuple[str, str]:
    recs = block.records()
    return "".join(csv_row(r) + "\n" for r in recs), "".join(json_line(r) + "\n" for r in recs)


def joined(chunks) -> tuple[str, str]:
    """The whole CSV and JSONL texts of (csv, jsonl) chunk pairs."""
    pairs = list(chunks)
    return "".join(c for c, _ in pairs), "".join(j for _, j in pairs)


def small_cfg(tmp_path=None, **kw):
    base = dict(
        qs=(2,),
        ns=(5,),
        ds=(3, 4, 5),
        rs=(2, 3, 4, 5),
        char_policy="all",
        workers=1,
    )
    if tmp_path is not None:
        base.update(
            out_csv=str(tmp_path / "grid.csv"),
            out_json=str(tmp_path / "grid.jsonl"),
            checkpoint=str(tmp_path / "grid.ckpt"),
        )
    base.update(kw)
    return ExperimentConfig(**base)


def test_diagonal_lhs_exactly_zero(tmp_path):
    res = run_main_theorem_grid(small_cfg(tmp_path))
    diag = [rec for rec in res.records if rec.r == rec.d]
    assert diag
    for rec in diag:
        assert rec.lhs == 0.0


def test_records_match_single_character_paths(tmp_path):
    res = run_main_theorem_grid(small_cfg(tmp_path))
    m = Modulus.irreducible(F2, 5)
    for rec in res.records[:40]:
        k = int(rec.chi[4:-1])
        chi = character_by_index(m, k)
        a = character_sum_Ad(chi, rec.d).value
        s = smooth_char_sum(chi, rec.d, rec.r).value
        assert abs(abs(a - s) - rec.lhs) < 1e-8
        assert abs(rec.a_sum - a) < 1e-8
        assert abs(rec.s_sum - s) < 1e-8


def test_principal_lhs_identity():
    # principal character: both sums are plain unit counts, lhs = q^d - N(d, r)
    m = Modulus.irreducible(F2, 6)
    chi0 = character_by_index(m, 0)
    for d in (3, 4, 5):
        for r in (1, 2, 3):
            a = character_sum_Ad(chi0, d).value
            s = smooth_char_sum(chi0, d, r).value
            assert abs((a - s) - (2**d - smooth_count(2, d, r))) < 1e-9


def test_csv_format_and_json_mirror(tmp_path):
    cfg = small_cfg(tmp_path, ds=(4,), rs=(2, 4))
    res = run_main_theorem_grid(cfg)
    lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(res.records)
    jrecs = [json.loads(ln) for ln in (tmp_path / "grid.jsonl").read_text().splitlines()]
    assert len(jrecs) == len(res.records)
    # lhs recomputed from the persisted raw sums matches to the last digit
    for jr in jrecs:
        lhs = abs(complex(jr["a_re"], jr["a_im"]) - complex(jr["s_re"], jr["s_im"]))
        assert repr(lhs) == repr(jr["lhs"])


def test_resume_produces_identical_bytes(tmp_path):
    full_dir = tmp_path / "full"
    part_dir = tmp_path / "part"
    full_dir.mkdir()
    part_dir.mkdir()
    cfg_full = small_cfg(full_dir)
    run_main_theorem_grid(cfg_full)
    # partial run: only the first d value, then resume with the full grid
    cfg_part = small_cfg(part_dir, ds=(3,))
    run_main_theorem_grid(cfg_part)
    cfg_resume = small_cfg(part_dir, resume=True)
    res = run_main_theorem_grid(cfg_resume)
    assert res.resumed  # the d=3 combos were skipped
    assert (full_dir / "grid.csv").read_bytes() == (part_dir / "grid.csv").read_bytes()
    assert (full_dir / "grid.jsonl").read_bytes() == (part_dir / "grid.jsonl").read_bytes()


def test_worker_count_does_not_change_bytes(tmp_path):
    d1 = tmp_path / "w1"
    d8 = tmp_path / "w8"
    d1.mkdir()
    d8.mkdir()
    run_main_theorem_grid(small_cfg(d1, workers=1))
    run_main_theorem_grid(small_cfg(d8, workers=8))
    assert (d1 / "grid.csv").read_bytes() == (d8 / "grid.csv").read_bytes()
    assert (d1 / "grid.jsonl").read_bytes() == (d8 / "grid.jsonl").read_bytes()


def test_budget_skips_with_notice(tmp_path, capsys):
    cfg = small_cfg(tmp_path, budget=10)
    res = run_main_theorem_grid(cfg)
    assert res.records == []
    assert res.skipped
    assert all(reason == "budget" for _, reason in res.skipped)
    assert "exceeds budget" in capsys.readouterr().err


def test_out_of_range_flagging(tmp_path):
    cfg = small_cfg(tmp_path, ds=(4,), rs=(2, 4))
    res = run_main_theorem_grid(cfg)
    # 2 log_2(5) = 4.64: r = 2 and even r = d = 4 are below it
    assert all(rec.flags == "out_of_range" for rec in res.records)
    cfg2 = small_cfg(tmp_path, ds=(4,), rs=(2, 4), allow_out_of_range=False, resume=False)
    res2 = run_main_theorem_grid(cfg2)
    assert res2.records == []
    assert all(reason == "out_of_range" for _, reason in res2.skipped)


def test_sample_policy_deterministic(tmp_path):
    a = run_main_theorem_grid(small_cfg(tmp_path, char_policy="sample-k", sample_k=5, seed=42))
    b = run_main_theorem_grid(small_cfg(None, char_policy="sample-k", sample_k=5, seed=42))
    assert [r.chi for r in a.records] == [r.chi for r in b.records]
    c = run_main_theorem_grid(small_cfg(None, char_policy="sample-k", sample_k=5, seed=7))
    assert [r.chi for r in a.records] != [r.chi for r in c.records]


def test_worst_case_policy_single_record_per_combo(tmp_path):
    res = run_main_theorem_grid(small_cfg(tmp_path, char_policy="worst-case"))
    keys = {(r.d, r.r) for r in res.records}
    assert len(res.records) == len(keys)


def test_corollary_grid(tmp_path):
    cfg = small_cfg(tmp_path, ds=(4, 5, 6, 7), rs=(3, 4, 5))
    res = run_corollary_grid(cfg)
    m = Modulus.irreducible(F2, 5)
    for rec in res.records:
        # per combo: the exact max over all characters
        best = max(
            abs(character_sum_Ad(character_by_index(m, k), rec.d).value)
            for k in range(1, 31)
        )
        assert abs(rec.short_norm - best / 2**rec.d) < 1e-9
        if rec.d >= 5:  # d >= n: short sums vanish
            assert rec.short_norm < 1e-9


# -- L = M * N: the full series is the smooth series times the rough one ----------


@dataclass
class LMNReport:
    """Convolution identity check: full sums = smooth series x rough series."""

    chi_label: str
    r: int
    k_max: int
    errors: list[float]

    @property
    def max_error(self) -> float:
        return max(self.errors, default=0.0)


def verify_l_equals_m_times_n(chi, r: int, k_max: int) -> LMNReport:
    """Coefficients of the smooth Euler factor times the rough one vs A(k, chi).

    The rough series prod over deg P in (r, k_max] of (1 - chi(P) z^deg P)^(-1)
    is expanded formally to degree k_max, convolved with the smooth-slice
    coefficients, and compared against the full character sums.
    """
    modulus = chi.modulus
    field_ = modulus.field
    m_coeffs = np.zeros(k_max + 1, dtype=np.complex128)
    for k in range(k_max + 1):
        m_coeffs[k] = smooth_char_sum(chi, k, r).value
    n_coeffs = np.zeros(k_max + 1, dtype=np.complex128)
    n_coeffs[0] = 1.0
    if k_max > r:
        for level in irreducibles_up_to(field_, k_max)[r:]:
            for P in level:
                v = chi_eval(chi, P).to_complex()
                geom = np.zeros(k_max + 1, dtype=np.complex128)
                acc = 1.0 + 0j
                for j in range(0, k_max + 1, P.degree):
                    geom[j] = acc
                    acc *= v
                n_coeffs = np.convolve(n_coeffs, geom)[: k_max + 1]
    conv = np.convolve(m_coeffs, n_coeffs)[: k_max + 1]
    errors = []
    for k in range(k_max + 1):
        a = character_sum_Ad(chi, k).value
        errors.append(abs(conv[k] - a))
    return LMNReport(chi.label, r, k_max, errors)


def test_lmn_convolution_identity():
    m = Modulus.irreducible(F2, 5)
    for k in (0, 1, 7, 30):
        chi = character_by_index(m, k)
        rep = verify_l_equals_m_times_n(chi, r=2, k_max=6)
        assert rep.max_error < 1e-6


def test_lmn_first_nontrivial_coefficient():
    # k = r+1: A(r+1) = smooth part + sum over irreducibles of degree r+1
    m = Modulus.irreducible(F2, 5)
    r = 2
    for k_idx in (1, 11, 30):
        chi = character_by_index(m, k_idx)
        a = character_sum_Ad(chi, r + 1).value
        smooth_part = smooth_char_sum(chi, r + 1, r).value
        prime_part = prime_char_sum(chi, r + 1).value
        assert abs(a - (smooth_part + prime_part)) < 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(qs=(), ns=(5,), ds=(3,), rs=(2,)).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(qs=(2,), ns=(5,), ds=(3,), rs=(2,), char_policy="bogus").validate()


# -- columnar persistence -------------------------------------------------------


def test_persisted_norms_are_python_abs_of_raw_sums(tmp_path):
    res = run_main_theorem_grid(small_cfg(tmp_path))
    for rec in res.records:
        assert rec.lhs == abs(rec.a_sum - rec.s_sum)
        assert rec.short_norm == abs(rec.a_sum) / 2**rec.d
        assert rec.implied_constant == rec.lhs / rec.bound_core


@pytest.mark.parametrize("runner", [run_main_theorem_grid, run_corollary_grid])
def test_block_texts_match_per_record_oracle(tmp_path, runner):
    res = runner(small_cfg(tmp_path, ns=(5, 6)))
    assert res.blocks
    for block in res.blocks:
        assert joined(block.chunks()) == oracle_texts(block)
    csv_want = CSV_HEADER + "\n" + "".join(oracle_texts(b)[0] for b in res.blocks)
    assert (tmp_path / "grid.csv").read_text() == csv_want
    assert (tmp_path / "grid.jsonl").read_text() == "".join(oracle_texts(b)[1] for b in res.blocks)


@pytest.mark.parametrize(
    "bound_core, eps", [(3.0, 0.5), (math.inf, math.nan), (1e22, -0.0), (5e-324, math.inf)]
)
def test_block_texts_special_floats(bound_core, eps):
    vals = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e22, 0.1, 2.5, 0.0])
    a = np.empty(vals.size, dtype=np.complex128)
    a.real, a.imag = vals, vals[::-1]
    Q = "t^5+t^2+1"
    for corollary in (False, True):
        for flags in ("", "out_of_range"):
            block = ComboBlock(
                q=2,
                n=5,
                Q=Q,
                Q_json=json.dumps(Q),
                d=4,
                r=3,
                flags=flags,
                corollary=corollary,
                bound_core=bound_core,
                eps=eps,
                chi=np.arange(1, 10),
                a=a,
                s=np.conj(a[::-1]),
                lhs=vals,
                short=vals[::-1].copy(),
            )
            with np.errstate(all="ignore"):
                assert joined(block.chunks()) == oracle_texts(block)
                assert joined(block.chunks(csv=False)) == ("", oracle_texts(block)[1])
                assert joined(block.chunks(jsonl=False)) == (oracle_texts(block)[0], "")


def test_block_chunks_split_at_row_chunk_edges():
    R = experiments.ROW_CHUNK
    n = 2 * R + 1
    rng = np.random.default_rng(7373)
    vals = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 3, n)
    # values with repr's exponent form and non-finite values on both sides of each chunk edge
    specials = [math.nan, math.inf, -math.inf, 1e-5, -3e17, 5e-324]
    for j, edge in enumerate((0, R - 1, R, 2 * R - 1, 2 * R)):
        vals[edge] = specials[j % len(specials)]
        vals[(edge + 3) % n] = specials[(j + 3) % len(specials)]
    a = np.empty(n, dtype=np.complex128)
    a.real, a.imag = vals, vals[::-1]
    Q = "t^13+t^4+t^3+t+1"
    for corollary in (False, True):
        block = ComboBlock(
            q=2,
            n=13,
            Q=Q,
            Q_json=json.dumps(Q),
            d=10,
            r=4,
            flags="out_of_range" if corollary else "",
            corollary=corollary,
            bound_core=1e-5,
            eps=math.inf,
            chi=np.arange(1, n + 1),
            a=a,
            s=np.conj(a[::-1]),
            lhs=vals,
            short=vals[::-1].copy(),
        )
        with np.errstate(all="ignore"):
            chunks = list(block.chunks())
            want = oracle_texts(block)
        assert joined(chunks) == want
        assert [(c.count("\n"), j.count("\n")) for c, j in chunks] == [(R, R), (R, R), (1, 1)]
        assert all(c.endswith("\n") and j.endswith("\n") for c, j in chunks)


def check_float_texts(col: np.ndarray):
    """float_texts against the repr oracle, and its JSON spelling against json.dumps."""
    vals = col.tolist()
    texts, json_texts = experiments.float_texts(col)
    assert texts == list(map(repr, vals))
    assert json_texts == [json.dumps(x) for x in vals]


def test_float_texts_match_repr_on_bit_patterns_and_edges():
    bits = np.random.default_rng(20141224).integers(0, 2**64, size=2**18, dtype=np.uint64, endpoint=False)
    check_float_texts(bits.view(np.float64))
    # the +-50 neighbours of repr's layout switches and of 2^53
    edges = []
    for v in (1e-4, 1e-5, 1e15, 1e16, 2.0**53):
        for toward in (0.0, math.inf):
            x = v
            for _ in range(50):
                x = math.nextafter(x, toward)
                edges.append(x)
        edges.append(v)
    edges = np.array(edges)
    check_float_texts(np.concatenate([edges, -edges]))
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    check_float_texts(np.concatenate([powers, -powers]))
    vals = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e22, 0.1])
    a = np.empty(vals.size, dtype=np.complex128)
    a.real, a.imag = vals[::-1], vals
    assert not a.imag.flags.c_contiguous
    check_float_texts(a.imag)
    assert experiments.float_texts(np.array([])) == ([], [])


@pytest.mark.parametrize("cmd", ["main-thm", "corollary"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_matches_out_file(tmp_path, capsys, cmd, fmt):
    argv = [cmd, "--q", "2", "--n-list", "5,6", "--d", "3..5", "--r", "2..5", "--format", fmt]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "g.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    persisted = out if fmt == "csv" else tmp_path / "g.csv.jsonl"
    assert stdout == persisted.read_text()


def test_modulus_text_formatted_once_per_modulus(tmp_path, monkeypatch):
    calls = []
    real = Poly.__str__

    def counting_str(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Poly, "__str__", counting_str)
    # n > r throughout: Q is never in the smooth factor basis, whose non-unit
    # check would format it for its error message
    res = run_main_theorem_grid(small_cfg(tmp_path, ns=(6, 7)))
    assert res.n_records > 100
    assert len(calls) == 2


@pytest.mark.parametrize("policy", ["worst-case", "corollary"])
def test_selection_ranks_on_persisted_values(policy):
    cfg = small_cfg(None, qs=(3,), ns=(4,), ds=(2, 3, 4, 5), rs=(1, 2, 3))
    every = run_main_theorem_grid(cfg)
    if policy == "corollary":
        chosen = run_corollary_grid(cfg)
        column = "short"
    else:
        cfg.char_policy = "worst-case"
        chosen = run_main_theorem_grid(cfg)
        column = "lhs"
    assert len(chosen.blocks) == len(every.blocks)
    for pick, full in zip(chosen.blocks, every.blocks):
        values = getattr(full, column)
        # the chosen character is the first argmax of the persisted column
        assert pick.chi.tolist() == [full.chi[int(np.argmax(values))]]
        assert getattr(pick, column)[0] == values.max()


class _Killed(Exception):
    pass


def _run_killed_at(cfg, monkeypatch, writes: int, half: bool) -> list[str]:
    """Run the grid, dying before write number `writes` (after half of it if `half`).

    Returns the paths of the writes completed before the kill.
    """
    real = experiments._append
    done = []

    def append(path, text):
        if len(done) == writes:
            if half:
                real(path, text[: len(text) // 2])
            raise _Killed
        done.append(path)
        real(path, text)

    with monkeypatch.context() as mp:
        mp.setattr(experiments, "_append", append)
        with pytest.raises(_Killed):
            run_main_theorem_grid(cfg)
    return done


def _check_resume_after_kill_at_every_write_point(tmp_path, monkeypatch):
    full_dir = tmp_path / "full"
    full_dir.mkdir()
    writes = []
    real = experiments._append
    with monkeypatch.context() as mp:
        mp.setattr(experiments, "_append", lambda path, text: (writes.append(path), real(path, text)))
        run_main_theorem_grid(small_cfg(full_dir))
    want = {name: (full_dir / name).read_bytes() for name in ("grid.csv", "grid.jsonl", "grid.ckpt")}
    for kill in range(len(writes)):
        for half in (False, True):
            run_dir = tmp_path / f"kill{kill}{'h' if half else ''}"
            run_dir.mkdir()
            done = _run_killed_at(small_cfg(run_dir), monkeypatch, kill, half)
            resumed = run_main_theorem_grid(small_cfg(run_dir, resume=True))
            # the combos resumed are those whose checkpoint key was written in full
            assert len(resumed.resumed) == done.count(str(run_dir / "grid.ckpt"))
            for name, data in want.items():
                assert (run_dir / name).read_bytes() == data, (kill, half, name)
    return writes


def test_resume_after_kill_at_every_write_point(tmp_path, monkeypatch):
    writes = _check_resume_after_kill_at_every_write_point(tmp_path, monkeypatch)
    # 30 rows per combo fit one chunk: a CSV write, a JSONL write, the key
    assert len(writes) == 3 * writes.count(str(tmp_path / "full" / "grid.ckpt"))


def test_resume_after_kill_between_chunks_of_a_combo(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "ROW_CHUNK", 7)
    writes = _check_resume_after_kill_at_every_write_point(tmp_path, monkeypatch)
    # 30 rows per combo: five chunks of at most 7 rows to each file, then the key
    assert len(writes) == 11 * writes.count(str(tmp_path / "full" / "grid.ckpt"))


def test_resume_cuts_rows_of_unfinished_combo(tmp_path, monkeypatch):
    # killed after the second combo's CSV and JSONL blocks, before its key
    _run_killed_at(small_cfg(tmp_path), monkeypatch, writes=5, half=False)
    csv_lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 2 * 30  # 30 non-principal characters mod a degree-5 Q
    experiments._Sink(small_cfg(tmp_path, resume=True))
    assert (tmp_path / "grid.ckpt").read_text() == "q=2;n=5;d=3;r=2\n"
    assert (tmp_path / "grid.csv").read_text().splitlines() == csv_lines[: 1 + 30]
    assert len((tmp_path / "grid.jsonl").read_text().splitlines()) == 30
