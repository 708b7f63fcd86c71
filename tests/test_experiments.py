import io
import json
import math
import re
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from ffchar import experiments
from ffchar.algebra import Field, Poly, irreducibles_up_to
from ffchar.cli import main
from ffchar.experiments import (
    CSV_HEADER,
    ComboBlock,
    ExperimentConfig,
    run_corollary_grid,
    run_main_theorem_grid,
)
from ffchar.residue import Modulus
from ffchar.smooth import in_theorem_range, smooth_count
from grid_rows import jsonl_records
from phase_oracle import character_by_index, character_sum_Ad, chi_eval, prime_char_sum, smooth_char_sum

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


def block_records(block) -> list[SimpleNamespace]:
    """The block's rows one record at a time, each field a Python value."""
    return [
        SimpleNamespace(
            q=block.q,
            n=block.n,
            Q=block.Q,
            chi=f"chi[{k}]",
            d=block.d,
            r=block.r,
            lhs=x,
            bound_core=block.bound_core,
            implied_constant=i,
            short_norm=s,
            eps=block.eps,
            flags=block.flags,
            a_sum=a,
            s_sum=sm,
        )
        for k, x, i, s, a, sm in zip(
            block.chi.tolist(),
            block.lhs.tolist(),
            block.implied.tolist(),
            block.short.tolist(),
            block.a.tolist(),
            block.s.tolist(),
        )
    ]


def oracle_texts(block) -> tuple[str, str]:
    recs = block_records(block)
    return "".join(csv_row(r) + "\n" for r in recs), "".join(json_line(r) + "\n" for r in recs)


def run_blocks(runner, cfg, monkeypatch) -> list[ComboBlock]:
    """Run the grid and return the blocks it wrote, in order."""
    blocks = []
    real = experiments._Sink.write_combo

    def keep(sink, key, block):
        blocks.append(block)
        real(sink, key, block)

    with monkeypatch.context() as mp:
        mp.setattr(experiments._Sink, "write_combo", keep)
        runner(cfg)
    return blocks


def written_records(tmp_path) -> list[SimpleNamespace]:
    """The records of the run whose files small_cfg(tmp_path) named."""
    return jsonl_records((tmp_path / "grid.csv.jsonl").read_text())


def joined(chunks) -> tuple[str, str]:
    """The whole CSV and JSONL texts of (csv, jsonl) chunk pairs."""
    pairs = list(chunks)
    return "".join(c for c, _ in pairs), "".join(j for _, j in pairs)


GRID_FILES = ("grid.csv", "grid.csv.jsonl", "grid.csv.ckpt")


def small_cfg(tmp_path=None, **kw):
    base = dict(
        q=2,
        ns=(5,),
        ds=(3, 4, 5),
        rs=(2, 3, 4, 5),
        char_policy="all",
        workers=1,
    )
    if tmp_path is not None:
        base.update(out=str(tmp_path / "grid.csv"))
    base.update(kw)
    return ExperimentConfig(**base)


def test_diagonal_lhs_exactly_zero(tmp_path):
    run_main_theorem_grid(small_cfg(tmp_path))
    diag = [rec for rec in written_records(tmp_path) if rec.r == rec.d]
    assert diag
    for rec in diag:
        assert rec.lhs == 0.0


def test_records_match_single_character_paths(tmp_path):
    run_main_theorem_grid(small_cfg(tmp_path))
    m = Modulus.irreducible(F2, 5)
    for rec in written_records(tmp_path)[:40]:
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
    assert len(lines) == 1 + res.n_records
    jrecs = [json.loads(ln) for ln in (tmp_path / "grid.csv.jsonl").read_text().splitlines()]
    assert len(jrecs) == res.n_records
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
    assert (full_dir / "grid.csv.jsonl").read_bytes() == (part_dir / "grid.csv.jsonl").read_bytes()


def test_worker_count_does_not_change_bytes(tmp_path):
    d1 = tmp_path / "w1"
    d8 = tmp_path / "w8"
    d1.mkdir()
    d8.mkdir()
    run_main_theorem_grid(small_cfg(d1, workers=1))
    run_main_theorem_grid(small_cfg(d8, workers=8))
    assert (d1 / "grid.csv").read_bytes() == (d8 / "grid.csv").read_bytes()
    assert (d1 / "grid.csv.jsonl").read_bytes() == (d8 / "grid.csv.jsonl").read_bytes()


def test_budget_skips_with_notice(tmp_path, capsys):
    cfg = small_cfg(tmp_path, budget=10)
    res = run_main_theorem_grid(cfg)
    # every combo enumerates more than 10 polynomials but two: d = r = 3 enumerates
    # only A_3 (8 polynomials), and d = r = n = 5 takes the closed-form histogram
    runs = [(3, 3), (5, 5)]
    want = [f"q=2;n=5;d={d};r={r}" for d in (3, 4, 5) for r in (2, 3, 4, 5) if r <= d and (d, r) not in runs]
    assert res.skipped == [(key, "budget") for key in want]
    assert res.n_records == 2 * 30
    rows = (tmp_path / "grid.csv").read_text().splitlines()
    assert rows[0] == CSV_HEADER and len(rows) == 1 + 2 * 30
    assert [row.split(",")[4:6] for row in rows[1::30]] == [["3", "3"], ["5", "5"]]
    assert "exceeds budget" in capsys.readouterr().err


def test_out_of_range_flagging(tmp_path):
    cfg = small_cfg(tmp_path, ds=(4,), rs=(2, 4))
    res = run_main_theorem_grid(cfg)
    # 2 log_2(5) = 4.64: r = 2 and even r = d = 4 are below it
    assert res.n_records == 2 * 30
    assert all(rec.flags == "out_of_range" for rec in written_records(tmp_path))
    cfg2 = small_cfg(tmp_path, ds=(4,), rs=(2, 4), allow_out_of_range=False, resume=False)
    res2 = run_main_theorem_grid(cfg2)
    assert res2.n_records == 0
    assert written_records(tmp_path) == []
    assert all(reason == "out_of_range" for _, reason in res2.skipped)


def test_sample_policy_deterministic(tmp_path):
    def streamed_chis(seed):
        out = io.StringIO()
        run_main_theorem_grid(small_cfg(None, char_policy="sample-k", sample_k=5, seed=seed, out=out, jsonl=True))
        return [r.chi for r in jsonl_records(out.getvalue())]

    run_main_theorem_grid(small_cfg(tmp_path, char_policy="sample-k", sample_k=5, seed=42))
    a = [r.chi for r in written_records(tmp_path)]
    assert a == streamed_chis(42)
    assert a != streamed_chis(7)


def test_worst_case_policy_single_record_per_combo(tmp_path):
    res = run_main_theorem_grid(small_cfg(tmp_path, char_policy="worst-case"))
    records = written_records(tmp_path)
    keys = {(r.d, r.r) for r in records}
    assert len(records) == len(keys) == res.n_records


def test_policy_all_blocks_view_read_only_sums(monkeypatch):
    """Under "all" a block's columns are views [1:] of its degree's arrays, and none of them can be written."""
    blocks = run_blocks(run_main_theorem_grid, small_cfg(None, ns=(7,), ds=(4, 5, 6), rs=(2, 3, 4, 5, 6)), monkeypatch)
    assert len(blocks) == 12
    for block in blocks:
        assert block.chi.tolist() == list(range(1, 2**7 - 1))
        for name in ("a", "s", "lhs", "short"):
            col = getattr(block, name)
            assert col.base is not None and not col.flags.writeable
            with pytest.raises(ValueError):
                col[0] = 0
            # nor can the guard be switched back off through the view
            with pytest.raises(ValueError):
                col.flags.writeable = True
        # at r = d the smooth sums are A(d, chi) itself: one view for both
        assert (block.s is block.a) == (block.r == block.d)


def test_sample_policy_blocks_gather_their_own_rows(monkeypatch):
    cfg = small_cfg(None, ns=(7,), ds=(4, 5), rs=(2, 3, 4, 5), char_policy="sample-k", sample_k=5)
    blocks = run_blocks(run_main_theorem_grid, cfg, monkeypatch)
    every = run_blocks(run_main_theorem_grid, small_cfg(None, ns=(7,), ds=(4, 5), rs=(2, 3, 4, 5)), monkeypatch)
    assert len(blocks) == len(every) == 7
    for block, full in zip(blocks, every):
        assert len(block) == 5
        for name in ("a", "s", "lhs", "short"):
            col = getattr(block, name)
            assert col.base is None and col.flags.owndata
            assert np.array_equal(col, getattr(full, name)[block.chi - 1])


def test_corollary_grid(tmp_path):
    cfg = small_cfg(tmp_path, ds=(4, 5, 6, 7), rs=(3, 4, 5))
    run_corollary_grid(cfg)
    m = Modulus.irreducible(F2, 5)
    for rec in written_records(tmp_path):
        # per combo: the exact max over all characters
        best = max(
            abs(character_sum_Ad(character_by_index(m, k), rec.d).value)
            for k in range(1, 31)
        )
        assert abs(rec.short_norm - best / 2**rec.d) < 1e-9
        if rec.d >= 5:  # d >= n: short sums vanish
            assert rec.short_norm < 1e-9


def test_corollary_flags_a_combo_whose_worst_short_norm_exceeds_eps(tmp_path, monkeypatch):
    # the paper's eps stays above every short norm of a grid this small, so a smaller one stands in
    monkeypatch.setattr(experiments, "epsilon_bound", lambda q, d, r, n: SimpleNamespace(value=0.2))
    run_corollary_grid(small_cfg(tmp_path, q=3, ds=(2, 3, 4, 5, 6), rs=(2, 3, 4, 5)))
    records = written_records(tmp_path)
    for rec in records:
        want = [] if in_theorem_range(3, rec.d, rec.r, 5) else ["out_of_range"]
        want += ["exceeds_eps"] if rec.short_norm > rec.eps else []
        assert rec.flags == ";".join(want) and rec.eps == 0.2
    assert {rec.flags for rec in records} == {"", "exceeds_eps", "out_of_range", "out_of_range;exceeds_eps"}


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
        ExperimentConfig(q=2, ns=(), ds=(3,), rs=(2,)).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(q=2, ns=(5,), ds=(3,), rs=(2,), char_policy="bogus").validate()
    for k in (0, -1):
        with pytest.raises(ValueError, match="--sample-k"):
            ExperimentConfig(q=2, ns=(5,), ds=(3,), rs=(2,), char_policy="sample-k", sample_k=k).validate()
    # d = 0 runs, as in smooth-count
    ExperimentConfig(q=2, ns=(5,), ds=(0, 3), rs=(2,)).validate()
    with pytest.raises(ValueError, match="^d must be >= 0, got -1$"):
        ExperimentConfig(q=2, ns=(5,), ds=(3, -1), rs=(2,)).validate()


# -- columnar persistence -------------------------------------------------------


def test_persisted_norms_are_python_abs_of_raw_sums(tmp_path):
    run_main_theorem_grid(small_cfg(tmp_path))
    for rec in written_records(tmp_path):
        assert rec.lhs == abs(rec.a_sum - rec.s_sum)
        assert rec.short_norm == abs(rec.a_sum) / 2**rec.d
        assert rec.implied_constant == rec.lhs / rec.bound_core


@pytest.mark.parametrize("runner", [run_main_theorem_grid, run_corollary_grid])
def test_block_texts_match_per_record_oracle(tmp_path, monkeypatch, runner):
    blocks = run_blocks(runner, small_cfg(tmp_path, ns=(5, 6)), monkeypatch)
    assert blocks
    for block in blocks:
        assert joined(block.chunks()) == oracle_texts(block)
    csv_want = CSV_HEADER + "\n" + "".join(oracle_texts(b)[0] for b in blocks)
    assert (tmp_path / "grid.csv").read_text() == csv_want
    assert (tmp_path / "grid.csv.jsonl").read_text() == "".join(oracle_texts(b)[1] for b in blocks)


@pytest.mark.parametrize(
    "bound_core, eps", [(3.0, 0.5), (math.inf, math.nan), (1e22, -0.0), (5e-324, math.inf)]
)
def test_block_texts_special_floats(bound_core, eps):
    # the grid writes finite columns only (dual_group_sums refuses non-finite sums)
    vals = np.array([1e-5, -3e17, -1e16, -0.0, 5e-324, 1e22, 0.1, 2.5, 0.0])
    a = np.empty(vals.size, dtype=np.complex128)
    a.real, a.imag = vals, vals[::-1]
    Q = "t^5+t^2+1"
    for flags in ("", "out_of_range", "exceeds_eps", "out_of_range;exceeds_eps"):
        block = ComboBlock(
            q=2,
            n=5,
            Q=Q,
            Q_json=json.dumps(Q),
            d=4,
            r=3,
            flags=flags,
            bound_core=bound_core,
            eps=eps,
            chi=np.arange(1, 10),
            a=a,
            s=np.conj(a[::-1]),
            lhs=vals,
            short=vals[::-1].copy(),
        )
        with np.errstate(all="ignore"):
            csv, jsonl = oracle_texts(block)
            assert joined(block.chunks(jsonl=False)) == (csv, "")
            # a bound_core of 5e-324 overflows the implied constants, which JSON cannot spell as repr
            if np.isfinite(block.implied).all():
                assert joined(block.chunks()) == (csv, jsonl)
                assert joined(block.chunks(csv=False)) == ("", jsonl)


def test_block_chunks_split_at_row_chunk_edges():
    R = experiments.ROW_CHUNK
    n = 2 * R + 1
    rng = np.random.default_rng(7373)
    vals = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 3, n)
    # values with repr's exponent form and signed zeros on both sides of each chunk edge
    specials = [-0.0, 1e16, -9e-5, 1e-5, -3e17, 5e-324]
    for j, edge in enumerate((0, R - 1, R, 2 * R - 1, 2 * R)):
        vals[edge] = specials[j % len(specials)]
        vals[(edge + 3) % n] = specials[(j + 3) % len(specials)]
    a = np.empty(n, dtype=np.complex128)
    a.real, a.imag = vals, vals[::-1]
    Q = "t^13+t^4+t^3+t+1"
    for flags in ("", "out_of_range;exceeds_eps"):
        block = ComboBlock(
            q=2,
            n=13,
            Q=Q,
            Q_json=json.dumps(Q),
            d=10,
            r=4,
            flags=flags,
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


def vals_block(vals: np.ndarray, chi: np.ndarray, flags: str = "") -> ComboBlock:
    """A block whose float columns are all drawn from vals."""
    a = np.empty(vals.size, dtype=np.complex128)
    a.real, a.imag = vals, vals[::-1]
    Q = "t^13+t^4+t^3+t+1"
    return ComboBlock(
        q=2, n=13, Q=Q, Q_json=json.dumps(Q), d=10, r=4, flags=flags, bound_core=3.5, eps=0.25,
        chi=chi, a=a, s=np.conj(a[::-1]), lhs=vals, short=vals[::-1].copy(),
    )


def test_text_memo_keys_int_and_float_columns_apart():
    ints = np.arange(1, 9, dtype=np.int64)
    floats = ints.view(np.float64)  # the same bytes: subnormals 5e-324, 1e-323, ...
    memo = experiments._TextMemo()
    int_texts, float_texts = [str(k) for k in range(1, 9)], [repr(x) for x in floats.tolist()]
    # within one block, and in the next block with the two columns in turn
    assert memo(ints, floats) == [int_texts, float_texts]
    assert memo(floats, ints) == [float_texts, int_texts]
    # blocks in turn whose chi column has the bytes of the other block's float columns
    n = 40
    chi = np.arange(1, n + 1, dtype=np.int64)
    for block in (vals_block(chi.view(np.float64), chi), vals_block(chi.view(np.float64).copy(), chi + 0)) * 2:
        assert joined(block.chunks(memo=memo)) == oracle_texts(block)


def sums_block(a: np.ndarray, s: np.ndarray, chi: np.ndarray, d: int = 10) -> ComboBlock:
    """A block of raw sums a and s, with lhs and short derived from them as the grid derives them."""
    Q = "t^13+t^4+t^3+t+1"
    diff = a - s
    return ComboBlock(
        q=2, n=13, Q=Q, Q_json=json.dumps(Q), d=d, r=4, flags="", bound_core=3.5, eps=0.25,
        chi=chi, a=a, s=s, lhs=np.hypot(diff.real, diff.imag), short=np.hypot(a.real, a.imag) / 2.0**d,
    )


def record_float_texts(monkeypatch) -> list[int]:
    """The length of the column of every float_texts call from now on, in call order."""
    sizes = []
    real = experiments.float_texts

    def recorded(col):
        sizes.append(len(col))
        return real(col)

    monkeypatch.setattr(experiments, "float_texts", recorded)
    return sizes


def memo_keys(*cols: np.ndarray) -> set:
    return {(col.dtype.str, col.tobytes()) for col in cols}


def test_text_memo_holds_only_the_repeatable_columns_of_the_last_block():
    """chi, short and a live across blocks; lhs, implied and s never enter the memo."""
    R = experiments.ROW_CHUNK
    n = R + 9
    rng = np.random.default_rng(2014)
    chi = np.arange(1, n + 1, dtype=np.int64)

    def sums():
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    a1 = sums()
    # the same d for two r (a repeats, s differs), then a new d (every float column differs)
    blocks = [sums_block(a1, sums(), chi), sums_block(a1.copy(), sums(), chi), sums_block(sums(), sums(), chi, d=9)]
    memo = experiments._TextMemo()
    kept = []
    for block in blocks:
        assert joined(block.chunks(memo=memo)) == oracle_texts(block)
        assert set(memo.texts) == memo_keys(block.chi, block.short, block.a.imag, block.a.real)
        own = memo_keys(block.lhs, block.implied, block.s.imag, block.s.real)
        assert not own & set(memo.texts)
        kept.append(memo.texts)
    # the second block reused the first one's texts; the third holds nothing of the second
    assert all(kept[1][key] is kept[0][key] for key in kept[0])
    earlier = set().union(
        *(memo_keys(b.chi, b.short, b.a.imag, b.a.real, b.lhs, b.implied, b.s.imag, b.s.real) for b in blocks[:2])
    )
    assert set(kept[2]) & earlier == memo_keys(chi)


def test_equal_but_distinct_sums_write_what_the_same_sums_write(monkeypatch):
    """Only an s that is a takes a's texts; an s equal to a, by bytes or by value only, formats its own."""
    vals = np.array([0.0, -0.0, 1.5, 0.0, -2.25, 1e-7, 0.0])
    a = np.empty(vals.size, dtype=np.complex128)
    a.real, a.imag = vals, vals[::-1]
    s = a.copy()
    s.real[vals == 0] = -s.real[vals == 0]  # 0.0 <-> -0.0: the same values, other bytes
    s.imag[vals[::-1] == 0] = -s.imag[vals[::-1] == 0]
    assert np.array_equal(s, a) and s.tobytes() != a.tobytes()
    chi = np.arange(1, vals.size + 1)
    own_columns = []
    sizes = record_float_texts(monkeypatch)
    memo = experiments._TextMemo()
    for block in (sums_block(a, a.copy(), chi), sums_block(a, s, chi), sums_block(a, a, chi), sums_block(a, s, chi)):
        for block_memo in (memo, None):
            sizes.clear()
            assert joined(block.chunks(memo=block_memo)) == oracle_texts(block)
            # one chunk: its float_texts call comes after the memo's, and holds each of its columns once
            own_columns.append(sizes[-1] // len(block))
    # lhs and implied per chunk, plus s.imag and s.real where s is not a itself
    assert own_columns == [4, 4, 4, 4, 2, 2, 4, 4]
    # a copy of a writes a's bytes; 0.0 and -0.0 write apart
    assert joined(sums_block(a, a.copy(), chi).chunks()) == joined(sums_block(a, a, chi).chunks())
    assert '"s_re": -0.0' in oracle_texts(sums_block(a, s, chi))[1]


def test_short_block_after_full_blocks_matches_oracle():
    """Blocks of ROW_CHUNK rows, of fewer, and of a full chunk plus a short one, through one memo."""
    R = experiments.ROW_CHUNK
    rng = np.random.default_rng(1412)
    memo = experiments._TextMemo()
    for n in (R, R, R - 1, 2 * R + 5, 3, 3, R + 1, 1):
        vals = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 6, n)
        for flags in ("", "exceeds_eps", "out_of_range"):
            block = vals_block(vals, np.arange(1, n + 1, dtype=np.int64), flags)
            chunks = list(block.chunks(memo=memo))
            assert joined(chunks) == oracle_texts(block)
            rows = [min(R, n - lo) for lo in range(0, n, R)]
            assert [(c.count("\n"), j.count("\n")) for c, j in chunks] == [(m, m) for m in rows]


def test_row_chunks_layout():
    R = experiments.ROW_CHUNK
    n = R + 2
    texts = [str(i) for i in range(n)]
    chunks = list(experiments.row_chunks([("<", "", texts, "|", "-", texts, ">\n")], n))
    assert chunks == [("".join(f"<{i}|-{i}>\n" for i in range(lo, min(lo + R, n))),) for lo in (0, R)]
    assert list(experiments.row_chunks([(), ("x",)], n)) == [("", "x" * R), ("", "xx")]
    assert list(experiments.row_chunks([("x\n",)], 0)) == []


def test_row_chunks_format_a_float_array_that_two_layouts_hold_once_per_chunk(monkeypatch):
    R = experiments.ROW_CHUNK
    n = R + 3
    rng = np.random.default_rng(7)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 17, n)
    y = rng.standard_normal(n)
    labels = np.array([f"c{i}" for i in range(n)], dtype=object)
    sizes = record_float_texts(monkeypatch)
    chunks = list(experiments.row_chunks([(labels, ",", x, ",", y, "\n"), ("[", x, "]\n")], n))
    xs, ys = list(map(repr, x.tolist())), list(map(repr, y.tolist()))
    want = [
        ("".join(f"c{i},{xs[i]},{ys[i]}\n" for i in rows), "".join(f"[{xs[i]}]\n" for i in rows))
        for rows in (range(R), range(R, n))
    ]
    assert chunks == want
    # one call per chunk, x in it once though both layouts hold it; the object array is sliced, not formatted
    assert sizes == [2 * R, 2 * 3]


def test_grid_block_float_texts_calls(monkeypatch):
    """short, a.imag and a.real through the memo, then one call per chunk: lhs, implied and, off the diagonal, s."""
    R = experiments.ROW_CHUNK
    n = 2 * R + 5
    rng = np.random.default_rng(33)
    a, s = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
    chi = np.arange(1, n + 1, dtype=np.int64)
    sizes = record_float_texts(monkeypatch)
    cases = [
        (sums_block(a, s, chi), {}, [n, n, n, 4 * R, 4 * R, 4 * 5]),
        (sums_block(a, a, chi), {}, [n, n, n, 2 * R, 2 * R, 2 * 5]),
        (sums_block(a, s, chi), {"jsonl": False}, [n, 2 * R, 2 * R, 2 * 5]),
        (sums_block(a, s, chi), {"csv": False}, [n, n, n, 4 * R, 4 * R, 4 * 5]),
    ]
    for block, formats, want in cases:
        sizes.clear()
        list(block.chunks(**formats))
        assert sizes == want, formats


def check_float_texts(col: np.ndarray):
    """float_texts against the repr oracle."""
    assert experiments.float_texts(col) == list(map(repr, col.tolist()))


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
    assert experiments.float_texts(np.array([])) == []


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
def test_selection_ranks_on_persisted_values(monkeypatch, policy):
    cfg = small_cfg(None, q=3, ns=(4,), ds=(2, 3, 4, 5), rs=(1, 2, 3))
    every = run_blocks(run_main_theorem_grid, cfg, monkeypatch)
    if policy == "corollary":
        chosen = run_blocks(run_corollary_grid, cfg, monkeypatch)
        column = "short"
    else:
        cfg.char_policy = "worst-case"
        chosen = run_blocks(run_main_theorem_grid, cfg, monkeypatch)
        column = "lhs"
    assert len(chosen) == len(every)
    for pick, full in zip(chosen, every):
        values = getattr(full, column)
        # the chosen character is the first argmax of the persisted column
        assert pick.chi.tolist() == [full.chi[int(np.argmax(values))]]
        assert getattr(pick, column)[0] == values.max()


class _Killed(Exception):
    pass


def _log_write_points(monkeypatch) -> list[str]:
    """The output of every write point from now on, in order."""
    writes = []
    real = experiments._Sink.append
    monkeypatch.setattr(experiments._Sink, "append", lambda sink, out, text: (writes.append(out), real(sink, out, text)))
    return writes


def _run_killed_at(cfg, monkeypatch, writes: int, half: bool) -> list[str]:
    """Run the grid, dying before write point number `writes` (after half of it if `half`).

    Returns the paths of the writes completed before the kill.
    """
    real = experiments._Sink.append
    done = []

    def append(sink, path, text):
        if len(done) == writes:
            if half:
                real(sink, path, text[: len(text) // 2])
            raise _Killed
        done.append(path)
        real(sink, path, text)

    with monkeypatch.context() as mp:
        mp.setattr(experiments._Sink, "append", append)
        with pytest.raises(_Killed):
            run_main_theorem_grid(cfg)
    return done


def _check_resume_after_kill_at_every_write_point(tmp_path, monkeypatch):
    full_dir = tmp_path / "full"
    full_dir.mkdir()
    with monkeypatch.context() as mp:
        writes = _log_write_points(mp)
        run_main_theorem_grid(small_cfg(full_dir))
    want = {name: (full_dir / name).read_bytes() for name in GRID_FILES}
    for kill in range(len(writes)):
        for half in (False, True):
            run_dir = tmp_path / f"kill{kill}{'h' if half else ''}"
            run_dir.mkdir()
            done = _run_killed_at(small_cfg(run_dir), monkeypatch, kill, half)
            with monkeypatch.context() as mp:
                _refuse_json_loads(mp)
                resumed = run_main_theorem_grid(small_cfg(run_dir, resume=True))
            # the combos resumed are those whose checkpoint key was written in full
            assert len(resumed.resumed) == done.count(str(run_dir / "grid.csv.ckpt"))
            for name, data in want.items():
                assert (run_dir / name).read_bytes() == data, (kill, half, name)
    return writes


def test_resume_after_kill_at_every_write_point(tmp_path, monkeypatch):
    writes = _check_resume_after_kill_at_every_write_point(tmp_path, monkeypatch)
    # the header, then per combo (30 rows fit one chunk) a CSV write, a JSONL write, the key
    assert writes[0] == str(tmp_path / "full" / "grid.csv")
    assert len(writes) == 1 + 3 * writes.count(str(tmp_path / "full" / "grid.csv.ckpt"))


def test_resume_after_kill_between_chunks_of_a_combo(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "ROW_CHUNK", 7)
    writes = _check_resume_after_kill_at_every_write_point(tmp_path, monkeypatch)
    # the header, then per combo of 30 rows five chunks of at most 7 rows to each file, then the key
    assert len(writes) == 1 + 11 * writes.count(str(tmp_path / "full" / "grid.csv.ckpt"))


def test_resume_cuts_rows_of_unfinished_combo(tmp_path, monkeypatch):
    # killed after the header and the second combo's CSV and JSONL blocks, before its key
    _run_killed_at(small_cfg(tmp_path), monkeypatch, writes=6, half=False)
    csv_lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 2 * 30  # 30 non-principal characters mod a degree-5 Q
    experiments._Sink(small_cfg(tmp_path, resume=True))
    assert (tmp_path / "grid.csv.ckpt").read_text() == "q=2;n=5;d=3;r=2\n"
    assert (tmp_path / "grid.csv").read_text().splitlines() == csv_lines[: 1 + 30]
    assert len((tmp_path / "grid.csv.jsonl").read_text().splitlines()) == 30


def _count_opens(monkeypatch) -> list:
    """Every file object `ffchar.experiments` opens from now on, in order."""
    opened = []

    def counting_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(experiments, "open", counting_open, raising=False)
    return opened


def _track_sinks(monkeypatch) -> list:
    """Every sink the grid enters from now on, in order."""
    sinks = []
    real = experiments._Sink.__enter__

    def enter(sink):
        sinks.append(sink)
        return real(sink)

    monkeypatch.setattr(experiments._Sink, "__enter__", enter)
    return sinks


@pytest.mark.parametrize("row_chunk", [7, 512])
def test_grid_opens_each_output_once_however_many_chunks(tmp_path, monkeypatch, row_chunk):
    monkeypatch.setattr(experiments, "ROW_CHUNK", row_chunk)
    writes = _log_write_points(monkeypatch)
    opened = _count_opens(monkeypatch)
    sinks = _track_sinks(monkeypatch)
    out = tmp_path / "grid.csv"
    argv = ["main-thm", "--q", "2", "--n-list", "7", "--d", "4..6", "--r", "2..6", "--format", "csv"]
    assert main(argv + ["--out", str(out)]) == 0
    # the header, then 12 combos of 126 rows: per combo one write per chunk to each file, then the key
    assert len(writes) == 1 + 12 * (2 * math.ceil(126 / row_chunk) + 1)
    assert sorted(fh.name for fh in opened) == [str(out), f"{out}.ckpt", f"{out}.jsonl"]
    assert all(fh.closed for fh in opened) and len(sinks) == 1 and sinks[0].handles == {}


def test_no_handle_stays_open_after_a_run_a_kill_or_a_cut(tmp_path, monkeypatch):
    opened = _count_opens(monkeypatch)
    sinks = _track_sinks(monkeypatch)
    run_main_theorem_grid(small_cfg(tmp_path))
    assert len(opened) == 3 and all(fh.closed for fh in opened) and sinks[-1].handles == {}
    opened.clear()
    # killed half way through the second combo's JSONL write, its handle still open
    _run_killed_at(small_cfg(tmp_path), monkeypatch, writes=5, half=True)
    assert len(opened) == 3 and all(fh.closed for fh in opened) and sinks[-1].handles == {}
    opened.clear()
    # a sink built only to cut opens, cuts and closes each file, and keeps none open
    sink = experiments._Sink(small_cfg(tmp_path, resume=True))
    assert opened and all(fh.closed for fh in opened) and sink.handles == {}
    assert (tmp_path / "grid.csv.ckpt").read_text() == "q=2;n=5;d=3;r=2\n"


class _CountingStream(io.StringIO):
    """A text stream that counts its flushes."""

    flushes = 0

    def flush(self):
        self.flushes += 1
        super().flush()


@pytest.mark.parametrize("jsonl", [False, True])
def test_stream_output_gets_one_table_of_the_path_write_points_and_is_never_closed(tmp_path, monkeypatch, jsonl):
    monkeypatch.setattr(experiments, "ROW_CHUNK", 7)
    texts = {}
    real = experiments._Sink.append

    def logged(sink, out, text):
        texts.setdefault(out if isinstance(out, str) else "stream", []).append(text)
        real(sink, out, text)

    monkeypatch.setattr(experiments._Sink, "append", logged)
    sinks = _track_sinks(monkeypatch)
    # a path writes its three files whatever jsonl says
    files = tmp_path / "files"
    files.mkdir()
    run_main_theorem_grid(small_cfg(files))
    run_main_theorem_grid(small_cfg(tmp_path, jsonl=True))
    for name in GRID_FILES:
        assert (tmp_path / name).read_bytes() == (files / name).read_bytes()
    table = files / GRID_FILES[int(jsonl)]
    stream = _CountingStream()
    texts.pop("stream", None)
    run_main_theorem_grid(small_cfg(None, out=stream, jsonl=jsonl))
    # the table's write points, the CSV header among them (the mirror has none), each flushed as it is written
    assert texts["stream"] == texts[str(table)] and len(texts["stream"]) > 2
    assert texts["stream"][0].startswith(CSV_HEADER if not jsonl else '{"Q": ')
    assert stream.getvalue() == table.read_text()
    assert stream.flushes == len(texts["stream"])
    assert not stream.closed and sinks[-1].handles == {}
    # a run killed part way leaves the stream open
    stream = _CountingStream()
    _run_killed_at(small_cfg(None, out=stream, jsonl=jsonl), monkeypatch, writes=2, half=True)
    assert not stream.closed and stream.getvalue() and sinks[-1].handles == {}


def _refuse_json_loads(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called")

    monkeypatch.setattr(json, "loads", refuse)


def test_resuming_a_finished_grid_changes_no_byte_and_parses_no_json(tmp_path, monkeypatch):
    run_main_theorem_grid(small_cfg(tmp_path))
    want = {name: (tmp_path / name).read_bytes() for name in GRID_FILES}
    _refuse_json_loads(monkeypatch)
    res = run_main_theorem_grid(small_cfg(tmp_path, resume=True))
    assert res.n_records == 0 and len(res.resumed) == 9
    for name, data in want.items():
        assert (tmp_path / name).read_bytes() == data, name


@pytest.mark.parametrize("fault", ["no csv", "no mirror", "short mirror"])
def test_resume_refuses_files_short_of_the_checkpointed_rows_and_changes_none(tmp_path, monkeypatch, capsys, fault):
    # killed half way through the second combo's key: each file has rows or a key the cut would drop
    _run_killed_at(small_cfg(tmp_path), monkeypatch, writes=6, half=True)
    csv, mirror, _ = (tmp_path / name for name in GRID_FILES)
    if fault == "short mirror":
        # 29 complete lines and a torn one, where the first combo's 30 rows are checkpointed
        lines = mirror.read_bytes().splitlines(keepends=True)
        mirror.write_bytes(b"".join(lines[:29]) + lines[29][:10])
    else:
        (csv if fault == "no csv" else mirror).unlink()
    bad = csv if fault == "no csv" else mirror
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(ValueError, match=f"cannot resume: {bad}"):
        run_main_theorem_grid(small_cfg(tmp_path, resume=True))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    argv = f"main-thm --q 2 --n-list 5 --d 3..5 --r 2..5 --format csv --out {csv} --resume".split()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot resume: {bad}")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_resume_refuses_a_csv_that_lost_a_checkpointed_combo_and_changes_none(tmp_path, capsys):
    csv = tmp_path / "grid.csv"
    assert main(f"main-thm --q 2 --n-list 5 --d 3 --r 2..3 --format csv --out {csv}".split()) == 0
    # the header and the first combo's 30 rows: the rows of d = 3, r = 3 are gone, its key is not
    csv.write_bytes(b"".join(csv.read_bytes().splitlines(keepends=True)[:31]))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    refusal = f"cannot resume: {csv} holds no row of the checkpointed combo q=2;n=5;d=3;r=3"
    with pytest.raises(ValueError, match=re.escape(refusal)):
        run_main_theorem_grid(small_cfg(tmp_path, ds=(3, 4), rs=(2, 3, 4), resume=True))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    capsys.readouterr()
    assert main(f"main-thm --q 2 --n-list 5 --d 3..4 --r 2..4 --format csv --out {csv} --resume".split()) == 2
    assert capsys.readouterr().err.startswith(f"error: {refusal}")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_resume_keeps_the_combos_of_a_trivial_unit_group_which_write_no_row(tmp_path):
    # mod t over F_2 the unit group has order 1: its combos are checkpointed without a row
    run_main_theorem_grid(small_cfg(tmp_path, ns=(1,), ds=(1, 2), rs=(1,)))
    assert (tmp_path / "grid.csv").read_text() == CSV_HEADER + "\n"
    run_main_theorem_grid(small_cfg(tmp_path, ns=(1, 3), ds=(1, 2), rs=(1,), resume=True))
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    run_main_theorem_grid(small_cfg(fresh, ns=(1, 3), ds=(1, 2), rs=(1,)))
    for name in GRID_FILES:
        assert (tmp_path / name).read_bytes() == (fresh / name).read_bytes(), name


@pytest.mark.parametrize("opens", [1, 2])
def test_fresh_run_killed_while_opening_resumes_to_identical_files(tmp_path, monkeypatch, opens):
    run_main_theorem_grid(small_cfg(tmp_path))
    want = {name: (tmp_path / name).read_bytes() for name in GRID_FILES}
    real = open

    def dying_open(*args, **kwargs):
        if not opens_left:
            raise _Killed
        opens_left.pop()
        return real(*args, **kwargs)

    # a fresh run over the finished files dies after `opens` of its three opens
    opens_left = [None] * opens
    sinks = _track_sinks(monkeypatch)
    with monkeypatch.context() as mp:
        mp.setattr(experiments, "open", dying_open, raising=False)
        with pytest.raises(_Killed):
            run_main_theorem_grid(small_cfg(tmp_path))
    assert sinks[-1].handles == {}
    run_main_theorem_grid(small_cfg(tmp_path, resume=True))
    for name, data in want.items():
        assert (tmp_path / name).read_bytes() == data, name
