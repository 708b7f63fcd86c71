"""Grid experiments: short character sums vs their smooth-slice truncations.

For each (q, n, d, r) and each selected character the headline comparison is

    lhs = |A(d, chi) - sum over r-smooth f in A_d of chi(f)|

against the scale n q^(-r/2) q^d, whose observed multiplier (the "implied
constant") is the scientifically interesting output.  Runs are deterministic
given the config (including the sampling seed), persist rows to CSV with a
fixed header plus a JSON-lines mirror carrying the raw sums, and checkpoint
completed combos.

Each combo's selected characters are kept as numpy columns (`ComboBlock`)
and written in chunks of at most `ROW_CHUNK` rows: each chunk is one append
to the CSV and one to the JSONL file, and the combo's key is appended to
the checkpoint only after its last chunk.  So no text of a whole combo is
ever held in memory, and a run killed at any point leaves every
checkpointed combo complete in both files, followed by at most some rows
of one unfinished combo, the last of them possibly torn.  `--resume` cuts
the checkpoint back to its last complete key and both files back to the
rows of checkpointed combos, so the resumed run ends with byte-identical
files.

Every float is written as its repr, the shortest text that reads back to
the same double (JSON spells nan and the infinities NaN and Infinity).
orjson writes a whole numpy column with those digits in one call; the few
values whose repr takes exponent form or is not finite take repr itself
(`float_texts`).  Each column is formatted once per combo; the rows of a
chunk are built by interleaving slices of the column texts with the
constant text between them and joining once.

All heavy number crunching reduces to integer dlog histograms (worker count
cannot change them) followed by DFTs, so worker counts never change any
output byte.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from .algebra import Field
from .characters import all_char_sums_Ad
from .primitive import epsilon_bound
from .residue import Modulus
from .smooth import all_smooth_char_sums, smooth_count

__all__ = [
    "CSV_HEADER",
    "ROW_CHUNK",
    "ExperimentConfig",
    "ComparisonRecord",
    "ComboBlock",
    "GridRunResult",
    "float_texts",
    "run_main_theorem_grid",
    "run_corollary_grid",
]

CSV_HEADER = "q,n,Q,chi,d,r,lhs,bound_core,implied_constant,short_norm,eps,flags"

# rows per written chunk.  At 512 rows a chunk's JSONL is about 190 kB, and
# the allocator reuses the same memory chunk after chunk; the 3 MB text of
# a whole 8,190-row combo would be mapped and released anew for every combo
# (three times the page faults on the benchmark grid)
ROW_CHUNK = 512


@dataclass
class ExperimentConfig:
    """Grid parameters plus execution and persistence knobs."""

    qs: tuple[int, ...]
    ns: tuple[int, ...]
    ds: tuple[int, ...]
    rs: tuple[int, ...]
    char_policy: str = "all"  # "all" | "worst-case" | "sample-k"
    sample_k: int = 8
    seed: int = 0
    workers: int = 1
    budget: int = 10**7  # max enumerated polynomials per combo
    allow_out_of_range: bool = True
    out_csv: Optional[str] = None
    out_json: Optional[str] = None
    checkpoint: Optional[str] = None
    resume: bool = False

    def validate(self):
        for name in ("qs", "ns", "ds", "rs"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        if self.char_policy not in ("all", "worst-case", "sample-k"):
            raise ValueError(f"unknown character policy {self.char_policy!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class ComparisonRecord:
    q: int
    n: int
    Q: str
    chi: str
    d: int
    r: int
    lhs: float
    bound_core: float
    implied_constant: float
    short_norm: float
    eps: float
    flags: str
    a_sum: complex = 0j  # raw short sum A(d, chi)
    s_sum: complex = 0j  # raw smooth sum


# JSON spells the non-finite floats differently from repr
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def float_texts(col: np.ndarray) -> tuple[list[str], list[str]]:
    """repr of every value of a float column, and the same text as JSON spells it.

    orjson writes the whole column in one call with the shortest digits that
    round-trip, the digits repr picks.  Its layout differs from repr only for
    the values repr writes in exponent form (nonzero |x| < 1e-4, |x| >= 1e16)
    and for the non-finite ones (orjson writes null); those take repr.
    """
    import orjson

    col = np.ascontiguousarray(col)
    out = orjson.dumps(col, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
    texts = out.decode().split(",") if out else []
    finite, mag = np.isfinite(col), np.abs(col)
    for i in np.flatnonzero(~finite | (mag >= 1e16) | ((mag < 1e-4) & (mag != 0))).tolist():
        texts[i] = repr(float(col[i]))
    if finite.all():
        return texts, texts
    return texts, [_JSON_NONFINITE.get(t, t) for t in texts]


class _TextMemo:
    """Float-column texts keyed by the column's bytes, kept for one block.

    Consecutive blocks often repeat a column bit for bit: A(d, chi), and so
    the short norms, are the same for every r of one d, and on the diagonal
    r = d the smooth sums equal them.  Each such column is formatted once.
    """

    def __init__(self):
        self.prev: dict[bytes, tuple[list[str], list[str]]] = {}
        self.cur: dict[bytes, tuple[list[str], list[str]]] = {}

    def next_block(self):
        self.prev, self.cur = self.cur, {}

    def __call__(self, col: np.ndarray) -> tuple[list[str], list[str]]:
        key = col.tobytes()
        hit = self.cur.get(key) or self.prev.get(key)
        if hit is None:
            hit = float_texts(col)
        self.cur[key] = hit
        return hit


def _interleave(cols: tuple, lo: int, hi: int) -> str:
    """Rows lo..hi-1, each the given columns in order; a str column repeats on every row."""
    k, m = len(cols), hi - lo
    parts = [""] * (k * m)
    for j, col in enumerate(cols):
        parts[j::k] = [col] * m if isinstance(col, str) else col[lo:hi]
    return "".join(parts)


@dataclass
class ComboBlock:
    """The records of one (q, n, d, r) combo, one numpy column per field.

    Row i is the comparison for character chi[chi[i]]: raw sums a[i] (short)
    and s[i] (smooth), lhs[i] = |a[i] - s[i]| and short[i] = |a[i]| / q^d.
    Q and Q_json are the modulus text and its JSON spelling, computed once
    per modulus.
    """

    q: int
    n: int
    Q: str
    Q_json: str
    d: int
    r: int
    flags: str  # "" or "out_of_range", shared by every row
    corollary: bool  # rows whose short norm exceeds eps get "exceeds_eps"
    bound_core: float
    eps: float
    chi: np.ndarray
    a: np.ndarray
    s: np.ndarray
    lhs: np.ndarray
    short: np.ndarray

    def __len__(self) -> int:
        return len(self.chi)

    @property
    def implied(self) -> np.ndarray:
        return self.lhs / self.bound_core

    def row_flags(self) -> list[str]:
        if not self.corollary:
            return [self.flags] * len(self)
        exceeds = (self.flags + ";" if self.flags else "") + "exceeds_eps"
        return [exceeds if x else self.flags for x in (self.short > self.eps).tolist()]

    def chunks(
        self, csv: bool = True, jsonl: bool = True, memo: Optional[_TextMemo] = None
    ) -> Iterator[tuple[str, str]]:
        """The block's CSV rows and JSONL lines, at most ROW_CHUNK rows per pair.

        Each pair covers the same rows ("" for a format not asked for), and
        their concatenation in order is the whole block.  Each per-row float
        is formatted once per block and shared by both texts; pass the
        previous block's memo to reuse the columns the two share.  JSONL keys
        follow the sorted order of json.dumps(..., sort_keys=True).
        """
        texts_of = memo if memo is not None else _TextMemo()
        texts_of.next_block()
        chis = list(map(str, self.chi.tolist()))
        flags = self.row_flags()
        lhs, lhs_j = texts_of(self.lhs)
        ic, ic_j = texts_of(self.implied)
        sn, sn_j = texts_of(self.short)
        csv_cols = jsonl_cols = ()
        if csv:
            bc, ep = repr(self.bound_core), repr(self.eps)
            csv_cols = (
                f"{self.q},{self.n},{self.Q},chi[", chis, f"],{self.d},{self.r},", lhs,
                f",{bc},", ic, ",", sn, f",{ep},", flags, "\n",
            )
        if jsonl:
            a_im, a_re, s_im, s_re = (texts_of(col)[1] for col in (self.a.imag, self.a.real, self.s.imag, self.s.real))
            flag_json = {f: json.dumps(f) for f in set(flags)}
            jsonl_cols = (
                f'{{"Q": {self.Q_json}, "a_im": ', a_im, ', "a_re": ', a_re,
                f', "bound_core": {json.dumps(self.bound_core)}, "chi": "chi[', chis,
                f']", "d": {self.d}, "eps": {json.dumps(self.eps)}, "flags": ', [flag_json[f] for f in flags],
                ', "implied_constant": ', ic_j, ', "lhs": ', lhs_j,
                f', "n": {self.n}, "q": {self.q}, "r": {self.r}, "s_im": ', s_im, ', "s_re": ', s_re,
                ', "short_norm": ', sn_j, "}\n",
            )
        n = len(self)
        for lo in range(0, n, ROW_CHUNK):
            hi = min(lo + ROW_CHUNK, n)
            yield _interleave(csv_cols, lo, hi), _interleave(jsonl_cols, lo, hi)

    def records(self) -> list[ComparisonRecord]:
        return [
            ComparisonRecord(
                q=self.q,
                n=self.n,
                Q=self.Q,
                chi=f"chi[{k}]",
                d=self.d,
                r=self.r,
                lhs=x,
                bound_core=self.bound_core,
                implied_constant=i,
                short_norm=s,
                eps=self.eps,
                flags=f,
                a_sum=a,
                s_sum=sm,
            )
            for k, x, i, s, f, a, sm in zip(
                self.chi.tolist(),
                self.lhs.tolist(),
                self.implied.tolist(),
                self.short.tolist(),
                self.row_flags(),
                self.a.tolist(),
                self.s.tolist(),
            )
        ]


@dataclass
class GridRunResult:
    blocks: list[ComboBlock] = field(default_factory=list)
    skipped: list[tuple[str, str]] = field(default_factory=list)
    resumed: list[str] = field(default_factory=list)

    @property
    def records(self) -> list[ComparisonRecord]:
        """Every record of the run, built from the kept columns on each access."""
        return [rec for block in self.blocks for rec in block.records()]

    def texts(self, csv: bool = True, jsonl: bool = True) -> Iterator[tuple[str, str]]:
        """Every block's CSV and JSONL chunks (`ComboBlock.chunks`), in run order."""
        memo = _TextMemo()
        for block in self.blocks:
            yield from block.chunks(csv, jsonl, memo)

    @property
    def n_records(self) -> int:
        return sum(len(block) for block in self.blocks)

    @property
    def max_implied_constant(self) -> float:
        maxima = []
        for block in self.blocks:
            ic = block.implied
            ic = ic[np.isfinite(ic)]
            if ic.size:
                maxima.append(float(ic.max()))
        return max(maxima, default=0.0)


def _combo_key(q: int, n: int, d: int, r: int) -> str:
    return f"q={q};n={n};d={d};r={r}"


def _combo_flags(q: int, n: int, d: int, r: int) -> str:
    in_range = 2 * math.log(n, q) <= r <= d <= n
    return "" if in_range else "out_of_range"


def _csv_row_key(line: str) -> str:
    # Q holds no comma, so the nine fields after it split off from the right
    head, _chi, d, r = line.rsplit(",", 9)[:4]
    q, n = head.split(",", 2)[:2]
    return _combo_key(int(q), int(n), int(d), int(r))


def _jsonl_row_key(line: str) -> str:
    row = json.loads(line)
    return _combo_key(row["q"], row["n"], row["d"], row["r"])


def _append(path: str, text: str) -> None:
    with open(path, "a") as fh:
        fh.write(text)


def _cut_checkpoint(path: str) -> set[str]:
    """Drop a torn last key from the checkpoint; return the complete keys."""
    with open(path, "rb+") as fh:
        data = fh.read()
        data = data[: data.rfind(b"\n") + 1]
        fh.truncate(len(data))
    return {line.strip() for line in data.decode().splitlines() if line.strip()}


def _cut_to_done(path: str, start: int, done: set[str], row_key: Callable[[str], str]) -> None:
    """Keep the longest run of complete rows after byte `start` whose combo is done."""
    keep = start
    with open(path, "rb+") as fh:
        fh.seek(start)
        for line in fh:
            if not line.endswith(b"\n"):
                break
            try:
                if row_key(line.decode()) not in done:
                    break
            except (ValueError, KeyError, TypeError):
                break
            keep += len(line)
        fh.truncate(keep)


class _Sink:
    """Row persistence: per combo, its chunks to CSV and JSONL, then its checkpoint key.

    Each chunk is appended to each file with one write.  The key goes to
    the checkpoint only after the combo's last chunk, so a checkpointed
    combo is complete in both files and `--resume` can cut everything else.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.memo = _TextMemo()
        self.done: set[str] = set()
        if cfg.resume and cfg.checkpoint and os.path.exists(cfg.checkpoint):
            self.done = _cut_checkpoint(cfg.checkpoint)
        fresh = not self.done
        if cfg.out_csv:
            if fresh or not os.path.exists(cfg.out_csv):
                with open(cfg.out_csv, "w") as fh:
                    fh.write(CSV_HEADER + "\n")
            else:
                with open(cfg.out_csv) as fh:
                    head = fh.readline()
                if head.rstrip("\n") != CSV_HEADER:
                    raise ValueError(f"existing CSV {cfg.out_csv} has a different header")
                _cut_to_done(cfg.out_csv, len(head.encode()), self.done, _csv_row_key)
        if cfg.out_json:
            if fresh:
                open(cfg.out_json, "w").close()
            elif os.path.exists(cfg.out_json):
                _cut_to_done(cfg.out_json, 0, self.done, _jsonl_row_key)
        if cfg.checkpoint and fresh:
            open(cfg.checkpoint, "w").close()

    def combo_done(self, key: str) -> bool:
        return key in self.done

    def write_combo(self, key: str, block: ComboBlock):
        cfg = self.cfg
        if cfg.out_csv or cfg.out_json:
            for csv_text, jsonl_text in block.chunks(bool(cfg.out_csv), bool(cfg.out_json), self.memo):
                if cfg.out_csv:
                    _append(cfg.out_csv, csv_text)
                if cfg.out_json:
                    _append(cfg.out_json, jsonl_text)
        if cfg.checkpoint:
            _append(cfg.checkpoint, key + "\n")
        self.done.add(key)


def _select_indices(cfg: ExperimentConfig, order: int, key: str, ranking: np.ndarray) -> list[int]:
    """Character indices for a combo under the configured policy.

    "all": every non-principal index.  "worst-case": the argmax of the
    ranking vector (exact, the dual group is fully enumerated at this
    scale).  "sample-k": a seeded deterministic sample.
    """
    if cfg.char_policy == "all":
        return list(range(1, order))
    if cfg.char_policy == "worst-case":
        k = int(np.argmax(ranking[1:])) + 1
        return [k]
    rng = random.Random(f"{cfg.seed}|{key}")
    count = min(cfg.sample_k, order - 1)
    return sorted(rng.sample(range(1, order), count))


def _grid_run(cfg: ExperimentConfig, corollary: bool) -> GridRunResult:
    cfg.validate()
    sink = _Sink(cfg)
    result = GridRunResult()
    for q in cfg.qs:
        field_ = Field.of_order(q)
        for n in cfg.ns:
            modulus = Modulus.irreducible(field_, n)
            Q = str(modulus.poly)
            Q_json = json.dumps(Q)
            order = q**n - 1
            for d in cfg.ds:
                a_sums = None  # A(d, chi) for every chi, once per d and only if a combo of d runs
                for r in cfg.rs:
                    if r > d:
                        continue
                    key = _combo_key(q, n, d, r)
                    if sink.combo_done(key):
                        result.resumed.append(key)
                        continue
                    flags = _combo_flags(q, n, d, r)
                    if flags and not cfg.allow_out_of_range:
                        print(f"skipping {key}: out of theorem range", file=sys.stderr)
                        result.skipped.append((key, "out_of_range"))
                        continue
                    work = q**d + smooth_count(q, d, r)
                    if work > cfg.budget:
                        print(
                            f"skipping {key}: work estimate {work} exceeds budget {cfg.budget}",
                            file=sys.stderr,
                        )
                        result.skipped.append((key, "budget"))
                        continue
                    if a_sums is None:
                        a_sums = all_char_sums_Ad(modulus, d, cfg.workers)
                    # every f in A_d is r-smooth when r >= d: the same histogram, so the same sums
                    s_sums = a_sums if r >= d else all_smooth_char_sums(modulus, d, r)
                    # np.hypot, not np.abs: it matches Python's abs(complex) to
                    # the last digit, so lhs is reproducible from the raw sums
                    diff = a_sums - s_sums
                    lhs_all = np.hypot(diff.real, diff.imag)
                    short_all = np.hypot(a_sums.real, a_sums.imag) / float(q**d)
                    if corollary:
                        k_sel = [int(np.argmax(short_all[1:])) + 1]
                    else:
                        k_sel = _select_indices(cfg, order, key, lhs_all)
                    sel = np.array(k_sel, dtype=np.int64)
                    block = ComboBlock(
                        q=q,
                        n=n,
                        Q=Q,
                        Q_json=Q_json,
                        d=d,
                        r=r,
                        flags=flags,
                        corollary=corollary,
                        bound_core=n * q ** (-r / 2.0) * float(q**d),
                        eps=epsilon_bound(q, d, r, n).value,
                        chi=sel,
                        a=a_sums[sel],
                        s=s_sums[sel],
                        lhs=lhs_all[sel],
                        short=short_all[sel],
                    )
                    sink.write_combo(key, block)
                    result.blocks.append(block)
    return result


def run_main_theorem_grid(cfg: ExperimentConfig) -> GridRunResult:
    """One record per (combo, selected chi); emits CSV rows and raw-sum JSONL."""
    return _grid_run(cfg, corollary=False)


def run_corollary_grid(cfg: ExperimentConfig) -> GridRunResult:
    """Per combo: the worst normalized short sum against the epsilon bound.

    Combos where the observation exceeds the bound are flagged (expected
    whenever the unknown O-constants exceed 1), never failed.
    """
    return _grid_run(cfg, corollary=True)
