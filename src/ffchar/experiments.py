"""Grid experiments: short character sums vs their smooth-slice truncations.

For each (q, n, d, r) and each selected character the headline comparison is

    lhs = |A(d, chi) - sum over r-smooth f in A_d of chi(f)|

against the scale n q^(-r/2) q^d, whose observed multiplier (the "implied
constant") is the scientifically interesting output.  Runs are deterministic
given the config (including the sampling seed), persist rows to CSV with a
fixed header plus a JSON-lines mirror carrying the raw sums, and checkpoint
completed combos.

Each combo's selected characters become numpy columns (`ComboBlock`) that
live only until the combo is written; the run keeps just its totals
(`GridRunResult`).  One rule picks them (`_select_indices`); the corollary
takes its worst case ranked by the short norms, so a corollary block holds
one row, whose flags say whether its short norm exceeds eps.

The run has one output, `ExperimentConfig.out`, in one of two shapes.  A
path names three files: the CSV at `out`, its JSONL mirror at
`out + ".jsonl"` and the checkpoint at `out + ".ckpt"`.  An open text
stream (stdout, say) gets one table, the CSV or the mirror.  The sink
(`_Sink`) opens each file once when the run starts, after `--resume` has
cut it, and closes them all when the run ends, also when it raises; a
stream is its own handle and is never closed.  Every text goes out through
one write point (`_Sink.append`): one write, flushed at once, so a killed
process has handed every finished write to the OS and a stream shows each
chunk as it is made.  The write points are the CSV header, then per combo
its chunks of at most `ROW_CHUNK` rows, one to the CSV and one to the
mirror each, then the combo's key to the checkpoint.  So no row text of a
whole combo is ever held in memory, and a run killed at any point leaves
every checkpointed combo complete in both files, followed by at most some
rows of one unfinished combo, the last of them possibly torn.  `--resume`
cuts the checkpoint back to its last complete key and the CSV back to the
rows of checkpointed combos, R rows; every combo writes as many rows to
both files, in the same order, so the mirror is cut to its first R
complete lines, counted, never parsed.  A row's key is its q, n, d and r
fields compared as bytes with the checkpoint's keys, parsed once.  A
missing CSV or mirror, a CSV with no row of some checkpointed combo (every
combo writes rows, but for q = 2, n = 1, whose unit group has order 1) or
a mirror of fewer than R lines raises ValueError before any file is cut;
else the resumed run ends with byte-identical files.

Under the policy "all" a block's columns are views [1:] of its degree's
and its combo's arrays (A(d, chi), the smooth sums, lhs and the short
norms), not copies; those arrays are read-only before any view is taken
(the sums as `characters.dual_group_sums` returns them), so nothing can
change a later combo's rows through a view.  The other policies gather
their handful of rows.

Every float is written as its repr, the shortest text that reads back to
the same double, in both formats.  Every float the grid writes is finite:
`characters.dual_group_sums` refuses non-finite character sums, and every
other float column is an absolute value of those sums or their
differences, or one divided by a positive finite constant.  orjson writes
a whole numpy array with those digits in one call; the few values whose
repr takes exponent form take repr itself (`float_texts`).  Each float is
formatted once, and column texts live no longer than their reuse needs:

- one chunk: the columns of one combo alone (lhs, the implied constant
  and, off the r = d diagonal, the smooth sums) are formatted a chunk of
  rows at a time, all of them in one `float_texts` call, by `row_chunks`,
  which lays out the CSV and the JSONL rows of a chunk together.  The
  float columns of the `weil` and `primes-bound` tables go through the
  same `row_chunks`;
- one block: the row layout (`row_chunks`).  The text that is the same on
  every row of the block (q, n, Q, d, r, the bound, eps and the flags) is
  merged and laid out once for a chunk's worth
  of rows; each chunk copies that layout, fills in only the per-row
  columns and joins once;
- across blocks: the columns a later combo can repeat, the character
  indices (the same in every combo of a modulus) and the short sums and
  their norms (the same for every r of one d), formatted once per block.
  A block keeps the previous block's texts it repeats and drops the rest
  before it formats anything (`_TextMemo`), so at most four columns of
  one block live across blocks.

All heavy number crunching reduces to integer dlog histograms (worker count
cannot change them) followed by DFTs, so worker counts never change any
output byte.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, TextIO, Union

import numpy as np

from .algebra import Field
from .characters import all_char_sums_Ad, check_int64_counts
from .residue import Modulus, dense_group_order
from .smooth import all_smooth_char_sums, epsilon_bound, in_theorem_range, smooth_count

__all__ = [
    "CSV_HEADER",
    "ROW_CHUNK",
    "ExperimentConfig",
    "ComboBlock",
    "GridRunResult",
    "float_texts",
    "row_chunks",
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
    """Grid parameters plus execution and persistence knobs.

    `out` is None (nothing written), a path or an open text stream.  A path
    gets the CSV at `out`, its JSONL mirror at `out + ".jsonl"` and the
    checkpoint at `out + ".ckpt"`, whatever `jsonl` says; `resume` cuts the
    three back to the checkpointed combos and appends.  A stream gets one
    table, the CSV, or the JSONL mirror when `jsonl` is set, each chunk
    flushed as it is written.
    """

    q: int
    ns: tuple[int, ...]
    ds: tuple[int, ...]
    rs: tuple[int, ...]
    char_policy: str = "all"  # "all" | "worst-case" | "sample-k"
    sample_k: int = 8
    seed: int = 0
    workers: int = 1
    budget: int = 10**7  # max enumerated polynomials per combo
    allow_out_of_range: bool = True
    out: Union[str, TextIO, None] = None
    jsonl: bool = False
    resume: bool = False

    def validate(self):
        for name in ("ns", "ds", "rs"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        if self.char_policy not in ("all", "worst-case", "sample-k"):
            raise ValueError(f"unknown character policy {self.char_policy!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        # d < 0 and r = 0 are refused here, before the sink opens
        if min(self.ds) < 0:
            raise ValueError(f"d must be >= 0, got {min(self.ds)}")
        if min(self.rs) < 1:
            raise ValueError("r must be >= 1")
        if self.char_policy == "sample-k" and self.sample_k < 1:
            raise ValueError(f"--sample-k must be >= 1, got {self.sample_k}")


def float_texts(col: np.ndarray) -> list[str]:
    """repr of every value of a float column.

    orjson writes the whole column in one call with the shortest digits that
    round-trip, the digits repr picks.  Its layout differs from repr only for
    the values repr writes in exponent form (nonzero |x| < 1e-4, |x| >= 1e16)
    and for the non-finite ones (orjson writes null); those take repr.
    """
    import orjson

    col = np.ascontiguousarray(col)
    out = orjson.dumps(col, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
    texts = out.decode().split(",") if out else []
    mag = np.abs(col)
    for i in np.flatnonzero(~np.isfinite(col) | (mag >= 1e16) | ((mag < 1e-4) & (mag != 0))).tolist():
        texts[i] = repr(float(col[i]))
    return texts


class _TextMemo:
    """Texts of the columns a later combo can repeat, keyed by dtype and bytes, kept for one block.

    Every combo of a modulus writes the same character indices, and A(d, chi),
    and so the short norms, are the same for every r of one d: a block asks
    for its chi, short, a.real and a.imag texts (`__call__`), and a column
    whose key the previous block also asked for is not formatted again.  A
    float column gets its repr texts (`float_texts`), an integer column its
    str texts.

    What lives how long: these texts live across blocks, from one block's
    call to the next one's, which drops every text it does not repeat
    before it formats anything, so at most four columns of one block are
    kept.  The row layout lives for one block (`row_chunks`).  The columns
    of one combo alone (lhs, implied and, off the diagonal, s) never enter
    the memo: `row_chunks` formats them, and their texts live for one chunk.
    """

    def __init__(self):
        self.texts: dict[tuple[str, bytes], list[str]] = {}

    def __call__(self, *cols: np.ndarray) -> list[list[str]]:
        # equal bytes need not be equal values: an int64 and a float64 column can share them
        keys = [(col.dtype.str, col.tobytes()) for col in cols]
        hits = [self.texts.get(key) for key in keys]
        # the previous block's other texts go before any column is formatted
        self.texts = {}
        out = []
        for col, key, hit in zip(cols, keys, hits):
            hit = self.texts.get(key, hit)  # [] is a hit too
            if hit is None:
                hit = float_texts(col) if col.dtype.kind == "f" else list(map(str, col.tolist()))
            self.texts[key] = hit
            out.append(hit)
        return out


def row_chunks(layouts: list[tuple], n: int) -> Iterator[tuple[str, ...]]:
    """Rows 0..n-1 of each layout, one text per layout per chunk of at most ROW_CHUNK rows.

    A layout is a tuple of columns over the same n rows.  A str column is
    the same text on every row; a float array gives its values' repr texts,
    formatted a chunk of rows at a time: every float array of a chunk goes
    into one `float_texts` call, an array object that several columns hold
    once, and only the latest chunk's texts are kept.  Any other column (a
    list or an object array of texts) gives a chunk's texts when sliced by
    the chunk's rows.  Adjacent str columns are merged, and one chunk's
    worth of rows of each layout is laid out once with the str texts in
    place; each chunk fills the other columns in that layout (a slice of it
    when shorter) and joins once.  An empty layout gives one "" per chunk.
    """
    rows = min(n, ROW_CHUNK)
    floats: dict[int, np.ndarray] = {}  # the float arrays by id, in the order they first appear
    plans = []
    for cols in layouts:
        merged: list = []
        for col in cols:
            if isinstance(col, str) and merged and isinstance(merged[-1], str):
                merged[-1] += col
            else:
                merged.append(col)
        k = len(merged)
        layout = [""] * (k * rows)
        fills = []
        for j, col in enumerate(merged):
            if isinstance(col, str):
                layout[j::k] = [col] * rows
            else:
                if isinstance(col, np.ndarray) and col.dtype.kind == "f":
                    floats.setdefault(id(col), col)
                fills.append((j, col))
        plans.append((k, layout, fills))
    for lo in range(0, n, ROW_CHUNK):
        hi = min(lo + ROW_CHUNK, n)
        m = hi - lo
        texts = float_texts(np.concatenate([col[lo:hi] for col in floats.values()])) if floats else []
        own = {key: texts[i * m : (i + 1) * m] for i, key in enumerate(floats)}
        out = []
        for k, layout, fills in plans:
            parts = layout if m == rows else layout[: k * m]
            for j, col in fills:
                parts[j::k] = own[id(col)] if id(col) in own else col[lo:hi]
            out.append("".join(parts))
        del texts, own  # this chunk's texts go before the next chunk's are made
        yield tuple(out)


@dataclass
class ComboBlock:
    """The records of one (q, n, d, r) combo, one numpy column per field.

    Row i is the comparison for character chi[chi[i]]: raw sums a[i] (short)
    and s[i] (smooth), lhs[i] = |a[i] - s[i]| and short[i] = |a[i]| / q^d.
    Q and Q_json are the modulus text and its JSON spelling, computed once
    per modulus.  s is a itself whenever the smooth sums are A's sums (at
    r >= d), and then takes a's texts.
    """

    q: int
    n: int
    Q: str
    Q_json: str
    d: int
    r: int
    flags: str  # "", "out_of_range", "exceeds_eps" or both joined by ";", shared by every row
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

    def chunks(
        self, csv: bool = True, jsonl: bool = True, memo: Optional[_TextMemo] = None
    ) -> Iterator[tuple[str, str]]:
        """The block's CSV rows and JSONL lines, at most ROW_CHUNK rows per pair.

        Each pair covers the same rows ("" for a format not asked for), and
        their concatenation in order is the whole block.  Each per-row float
        is formatted once and shared by both texts: both layouts go to one
        `row_chunks` call, which formats the columns of this combo alone
        (lhs, implied and, off the diagonal, s) a chunk at a time; chi,
        short and a go through the memo, so pass the previous block's memo
        to reuse the columns the two share.  An s that is a takes a's texts.
        JSONL keys follow the sorted order of json.dumps(..., sort_keys=True).
        """
        shared = [self.chi, self.short] + ([self.a.imag, self.a.real] if jsonl else [])
        chis, sn, *a_texts = (memo if memo is not None else _TextMemo())(*shared)
        implied = self.implied  # one array object, so both layouts' columns format it once per chunk
        csv_cols = jsonl_cols = ()
        if csv:
            bc, ep = repr(self.bound_core), repr(self.eps)
            csv_cols = (
                f"{self.q},{self.n},{self.Q},chi[", chis, f"],{self.d},{self.r},", self.lhs,
                f",{bc},", implied, ",", sn, f",{ep},{self.flags}\n",
            )
        if jsonl:
            a_im, a_re = a_texts
            s_im, s_re = (a_im, a_re) if self.s is self.a else (self.s.imag, self.s.real)
            jsonl_cols = (
                f'{{"Q": {self.Q_json}, "a_im": ', a_im, ', "a_re": ', a_re,
                f', "bound_core": {json.dumps(self.bound_core)}, "chi": "chi[', chis,
                f']", "d": {self.d}, "eps": {json.dumps(self.eps)}, "flags": {json.dumps(self.flags)}'
                ', "implied_constant": ', implied, ', "lhs": ', self.lhs,
                f', "n": {self.n}, "q": {self.q}, "r": {self.r}, "s_im": ', s_im, ', "s_re": ', s_re,
                ', "short_norm": ', sn, "}\n",
            )
        yield from row_chunks([csv_cols, jsonl_cols], len(self))


@dataclass
class GridRunResult:
    """A run's totals; its rows went to the configured outputs as each combo finished."""

    n_records: int = 0
    max_implied_constant: float = 0.0  # over the implied constants written, all finite
    skipped: list[tuple[str, str]] = field(default_factory=list)
    resumed: list[str] = field(default_factory=list)

    def add(self, block: ComboBlock) -> None:
        self.n_records += len(block)
        ic = block.implied
        if ic.size:
            self.max_implied_constant = max(self.max_implied_constant, float(ic.max()))


def _combo_key(q: int, n: int, d: int, r: int) -> str:
    return f"q={q};n={n};d={d};r={r}"


def _is_stream(target) -> bool:
    return hasattr(target, "write")


def _kept_lines(lines: Iterator[bytes], keep: Callable[[bytes], bool] = lambda line: True) -> tuple[int, int]:
    """Bytes and number of the longest run of complete lines that `keep` accepts."""
    end = count = 0
    for line in lines:
        if not line.endswith(b"\n") or not keep(line):
            break
        end += len(line)
        count += 1
    return end, count


def _cut_to_checkpoint(csv: str, mirror: str, checkpoint: str) -> set[str]:
    """Cut an interrupted run's files back to its checkpointed combos (module docstring); return their keys.

    Every check comes before the first cut, so a refused resume leaves the
    files as they were.  A checkpoint without a complete key cuts nothing.
    """
    with open(checkpoint, "rb") as fh:
        keys = fh.read()
    keys = keys[: keys.rfind(b"\n") + 1]
    # each key's q, n, d and r as a CSV row spells them, "q=2;n=5;d=3;r=2" -> (b"2", b"5", b"3", b"2")
    done = {tuple(part.partition("=")[2].encode() for part in key.split(";")): key for key in keys.decode().split()}
    if not done:
        return set()
    for path in (csv, mirror):
        if not os.path.exists(path):
            raise ValueError(f"cannot resume: {path} is missing")
    seen = set()

    def checkpointed(line: bytes) -> bool:
        # Q holds no comma, so the nine fields after it split off from the right
        fields = line.rsplit(b",", 9)
        key = done.get((*fields[0].split(b",", 2)[:2], *fields[2:4]))
        seen.add(key)
        return key is not None

    with open(csv, "rb") as fh:
        head = fh.readline()
        if head != (CSV_HEADER + "\n").encode():
            raise ValueError(f"existing CSV {csv} has a different header")
        csv_end, rows = _kept_lines(fh, checkpointed)
    # every checkpointed combo wrote rows, but for q = 2, n = 1, whose unit group has order 1
    lost = [key for fields, key in done.items() if key not in seen and fields[:2] != (b"2", b"1")]
    if lost:
        raise ValueError(f"cannot resume: {csv} holds no row of the checkpointed combo {lost[0]}")
    with open(mirror, "rb") as fh:
        mirror_end, lines = _kept_lines(itertools.islice(fh, rows))
    if lines < rows:
        raise ValueError(f"cannot resume: {mirror} holds {lines} complete lines, fewer than the {rows} rows of {csv}")
    for path, end in ((checkpoint, len(keys)), (csv, len(head) + csv_end), (mirror, mirror_end)):
        os.truncate(path, end)
    return set(done.values())


class _Sink:
    """Row persistence: per combo, its chunks to the CSV and the mirror, then its checkpoint key.

    Building the sink only cuts: with `resume` it cuts the three files of a
    path `out` back to the checkpointed combos (`_cut_to_checkpoint`) and
    leaves no file open.  Entering it (`with _Sink(cfg) as sink`) opens each
    file once for the run, afresh unless resumed, into `handles`, where a
    stream is its own handle; leaving it closes every file it opened, also
    when a combo raises, and never a stream.  Every text goes out through
    one write point (`append`: one write, then a flush), the combo's key
    only after its last chunk.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.memo = _TextMemo()
        self.done: set[str] = set()
        self.handles: dict[Union[str, TextIO], TextIO] = {}
        # each path's open mode: "w" starts it afresh, "a" appends to what the cut kept
        self.modes: dict[str, str] = {}
        self.csv = self.mirror = self.checkpoint = None
        out = cfg.out
        if _is_stream(out):
            self.csv, self.mirror = (None, out) if cfg.jsonl else (out, None)
        elif out:
            # the checkpoint opens first, so a fresh run killed while opening leaves no key over cut files
            self.checkpoint, self.csv, self.mirror = out + ".ckpt", out, out + ".jsonl"
            if cfg.resume and os.path.exists(self.checkpoint):
                self.done = _cut_to_checkpoint(self.csv, self.mirror, self.checkpoint)
            self.modes = dict.fromkeys((self.checkpoint, self.csv, self.mirror), "a" if self.done else "w")

    def __enter__(self) -> "_Sink":
        try:
            for path, mode in self.modes.items():
                self.handles[path] = open(path, mode)
        except BaseException:
            self.__exit__()
            raise
        if _is_stream(self.cfg.out):
            self.handles[self.cfg.out] = self.cfg.out
        if self.csv is not None and not self.done:
            self.append(self.csv, CSV_HEADER + "\n")
        return self

    def __exit__(self, *exc) -> None:
        for out, fh in self.handles.items():
            if fh is not out:
                fh.close()
        self.handles = {}

    def append(self, out: Union[str, TextIO], text: str) -> None:
        """The write point: text to the output's handle, flushed at once."""
        fh = self.handles[out]
        fh.write(text)
        fh.flush()

    def combo_done(self, key: str) -> bool:
        return key in self.done

    def write_combo(self, key: str, block: ComboBlock):
        csv, mirror = self.csv, self.mirror
        if csv is not None or mirror is not None:
            for csv_text, jsonl_text in block.chunks(csv is not None, mirror is not None, self.memo):
                if csv is not None:
                    self.append(csv, csv_text)
                if mirror is not None:
                    self.append(mirror, jsonl_text)
        if self.checkpoint:
            self.append(self.checkpoint, key + "\n")
        self.done.add(key)


def _select_indices(cfg: ExperimentConfig, policy: str, key: str, ranking: np.ndarray) -> np.ndarray:
    """Character indices for a combo under the policy, ascending int64.

    ranking holds one value per character, the principal one first.  "all":
    every non-principal index.  "worst-case": the first argmax of the
    ranking over them (exact, the dual group is fully enumerated at this
    scale), none when there are none.  "sample-k": a seeded deterministic
    sample.
    """
    order = len(ranking)
    if policy == "all":
        return np.arange(1, order, dtype=np.int64)
    if policy == "worst-case":
        return np.array([np.argmax(ranking[1:]) + 1] if order > 1 else [], dtype=np.int64)
    rng = random.Random(f"{cfg.seed}|{key}")
    count = min(cfg.sample_k, order - 1)
    return np.array(sorted(rng.sample(range(1, order), count)), dtype=np.int64)


def _grid_run(cfg: ExperimentConfig, corollary: bool) -> GridRunResult:
    cfg.validate()
    # a q that is not a prime power, an n with no modulus, a unit group above
    # the dense limit or a combo that runs (`_skip`) whose q^d int64 counts
    # cannot hold raises ValueError here, before the sink writes anything
    q = cfg.q
    field = Field.of_order(q)
    moduli = {n: Modulus.irreducible(field, n) for n in cfg.ns}
    for n, modulus in moduli.items():
        dense_group_order(modulus)
        for d in cfg.ds:
            if any(r <= d and _skip(cfg, n, d, r) is None for r in cfg.rs):
                check_int64_counts(q, d)
    result = GridRunResult()
    with _Sink(cfg) as sink:
        for n in cfg.ns:
            modulus = moduli[n]
            Q = str(modulus.poly)
            Q_json = json.dumps(Q)
            for d in cfg.ds:
                a_sums = None  # A(d, chi) for every chi, once per d and only if a combo of d runs
                for r in cfg.rs:
                    if r > d:
                        continue
                    key = _combo_key(q, n, d, r)
                    if sink.combo_done(key):
                        result.resumed.append(key)
                        continue
                    skip = _skip(cfg, n, d, r)
                    if skip:
                        reason, why = skip
                        print(f"skipping {key}: {why}", file=sys.stderr)
                        result.skipped.append((key, reason))
                        continue
                    flags = "" if in_theorem_range(q, d, r, n) else "out_of_range"
                    if a_sums is None:
                        a_sums = all_char_sums_Ad(modulus, d, cfg.workers)
                    # every f in A_d is r-smooth when r >= d: the same histogram, so the same sums
                    s_sums = a_sums if r >= d else all_smooth_char_sums(modulus, d, r, cfg.workers)
                    # np.hypot, not np.abs: it matches Python's abs(complex) to
                    # the last digit, so lhs is reproducible from the raw sums
                    diff = a_sums - s_sums
                    lhs_all = np.hypot(diff.real, diff.imag)
                    short_all = np.hypot(a_sums.real, a_sums.imag) / float(q**d)
                    # the block's columns may view these arrays, so nothing writes to them from
                    # here on (the sums come read-only)
                    lhs_all.flags.writeable = short_all.flags.writeable = False
                    policy, ranking = ("worst-case", short_all) if corollary else (cfg.char_policy, lhs_all)
                    sel = _select_indices(cfg, policy, key, ranking)
                    # every non-principal index is the slice [1:]: views, where a handful of rows is gathered
                    rows = slice(1, None) if policy == "all" else sel
                    eps = epsilon_bound(q, d, r, n).value
                    if corollary and (short_all[sel] > eps).any():
                        flags = ";".join(filter(None, (flags, "exceeds_eps")))
                    a = a_sums[rows]
                    block = ComboBlock(
                        q=q,
                        n=n,
                        Q=Q,
                        Q_json=Q_json,
                        d=d,
                        r=r,
                        flags=flags,
                        bound_core=n * q ** (-r / 2.0) * float(q**d),
                        eps=eps,
                        chi=sel,
                        a=a,
                        # the same view when s is a's sums, so that s takes a's texts
                        s=a if s_sums is a_sums else s_sums[rows],
                        lhs=lhs_all[rows],
                        short=short_all[rows],
                    )
                    sink.write_combo(key, block)
                    result.add(block)
    return result


def _skip(cfg: ExperimentConfig, n: int, d: int, r: int) -> Optional[tuple[str, str]]:
    """(reason, why) when the combo (n, d, r <= d) is skipped, None when it runs; the int64 pre-check asks it too.

    Skipped out of the theorem range under `allow_out_of_range = False`, else
    over the work budget.  A combo is charged the polynomials it enumerates:
    q^d + N(d, r) at r < d, where the r-smooth slice is enumerated; at r >= d
    the slice is A_d itself, q^d below deg Q and nothing at d >= n (the
    closed form).
    """
    q = cfg.q
    if not cfg.allow_out_of_range and not in_theorem_range(q, d, r, n):
        return "out_of_range", "out of theorem range"
    work = q**d + smooth_count(q, d, r) if r < d else (q**d if d < n else 0)
    if work > cfg.budget:
        return "budget", f"work estimate {work} exceeds budget {cfg.budget}"
    return None


def run_main_theorem_grid(cfg: ExperimentConfig) -> GridRunResult:
    """One record per (combo, selected chi); emits CSV rows and raw-sum JSONL."""
    return _grid_run(cfg, corollary=False)


def run_corollary_grid(cfg: ExperimentConfig) -> GridRunResult:
    """Per combo: the worst normalized short sum against the epsilon bound.

    The worst-case rule ranked by the short norms picks the row; a combo
    where it exceeds the bound is flagged "exceeds_eps", never failed.  At
    every size the dense limit allows, eps (C2 = C3 = 1) is at least 0.917
    below d = n, and from d = n on the short sums vanish, so no grid run
    sets the flag; only a smaller, stubbed eps does.
    """
    return _grid_run(cfg, corollary=True)
