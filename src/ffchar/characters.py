"""Multiplicative characters modulo Q and their sums over dlog histograms.

A character is determined by one exponent per cyclic component of the unit
group: chi_k sends the unit with component dlogs (j_i) to
zeta^(sum_i k_i j_i / m_i), m_i the component orders.  A character's
index is its exponents raveled to the component orders (row-major, as
`np.ravel_multi_index`), and chi_k^e has the index of the exponents times e
mod the component orders (`power_index`): exact integer arithmetic.

Every sum starts from one integer histogram over flat dlog indices,
`dlog_histogram`: for all of A_d, or for its r-smooth slice, which keeps
only the polynomials whose largest irreducible factor has degree <= r (read
off the factor-degree profile of `vecpoly`).  All of A_d with d >= deg Q
is q^(d - deg Q) complete residue systems mod Q, so its histogram is the
closed form q^(d - deg Q) in every entry and nothing is enumerated; the
other histograms enumerate A_d.  Parallel workers merge chunk histograms by
plain integer addition, so results are bit-identical for any worker count.

A histogram is then evaluated one way, for the whole dual group at once
(any squarefree Q): the complex sums for every character are the conjugate
n-dimensional DFT of the histogram, reshaped to the component orders
(`dual_group_sums`).  The per-character route, exact phase counts rendered
with compensated summation, is kept only as the tests' oracle.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

import numpy as np

from . import residue
from .residue import Modulus
from .vecpoly import max_degree_profile_cached

__all__ = [
    "check_int64_counts",
    "dlog_histogram",
    "unit_dlog_histogram",
    "dual_group_sums",
    "all_char_sums_Ad",
    "character_labels",
    "power_index",
]

HIST_CHUNK = 1 << 20  # most polynomials one histogram chunk holds


# ---------------------------------------------------------------------------
# histograms over A_d and its r-smooth slices
# ---------------------------------------------------------------------------


def dlog_histogram(modulus: Modulus, d: int, r: Optional[int] = None, workers: int = 1) -> tuple[np.ndarray, int]:
    """(histogram over flat dlog indices, non-unit count) for the r-smooth f in A_d.

    r = None (or r >= d, where every f is r-smooth) takes all of A_d.  Entry
    j of the histogram counts the polynomials whose reduction mod Q is the
    unit with flat dlog j.  All of A_d with d >= deg Q is q^(d - deg Q)
    complete residue systems mod Q, so that histogram is the closed form
    q^(d - deg Q) in every entry.  Otherwise A_d is enumerated, cut into
    chunks of at most `HIST_CHUNK` polynomials; each chunk's dlogs, one per
    polynomial and each -1 or below the group order (ArithmeticError
    otherwise), are kept where the factor-degree profile is <= r and
    bincounted.  `workers` chunks run at once, and their histograms are
    added in chunk order as they finish.  Exact integers, so the chunking
    and the worker count cannot change the result.  Nothing is kept: a
    caller that needs the histogram twice passes it on.
    """
    if d < 0:
        raise ValueError(f"degree must be >= 0, got d = {d}")
    check_int64_counts(modulus.field.q, d)
    if r is not None and r >= d:
        r = None
    order = residue.dense_group_order(modulus)
    q, n = modulus.field.q, modulus.n
    if r is None and d >= n:
        # every block of q^n consecutive codes shares its high part, so it is a
        # complete residue system mod Q: A_d hits each unit exactly q^(d-n) times
        per_unit = q ** (d - n)
        return np.full(order, per_unit, dtype=np.int64), q**d - order * per_unit
    table = modulus.dlog_table
    total = q**d
    profile = None if r is None else max_degree_profile_cached(modulus.field, d)

    def work(start):
        stop = min(start + HIST_CHUNK, total)
        vec = table.dlogs_of_monic_degree(d, start, stop)
        if len(vec) != stop - start:
            raise ArithmeticError(f"A_{d} slice {start}:{stop} has {len(vec)} dlogs, not {stop - start}")
        if not -1 <= vec.min() <= vec.max() < order:
            raise ArithmeticError(f"A_{d} slice {start}:{stop} has a dlog outside -1..{order - 1}")
        if profile is not None:
            vec = vec[profile[start:stop] <= r]
        nonunit = int((vec < 0).sum())
        return np.bincount(vec[vec >= 0], minlength=order), nonunit

    hist = np.zeros(order, dtype=np.int64)
    nonunits = 0
    for h, nu in _run_chunks(work, range(0, total, HIST_CHUNK), workers):
        hist += h
        del h  # else this chunk's order-sized bincount lives on while the next chunk is reduced
        nonunits += nu
    return hist, nonunits


def check_int64_counts(q: int, d: int) -> None:
    """Refuse a degree whose q^d polynomials int64 histogram counts cannot hold."""
    if q**d > np.iinfo(np.int64).max:
        raise ValueError(f"A_{d} holds q^d = {q**d} polynomials, too many for int64 counts")


def _run_chunks(work, starts: range, workers: int):
    """work(start) for every start, in order; `workers` of them at once on threads when workers > 1."""
    if workers <= 1:
        yield from map(work, starts)
        return
    from concurrent.futures import ThreadPoolExecutor  # only a threaded run pays for the import

    with ThreadPoolExecutor(max_workers=workers) as pool:
        for i in range(0, len(starts), workers):
            yield from pool.map(work, starts[i : i + workers])


def unit_dlog_histogram(modulus: Modulus, d: int, workers: int = 1) -> tuple[np.ndarray, int]:
    """`dlog_histogram` over all of A_d, its non-unit count checked against the closed form.

    A monic f of degree d is a non-unit iff some Q_i divides it, and q^(d -
    deg Q_S) such f are divisible by Q_S = prod_{i in S} Q_i: inclusion-
    exclusion over the nonempty S with deg Q_S <= d counts the non-units.
    """
    hist, nonunits = dlog_histogram(modulus, d, workers=workers)
    degs = [f.degree for f in modulus.irreducible_factors]
    subsets = (S for size in range(1, len(degs) + 1) for S in combinations(degs, size) if sum(S) <= d)
    expected = sum((-1) ** (len(S) + 1) * modulus.field.q ** (d - sum(S)) for S in subsets)
    if nonunits != expected:
        raise ArithmeticError(f"A_{d} histogram counts {nonunits} non-units, not the {expected} Q's factors give")
    return hist, nonunits


def dual_group_sums(modulus: Modulus, hist: np.ndarray) -> np.ndarray:
    """sum of chi_k over the units a flat dlog histogram counts, for every k.

    The dual group of prod_i Z/m_i is prod_i Z/m_i again, and chi_k pairs
    with the unit of flat dlog j through zeta^(sum_i k_i j_i / m_i); so the
    sums are the conjugate n-dimensional DFT of the histogram reshaped to
    the component orders.  Flat index k is the character whose exponents
    are k unravelled to the component orders.  The sums are read-only, and
    so is every view of them.  Every float the grid writes derives from
    these sums, so a non-finite sum raises ArithmeticError here; one sum
    over them all, a reduction with no group-sized temporary, finds it.
    """
    orders = modulus.unit_group.component_orders
    sums = np.conj(np.fft.fftn(hist.astype(np.float64).reshape(orders)))
    with np.errstate(invalid="ignore"):  # inf + -inf is nan, and nan is what the check looks for
        total = sums.sum()
    if not np.isfinite(total):
        raise ArithmeticError("the character sums of a dlog histogram are not all finite")
    sums.flags.writeable = False
    return sums.ravel()


def all_char_sums_Ad(modulus: Modulus, d: int, workers: int = 1) -> np.ndarray:
    """A(d, chi_k) for every character, k-indexed as `dual_group_sums`.

    Entry 0 is the principal sum, i.e. the number of units in A_d.
    """
    hist, _ = unit_dlog_histogram(modulus, d, workers)
    return dual_group_sums(modulus, hist)


def character_labels(modulus: Modulus) -> list[str]:
    """The label chi[k_1,...,k_s] of every index k, its exponents unravelled, in one pass."""
    orders = modulus.unit_group.component_orders
    exps = np.unravel_index(np.arange(modulus.unit_group.group_order), orders)
    return [f"chi[{','.join(map(str, e))}]" for e in zip(*(x.tolist() for x in exps))]


def power_index(modulus: Modulus, k: int | np.ndarray, e: int) -> int | np.ndarray:
    """The index of chi_k^e, for an index or an array of indices k.

    chi_k^e has the exponents of chi_k times e, mod the component orders;
    for irreducible Q this is (e * k) mod (q^n - 1).
    """
    orders = modulus.unit_group.component_orders
    exps = np.unravel_index(k, orders)
    return np.ravel_multi_index(tuple(x * e % m for x, m in zip(exps, orders)), orders)
