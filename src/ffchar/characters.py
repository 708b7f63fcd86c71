"""Multiplicative characters modulo Q with exact root-of-unity values.

A character is determined by one exponent per cyclic component of the unit
group; its value at a unit x is zeta_M^phase where M is the group exponent
and the integer phase is computed exactly from discrete logs.  Floating
point enters only when a finished phase histogram is rendered to a complex
number, so accumulated sums carry a provable error bound (emitted alongside
each sum) instead of silent drift.

Every sum starts from one integer histogram over flat dlog indices,
`dlog_histogram`: for all of A_d, or for its r-smooth slice, which keeps
only the polynomials whose largest irreducible factor has degree <= r (read
off the factor-degree profile of `vecpoly`).  All of A_d with d >= deg Q
is q^(d - deg Q) complete residue systems mod Q, so its histogram is the
closed form q^(d - deg Q) in every entry and nothing is enumerated; the
other histograms enumerate A_d.  Parallel workers merge chunk histograms by
plain integer addition, so results are bit-identical for any worker count.
A histogram is then evaluated in one of two ways, which the tests
cross-check:

* one character: its exact phase counts, folded from the histogram, then
  a compensated (Kahan) rendering sum in a fixed order;
* the whole dual group at once (any squarefree Q): the complex sums for
  every character are the conjugate n-dimensional DFT of the histogram,
  reshaped to the component orders of the unit group.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import residue
from .algebra import Poly
from .residue import Modulus
from .vecpoly import max_degree_profile_cached

__all__ = [
    "CharValue",
    "Character",
    "CharSum",
    "all_characters",
    "chi_eval",
    "character_sum_Ad",
    "histogram_char_sum",
    "dlog_histogram",
    "unit_dlog_histogram",
    "flat_dlog_phases",
    "render_phase_counts",
    "dual_group_sums",
    "all_char_sums_Ad",
    "character_by_index",
    "phase_to_complex",
]

HIST_CHUNK = 1 << 20  # most polynomials one histogram chunk holds

_cos_sin_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _cos_sin(M: int) -> tuple[np.ndarray, np.ndarray]:
    if M not in _cos_sin_cache:
        ang = 2.0 * np.pi * np.arange(M) / M
        _cos_sin_cache[M] = (np.cos(ang), np.sin(ang))
    return _cos_sin_cache[M]


def phase_to_complex(phase: int, M: int) -> complex:
    """zeta_M^phase as a complex double."""
    a = 2.0 * math.pi * (phase % M) / M
    return complex(math.cos(a), math.sin(a))


@dataclass(frozen=True)
class CharValue:
    """Either zero or an exact M-th root of unity, stored as a phase index."""

    order: int
    phase: Optional[int]  # None encodes the value 0

    @property
    def is_zero(self) -> bool:
        return self.phase is None

    def to_complex(self) -> complex:
        if self.phase is None:
            return 0j
        return phase_to_complex(self.phase, self.order)

    def __mul__(self, other: "CharValue") -> "CharValue":
        if self.order != other.order:
            raise ValueError("cannot multiply values of different orders")
        if self.phase is None or other.phase is None:
            return CharValue(self.order, None)
        return CharValue(self.order, (self.phase + other.phase) % self.order)


@dataclass(frozen=True)
class Character:
    """A multiplicative character mod Q, one exponent per unit-group component."""

    modulus: Modulus
    exponents: tuple[int, ...]

    def __post_init__(self):
        orders = self.modulus.unit_group.component_orders
        if len(self.exponents) != len(orders):
            raise ValueError("one exponent per unit-group component required")
        for k, m in zip(self.exponents, orders):
            if not 0 <= k < max(m, 1):
                raise ValueError(f"exponent {k} out of range [0, {m})")

    @property
    def value_order(self) -> int:
        """M: all values are M-th roots of unity (the unit-group exponent)."""
        return self.modulus.unit_group.exponent

    @property
    def is_principal(self) -> bool:
        return all(k == 0 for k in self.exponents)

    @property
    def order(self) -> int:
        """Least m >= 1 with chi^m principal."""
        out = 1
        for k, m in zip(self.exponents, self.modulus.unit_group.component_orders):
            if k:
                out = math.lcm(out, m // math.gcd(m, k))
        return out

    @property
    def label(self) -> str:
        inner = ",".join(str(k) for k in self.exponents)
        return f"chi[{inner}]"

    def power(self, j: int) -> "Character":
        orders = self.modulus.unit_group.component_orders
        return Character(self.modulus, tuple((k * j) % max(m, 1) for k, m in zip(self.exponents, orders)))

    def conjugate(self) -> "Character":
        orders = self.modulus.unit_group.component_orders
        return Character(self.modulus, tuple((-k) % max(m, 1) for k, m in zip(self.exponents, orders)))


def all_characters(modulus: Modulus) -> Iterator[Character]:
    """The full dual group, exactly once each, in exponent-product order."""
    orders = modulus.unit_group.component_orders
    idx = [0] * len(orders)
    while True:
        yield Character(modulus, tuple(idx))
        for i in range(len(orders) - 1, -1, -1):
            idx[i] += 1
            if idx[i] < max(orders[i], 1):
                break
            idx[i] = 0
        else:
            return


def chi_eval(chi: Character, f: Poly) -> CharValue:
    """chi(f): zero when gcd(f, Q) != 1, else the exact root of unity.

    Depends only on f mod Q (periodic extension to all of F_q[t]).
    """
    flat = chi.modulus.dlog_table.flat_dlog(f)
    if flat < 0:
        return CharValue(chi.value_order, None)
    return CharValue(chi.value_order, int(flat_dlog_phases(chi, np.array([flat]))[0]))


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
    chunks of at most `HIST_CHUNK` polynomials; each chunk's dlogs are kept
    where the factor-degree profile is <= r and bincounted.  `workers`
    chunks run at once, and their histograms are added in chunk order as
    they finish.  Cached per (modulus, d, r); exact integers, so the
    chunking and the worker count cannot change the result.
    """
    if d < 0:
        raise ValueError(f"degree must be >= 0, got d = {d}")
    if r is not None and r >= d:
        r = None
    key = ("hist", d, r)
    if key in modulus._hist_cache:
        return modulus._hist_cache[key]
    order = modulus.unit_group.group_order
    # below this bound every component has a full dlog table
    if order > residue.FULL_TABLE_LIMIT:
        raise ValueError(f"group order {order} too large for a dense histogram")
    q, n = modulus.field.q, modulus.n
    if r is None and d >= n:
        # every block of q^n consecutive codes shares its high part, so it is a
        # complete residue system mod Q: A_d hits each unit exactly q^(d-n) times
        per_unit = q ** (d - n)
        modulus._hist_cache[key] = (np.full(order, per_unit, dtype=np.int64), q**d - order * per_unit)
        return modulus._hist_cache[key]
    table = modulus.dlog_table
    total = q**d
    profile = None if r is None else max_degree_profile_cached(modulus.field, d)

    def work(start):
        stop = min(start + HIST_CHUNK, total)
        vec = table.dlogs_of_monic_degree(d, start, stop)
        if profile is not None:
            vec = vec[profile[start:stop] <= r]
        nonunit = int((vec < 0).sum())
        return np.bincount(vec[vec >= 0], minlength=order), nonunit

    hist = np.zeros(order, dtype=np.int64)
    nonunits = 0
    starts = range(0, total, HIST_CHUNK)
    step = max(workers, 1)
    with ThreadPoolExecutor(max_workers=step) as pool:  # starts no thread when step == 1
        run = pool.map if step > 1 else map
        for i in range(0, len(starts), step):
            for h, nu in run(work, starts[i : i + step]):
                hist += h
                nonunits += nu
    modulus._hist_cache[key] = (hist, nonunits)
    return hist, nonunits


def unit_dlog_histogram(modulus: Modulus, d: int, workers: int = 1) -> tuple[np.ndarray, int]:
    """`dlog_histogram` over all of A_d, checked to account for all q^d polynomials."""
    hist, nonunits = dlog_histogram(modulus, d, workers=workers)
    total = modulus.field.q**d
    if int(hist.sum()) + nonunits != total:
        raise ArithmeticError(
            f"A_{d} histogram holds {int(hist.sum())} units + {nonunits} non-units, not q^d = {total}"
        )
    return hist, nonunits


def flat_dlog_phases(chi: Character, flat: np.ndarray, power: int = 1) -> np.ndarray:
    """Exact phase index of chi at (the unit with each flat dlog index)^power."""
    units = chi.modulus.unit_group
    M = units.exponent
    total = np.zeros(flat.shape, dtype=np.int64)
    for k, m, s in zip(chi.exponents, units.component_orders, units.flat_strides):
        comp = ((flat // s) % max(m, 1)) * power % max(m, 1)
        total += (k * (M // m)) * comp
    return total % M


@dataclass(frozen=True)
class CharSum:
    """A rendered character sum with its accumulation error bound."""

    value: complex
    err_bound: float
    n_terms: int

    def __complex__(self):
        return self.value


def render_phase_counts(counts: np.ndarray, M: int) -> tuple[complex, float, int]:
    """Kahan-compensated sum of counts[a] * zeta_M^a in fixed phase order."""
    cos_t, sin_t = _cos_sin(M)
    nz = np.nonzero(counts)[0]
    re = im = 0.0
    cre = cim = 0.0
    n_terms = 0
    for a in nz:
        c = float(counts[a])
        n_terms += int(counts[a])
        y = c * cos_t[a] - cre
        t = re + y
        cre = (t - re) - y
        re = t
        y = c * sin_t[a] - cim
        t = im + y
        cim = (t - im) - y
        im = t
    err = 1e-15 * max(n_terms, 1)
    return complex(re, im), err, n_terms


def histogram_char_sum(chi: Character, hist: np.ndarray) -> CharSum:
    """sum of chi over the units a flat dlog histogram counts.

    Exact phase accumulation (integer histogram), rendered once with
    compensated summation; the bound on the rendering error is emitted with
    the sum.
    """
    M = chi.value_order
    phases = flat_dlog_phases(chi, np.arange(hist.size, dtype=np.int64))
    counts = np.zeros(M, dtype=np.int64)
    np.add.at(counts, phases, hist)
    return CharSum(*render_phase_counts(counts, M))


def character_sum_Ad(chi: Character, d: int, workers: int = 1) -> CharSum:
    """A(d, chi) = sum of chi(f) over monic f of degree exactly d."""
    hist, _ = unit_dlog_histogram(chi.modulus, d, workers)
    return histogram_char_sum(chi, hist)


def dual_group_sums(modulus: Modulus, hist: np.ndarray) -> np.ndarray:
    """sum of chi_k over the units a flat dlog histogram counts, for every k.

    The dual group of prod_i Z/m_i is prod_i Z/m_i again, and chi_k pairs
    with the unit of flat dlog j through zeta^(sum_i k_i j_i / m_i); so the
    sums are the conjugate n-dimensional DFT of the histogram reshaped to
    the component orders.  Flat index k is the k-th character of
    `all_characters` (`character_by_index`).
    """
    orders = modulus.unit_group.component_orders
    return np.conj(np.fft.fftn(hist.astype(np.float64).reshape(orders))).ravel()


def all_char_sums_Ad(modulus: Modulus, d: int, workers: int = 1) -> np.ndarray:
    """A(d, chi_k) for every character, k-indexed as `character_by_index`.

    Entry 0 is the principal sum, i.e. the number of units in A_d.
    """
    hist, _ = unit_dlog_histogram(modulus, d, workers)
    return dual_group_sums(modulus, hist)


def character_by_index(modulus: Modulus, k: int) -> Character:
    """chi_k: the k-th character of `all_characters`, exponents k unravelled to the component orders."""
    orders = modulus.unit_group.component_orders
    return Character(modulus, tuple(int(x) for x in np.unravel_index(k, orders)))
