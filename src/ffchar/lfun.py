"""L-polynomials of non-principal characters and related prime sums.

The generating polynomial sum_m A(m, chi) z^m of a non-principal character
mod Q (deg Q = n) has degree at most n-1; its inverse roots alpha_i, defined
by the product form prod (1 - alpha_i z), all have modulus 1 or sqrt(q).
This module builds the coefficients from the DFT sums of every character
at once, extracts the inverse roots (companion-matrix eigenvalues of the
reversed polynomial plus one Newton step each), and verifies the
root-modulus dichotomy numerically.

Also here: character sums over the irreducibles of degree k, with their
(n+1) q^(k/2) / k bound, and von Mangoldt weighted sums (the logarithmic
derivative route to the same bound).  Both are read off spectra: the
degree-k spectrum is one DFT of the histogram of the dlogs of I_k, giving
the prime sum of every character.  The von Mangoldt sum of chi over A_k is
sum_{l | k} l * S_l(chi^(k/l)), with chi^(k/l) found by exact index
arithmetic, so it needs no DFT of its own.  And the Mertens-style partial
product over primes of bounded degree, accumulated in exact rational
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import monic_irreducible_count
from .characters import Character, all_char_sums_Ad, character_by_index, dual_group_sums, power_index
from .intfact import factor_integer
from .residue import Modulus

__all__ = [
    "LPolynomial",
    "WeilReport",
    "MertensResult",
    "lpolynomial",
    "build_all_lpolynomials",
    "verify_weil",
    "prime_sum_bound",
    "prime_sum_spectrum",
    "von_mangoldt_spectrum",
    "mertens_product",
    "inverse_root_power_sum",
    "TRAILING_COEFF_TOL",
]

TRAILING_COEFF_TOL = 1e-9  # |A(m, chi)| below this counts as an exact zero


@dataclass
class LPolynomial:
    """Coefficients A(0..n-1, chi), extracted inverse roots, and a residual witness."""

    chi: Character
    coeffs: np.ndarray  # complex128, length n = deg Q
    inverse_roots: np.ndarray  # complex128, with multiplicity
    root_residual: float  # max |L(1/alpha_i)| over the roots

    @property
    def degree(self) -> int:
        """Numerical degree: trailing coefficients under the zero threshold dropped."""
        return _numerical_degree(self.coeffs)

    def eval_at(self, z: complex) -> complex:
        acc = 0j
        for c in self.coeffs[::-1]:
            acc = acc * z + c
        return acc


def _numerical_degree(coeffs: np.ndarray) -> int:
    d = len(coeffs) - 1
    while d > 0 and abs(coeffs[d]) < TRAILING_COEFF_TOL:
        d -= 1
    return d


def lpolynomial(chi: Character, coeffs: np.ndarray) -> LPolynomial:
    """The L-polynomial of chi from A(0..n-1, chi): trim to the numerical degree, extract roots."""
    roots, residual = _extract_inverse_roots(coeffs[: _numerical_degree(coeffs) + 1])
    return LPolynomial(chi, coeffs, roots, residual)


def _extract_inverse_roots(coeffs: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverse roots of sum c_m z^m (c_0 = 1) with one Newton step of polish.

    They are the eigenvalue-roots of the reversed polynomial
    R(w) = sum_m c_m w^(D-m); residual reported as max |L(1/alpha)|.
    """
    D = len(coeffs) - 1
    if D <= 0:
        return np.zeros(0, dtype=np.complex128), 0.0
    rev = np.asarray(coeffs, dtype=np.complex128)  # already highest w power first
    roots = np.roots(rev)
    dcoef = rev[:-1] * np.arange(D, 0, -1)
    vals = np.polyval(rev, roots)
    dvals = np.polyval(dcoef, roots)
    step = np.where(np.abs(dvals) > 1e-12, vals / np.where(dvals == 0, 1, dvals), 0)
    roots = roots - step
    lvals = np.abs(np.polyval(rev, roots)) / np.maximum(np.abs(roots) ** D, 1e-300)
    residual = float(lvals.max(initial=0.0))
    return roots, residual


def build_all_lpolynomials(modulus: Modulus, workers: int = 1) -> dict[int, LPolynomial]:
    """Every non-principal chi_k (k as in `character_by_index`) at once (DFT bulk path)."""
    n = modulus.n
    order = modulus.unit_group.group_order
    rows = [all_char_sums_Ad(modulus, m, workers) for m in range(n)]
    out = {}
    for k in range(1, order):
        coeffs = np.array([rows[m][k] for m in range(n)], dtype=np.complex128)
        out[k] = lpolynomial(character_by_index(modulus, k), coeffs)
    return out


@dataclass
class WeilReport:
    """Root-modulus verdict: every inverse root near modulus 1 or sqrt(q)."""

    chi_label: str
    q: int
    tol: float
    roots: list[dict]  # {re, im, modulus, class}
    residuals: float
    max_deviation: float

    @property
    def passed(self) -> bool:
        return all(r["class"] != "violation" for r in self.roots)

    def to_json_record(self, coeffs=None) -> dict:
        rec = {
            "chi": self.chi_label,
            "roots": self.roots,
            "residuals": self.residuals,
        }
        if coeffs is not None:
            rec["coeffs"] = [[float(c.real), float(c.imag)] for c in coeffs]
        return rec


def verify_weil(L: LPolynomial, tol: float = 1e-6) -> WeilReport:
    """Check each inverse root modulus against {1, sqrt(q)} at the given tolerance.

    Violations are reported, never raised: at these scales they would signal
    numerical failure of the root extraction, not of the mathematics.
    """
    q = L.chi.modulus.field.q
    sq = math.sqrt(q)
    roots = []
    max_dev = 0.0
    for a in L.inverse_roots:
        mod = abs(a)
        dev = min(abs(mod - 1.0), abs(mod - sq))
        max_dev = max(max_dev, dev)
        if abs(mod - 1.0) <= tol:
            cls = "unit"
        elif abs(mod - sq) <= tol:
            cls = "sqrt_q"
        else:
            cls = "violation"
        roots.append({"re": float(a.real), "im": float(a.imag), "modulus": float(mod), "class": cls})
    return WeilReport(L.chi.label, q, tol, roots, L.root_residual, max_dev)


# ---------------------------------------------------------------------------
# prime-degree character sums
# ---------------------------------------------------------------------------


def prime_sum_bound(modulus: Modulus, k: int) -> float:
    """(n+1) q^(k/2) / k, the proven bound on |sum_{P in I_k} chi(P)| for non-principal chi."""
    q, n = modulus.field.q, modulus.n
    return (n + 1) * q ** (k / 2.0) / k


def prime_sum_spectrum(modulus: Modulus, k: int) -> np.ndarray:
    """sum_{P in I_k} chi_j(P) for every character j (`character_by_index` order).

    One DFT of the histogram of the unit dlogs of the monic irreducibles of
    degree k; a P dividing Q has chi(P) = 0 and is left out.
    """
    flat = modulus.dlog_table.irreducible_dlogs(k)
    hist = np.bincount(flat[flat >= 0], minlength=modulus.unit_group.group_order)
    return dual_group_sums(modulus, hist)


def von_mangoldt_spectrum(modulus: Modulus, k: int, spectra: dict[int, np.ndarray]) -> np.ndarray:
    """sum over monic f of degree k of Lambda(f) chi_j(f), for every character j.

    Lambda is supported on prime powers, so the sum runs over P^(k/l) for
    l | k, P in I_l, each weighted by l = deg P.  chi(P^e) = chi^e(P), so
    the l-term is l times the degree-l spectrum read at the index of
    chi^(k/l).  spectra[l] must be `prime_sum_spectrum(modulus, l)` for
    every l dividing k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    idx = np.arange(modulus.unit_group.group_order)
    out = np.zeros(idx.size, dtype=np.complex128)
    for ell in range(1, k + 1):
        if k % ell == 0:
            out += ell * spectra[ell][power_index(modulus, idx, k // ell)]
    return out


def inverse_root_power_sum(L: LPolynomial, k: int) -> complex:
    """sum_i alpha_i^k over the extracted inverse roots."""
    if L.inverse_roots.size == 0:
        return 0j
    return complex((L.inverse_roots**k).sum())


# ---------------------------------------------------------------------------
# Mertens partial product
# ---------------------------------------------------------------------------

_EULER_GAMMA = float(np.euler_gamma)


def _big_ratio_to_float(num: int, den: int) -> float:
    """num/den for huge ints without normalizing a Fraction (no giant gcd)."""
    shift = 64 - (num.bit_length() - den.bit_length())
    if shift >= 0:
        mant = (num << shift) // den
    else:
        mant = num // (den << -shift)
    return mant * 2.0 ** (-shift)


@dataclass(frozen=True)
class MertensResult:
    q: int
    k: int
    product: float
    ratio: float  # product / (e^gamma * k)


def mertens_product(q: int, k: int) -> MertensResult:
    """prod over irreducible P with deg P <= k of (1 - q^(-deg P))^(-1).

    Accumulated exactly as a ratio of integers, prod_j (q^j / (q^j - 1))^pi_j,
    and rendered to a double only at the end; returned with its ratio to
    e^gamma * k.
    """
    if q < 2 or factor_integer(q).omega != 1:
        raise ValueError(f"q = {q} is not a prime power")
    if k < 1:
        raise ValueError("k must be >= 1")
    num, den = 1, 1
    for j in range(1, k + 1):
        pj = monic_irreducible_count(q, j)
        num *= (q**j) ** pj
        den *= (q**j - 1) ** pj
    product = _big_ratio_to_float(num, den)
    return MertensResult(q, k, product, product / (math.exp(_EULER_GAMMA) * k))
