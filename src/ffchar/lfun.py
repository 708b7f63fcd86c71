"""L-polynomials of non-principal characters and related prime sums.

For a non-principal chi mod a squarefree Q of degree n, let c be its
conductor, the product of the factors Q_i where chi is non-trivial, and
e = 1 if chi is trivial on F_q^*, else 0.  Then sum_m A(m, chi) z^m has
degree n - 1, with n - deg c + e inverse roots of modulus 1 and
deg c - 1 - e of modulus sqrt(q), so |A(n-1, chi)|^2 = q^(deg c - 1 - e)
(Rosen, Number Theory in Function Fields, ch. 4; `conductor_profile`).
Every non-principal L-polynomial is one row of a single coefficient array,
whose column m is the DFT of the A_m histogram (`lpolynomial_coeffs`, which
checks the last column).  The inverse roots of each row are the eigenvalues
of its companion matrix, one `np.linalg.eigvals` per block of `ROOT_BLOCK`
rows, polished by one Newton step (`inverse_roots`).  `weil_classes` sorts
the root moduli into 1, sqrt(q) and violations, `weil_counts_match` checks
each row's counts, and the root power sums feed the log-derivative identity.
No object is built per character: the per-character `np.roots` route is
kept only as the tests' oracle.

Also here: character sums over the irreducibles of degree k, with their
(n+1) q^(k/2) / k bound, and von Mangoldt weighted sums (the logarithmic
derivative route to the same bound).  Both are read off spectra: the
degree-k spectrum is one DFT of the histogram of the dlogs of I_k, giving
the prime sum of every character.  A monic f of degree k is irreducible
exactly when it is not (k-1)-smooth, so that histogram is A_k's less its
(k-1)-smooth slice's, both chunked and count-checked.  The von Mangoldt sum
of chi over A_k is sum_{l | k} l * S_l(chi^(k/l)), with chi^(k/l) found by
exact index arithmetic, so it needs no DFT of its own.  And the Mertens-style
partial product over primes of bounded degree, accumulated in exact rational
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import residue
from .algebra import monic_irreducible_count
from .characters import all_char_sums_Ad, dual_group_sums, power_index, unit_dlog_histogram
from .intfact import prime_power
from .residue import Modulus

__all__ = [
    "InverseRoots",
    "MertensResult",
    "WEIL_CLASSES",
    "conductor_profile",
    "lpolynomial_coeffs",
    "inverse_roots",
    "weil_classes",
    "weil_counts_match",
    "prime_sum_bound",
    "prime_sum_spectrum",
    "von_mangoldt_spectrum",
    "mertens_products",
]

# rows whose companion matrices one eigvals call takes: 2048 of degree 13 stack to 5.5 MB
ROOT_BLOCK = 2048


def conductor_profile(modulus: Modulus) -> tuple[np.ndarray, np.ndarray]:
    """(deg c, e) of every non-principal chi_k, in row k-1 (module docstring).

    deg c adds the degrees of the components where chi_k's exponent is
    nonzero.  F_q^* is the order-(q - 1) subgroup of each component, so a
    constant's dlog there is a multiple of s_i = m_i / (q - 1), and e = 1
    iff sum_i k_i log_i(a) / s_i = 0 mod q - 1 at a constant a generating F_q^*.
    """
    units, q, logs = modulus.unit_group, modulus.field.q, modulus.dlog_table.logs
    exps = np.unravel_index(np.arange(1, units.group_order), units.component_orders)
    deg_c = sum(c.degree * (k != 0) for c, k in zip(units.components, exps))
    steps = [c.order // (q - 1) for c in units.components]
    a = 1 + int(np.argmax(np.gcd(logs[0][1:q] // steps[0], q - 1) == 1))  # constant codes are 1..q-1
    phase = sum(k * (log[a] // s) for k, log, s in zip(exps, logs, steps))
    return deg_c, (phase % (q - 1) == 0).astype(np.int64)


def lpolynomial_coeffs(modulus: Modulus, workers: int = 1) -> np.ndarray:
    """A(m, chi_k) in row k-1, column m, for every non-principal chi_k and m < n = deg Q: one DFT per m.

    An |A(n-1, chi)|^2 off q^(deg c - 1 - e) by a relative 1e-9 raises ArithmeticError.
    """
    coeffs = np.stack([all_char_sums_Ad(modulus, m, workers)[1:] for m in range(modulus.n)], axis=1)
    deg_c, even = conductor_profile(modulus)
    want, lead = float(modulus.field.q) ** (deg_c - 1 - even), np.abs(coeffs[:, -1]) ** 2
    bad = ~(np.abs(lead - want) <= 1e-9 * want)
    if bad.any():
        k = int(bad.argmax())
        raise ArithmeticError(f"|A({modulus.n - 1}, chi_{k + 1})|^2 = {lead[k]!r}, not q^(deg c - 1 - e) = {want[k]!r}")
    return coeffs


@dataclass(frozen=True)
class InverseRoots:
    """Roots of a stack of L-polynomials of degree D = n - 1: row i's roots[i] and residual[i], max |L(1/alpha)|."""

    coeffs: np.ndarray
    roots: np.ndarray
    residual: np.ndarray

    def flat_roots(self) -> np.ndarray:
        """Every row's roots, row after row."""
        return self.roots.ravel()

    def power_sums(self, k: int) -> np.ndarray:
        """sum_i alpha_i^k over each row's roots, 0 at D = 0."""
        return (self.roots**k).sum(axis=1)


def inverse_roots(coeffs: np.ndarray) -> InverseRoots:
    """Inverse roots of each row sum_m c_m z^m (c_0 = 1), with one Newton step of polish.

    Every row has degree D = n - 1, the width less one (module docstring):
    its inverse roots are the roots of R(w) = sum_m c_m w^(D-m), the
    eigenvalues of its companion matrix, one stacked `np.linalg.eigvals` per
    block of `ROOT_BLOCK` rows.  The Newton step and the residual evaluate
    R and R' by Horner's rule, row by row.
    """
    D = coeffs.shape[1] - 1
    roots = np.zeros((len(coeffs), D), dtype=np.complex128)
    residual = np.zeros(len(coeffs))
    for lo in range(0, len(coeffs) if D else 0, ROOT_BLOCK):
        rev = coeffs[lo : lo + ROOT_BLOCK]  # highest w power first
        companion = np.zeros((len(rev), D, D), dtype=np.complex128)
        companion[:, 0, :] = -rev[:, 1:] / rev[:, :1]
        companion[:, np.arange(1, D), np.arange(D - 1)] = 1
        r = np.linalg.eigvals(companion)
        vals, dvals = _horner(rev, r), _horner(rev[:, :-1] * np.arange(D, 0, -1), r)
        r = r - np.where(np.abs(dvals) > 1e-12, vals / np.where(dvals == 0, 1, dvals), 0)
        lvals = np.abs(_horner(rev, r)) / np.maximum(np.abs(r) ** D, 1e-300)
        roots[lo : lo + ROOT_BLOCK], residual[lo : lo + ROOT_BLOCK] = r, lvals.max(axis=1)
    return InverseRoots(coeffs, roots, residual)


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Row i of coeffs (highest power first) evaluated at each point of row i of z."""
    acc = np.zeros_like(z)
    for j in range(coeffs.shape[1]):
        acc = acc * z + coeffs[:, j, None]
    return acc


WEIL_CLASSES = ("unit", "sqrt_q", "violation")


def weil_classes(roots: np.ndarray, q: int, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(modulus, class, deviation) of each inverse root, in the shape of roots.

    The class indexes `WEIL_CLASSES`: within tol of 1, else within tol of
    sqrt(q), else a violation.  The deviation is the distance to the nearer
    of 1 and sqrt(q).  np.hypot, not np.abs: it matches Python's
    abs(complex) to the last digit.
    """
    mod = np.hypot(roots.real, roots.imag)
    off_one, off_sqrt_q = np.abs(mod - 1.0), np.abs(mod - math.sqrt(q))
    cls = np.where(off_one <= tol, 0, np.where(off_sqrt_q <= tol, 1, 2))
    return mod, cls, np.minimum(off_one, off_sqrt_q)


def weil_counts_match(modulus: Modulus, cls: np.ndarray) -> bool:
    """True iff row k-1 of cls, chi_k's `weil_classes`, has deg c - 1 - e sqrt(q)s and the rest units."""
    deg_c, even = conductor_profile(modulus)
    sqrt_q = deg_c - 1 - even
    return bool(((cls == 1).sum(axis=1) == sqrt_q).all() and ((cls == 0).sum(axis=1) == cls.shape[1] - sqrt_q).all())


# ---------------------------------------------------------------------------
# prime-degree character sums
# ---------------------------------------------------------------------------


def prime_sum_bound(modulus: Modulus, k: int) -> float:
    """(n+1) q^(k/2) / k, the proven bound on |sum_{P in I_k} chi(P)| for non-principal chi."""
    return (modulus.n + 1) * modulus.field.q ** (k / 2.0) / k


def prime_sum_spectrum(modulus: Modulus, k: int) -> np.ndarray:
    """sum_{P in I_k} chi_j(P) for every character j, j-indexed as `dual_group_sums`.

    One DFT of the unit dlog histogram of I_k, A_k's less its (k-1)-smooth
    slice's (module docstring); a P dividing Q has chi(P) = 0 and is left
    out.  A unit group, then a q^k, above `residue.FULL_TABLE_LIMIT` (read at
    call time) is refused before either histogram is built.
    """
    residue.dense_group_order(modulus)
    if k < 1:
        raise ValueError(f"k must be >= 1, got k = {k}")
    size = modulus.field.q**k
    if size > residue.FULL_TABLE_LIMIT:
        raise ValueError(
            f"degree k = {k} has q^k = {size} monic polynomials, above the dense table limit {residue.FULL_TABLE_LIMIT}"
        )
    from .smooth import smooth_dlog_histogram  # imported here: `weil` and `mertens` never load `smooth`

    hist, _ = unit_dlog_histogram(modulus, k)
    if k > 1:  # every monic linear f is irreducible
        hist -= smooth_dlog_histogram(modulus, k, k - 1)[0]
    return dual_group_sums(modulus.unit_group.component_orders, hist)


def von_mangoldt_spectrum(orders: tuple[int, ...], k: int, spectra: dict[int, np.ndarray]) -> np.ndarray:
    """sum over monic f of degree k of Lambda(f) chi_j(f), for every character j.

    Lambda is supported on prime powers, so the sum runs over P^(k/l) for
    l | k, P in I_l, each weighted by l = deg P.  chi(P^e) = chi^e(P), so
    the l-term is l times the degree-l spectrum read at the index of
    chi^(k/l), found from the unit group's component `orders` alone.
    spectra[l] must be `prime_sum_spectrum(modulus, l)` for every l
    dividing k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    idx = np.arange(math.prod(orders))
    out = np.zeros(idx.size, dtype=np.complex128)
    for ell in range(1, k + 1):
        if k % ell == 0:
            out += ell * spectra[ell][power_index(orders, idx, k // ell)]
    return out


# ---------------------------------------------------------------------------
# Mertens partial product
# ---------------------------------------------------------------------------

_EULER_GAMMA = float(np.euler_gamma)
# most bits the exact Mertens numerator may hold: q = 2, k = 24 (3.4e7 bits) takes about a minute
MERTENS_BITS_LIMIT = 1 << 24


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


def mertens_products(q: int, k: int) -> list[MertensResult]:
    """prod over irreducible P with deg P <= j of (1 - q^(-deg P))^(-1), for j = 1..k.

    Accumulated exactly as a ratio of integers, prod_i (q^i / (q^i - 1))^pi_i,
    in one pass that carries the numerator and denominator from j to j + 1;
    each j's ratio is rendered to a double and returned with its ratio to
    e^gamma * j.  The numerator has log2(q) sum_i i pi_i bits: a (q, k) whose
    last product is above `MERTENS_BITS_LIMIT` is refused with ValueError
    before any product is formed.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got k = {k}")
    prime_power(q)  # ValueError unless q is a prime power
    pis = [monic_irreducible_count(q, j) for j in range(1, k + 1)]
    bits = math.log2(q) * sum(j * pj for j, pj in enumerate(pis, start=1))
    if bits > MERTENS_BITS_LIMIT:
        raise ValueError(
            f"the exact product for q = {q}, k = {k} has about {bits:.3g} bits, above the limit {MERTENS_BITS_LIMIT}"
        )
    out = []
    num, den = 1, 1
    for j, pj in enumerate(pis, start=1):
        num *= (q**j) ** pj
        den *= (q**j - 1) ** pj
        product = _big_ratio_to_float(num, den)
        out.append(MertensResult(q, j, product, product / (math.exp(_EULER_GAMMA) * j)))
    return out
