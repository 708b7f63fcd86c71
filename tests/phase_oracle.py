"""The per-character phase route: the oracle the DFT sums are tested against.

Production code gets every character sum from `characters.dual_group_sums`,
one DFT of a dlog histogram for the whole dual group.  This module keeps the
second route, one character at a time, so the tests can compare the two:

* discrete logs of single polynomials by scalar reduction mod each factor
  of Q and a lookup in that component's table (`dlog`, `flat_dlog`);
* a character as its exponents, one per unit-group component, and chi_k,
  the character whose exponents are k unravelled to the component orders
  (`Character`, `character_by_index`), the index convention of every
  spectrum;
* a character's value at a unit is zeta_M^phase, M the unit-group exponent,
  with the integer phase computed exactly from the dlogs (`chi_eval`);
* a sum over a dlog histogram folds its exact phase counts and renders them
  once, with compensated (Kahan) summation in a fixed phase order, next to a
  bound on the rendering error (`histogram_char_sum`);
* from it: A(d, chi), smooth-slice sums, prime and von Mangoldt sums, and
  L-polynomials, each for one character; the prime sums read I_k off
  `irreducibles_up_to` and take one scalar `flat_dlog` per irreducible
  (`irreducible_flat_dlogs`), not the production dlog stream;
* an L-polynomial's inverse roots by `np.roots`, one character at a time,
  its degree found numerically, with their Weil classes one root at a time
  (`lpolynomial`, `verify_weil`), the oracle of `lfun.inverse_roots` and
  `lfun.weil_classes`; and a character's conductor degree and whether it
  is trivial on the constants, by brute force over the residues
  (`conductor`), the oracle of `lfun.conductor_profile`;
* the polynomials themselves one at a time: the monic stream of one degree
  (`enumerate_monic`), a factorization by trial division over every monic
  polynomial (`trial_factor`), which leans on neither the sieve nor
  `Modulus`, multiplied back out (`factorization_product`), and smoothness
  by factoring (`is_smooth`), for the brute-force checks; and a modulus
  from its text (`modulus_from_text`);
* primitivity by the power test alone, with no dlog (`is_primitive`): the
  oracle of the dlog mask gcd(j, N-1) = 1 that production counts with.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from ffchar.algebra import Field, Poly, irreducibles_up_to, monic_code_range
from ffchar.characters import unit_dlog_histogram
from ffchar.intfact import FactoredInteger, factor_integer
from ffchar.lfun import lpolynomial_coeffs, prime_sum_bound
from ffchar.residue import DlogTable, Modulus, generates
from ffchar.smooth import smooth_dlog_histogram

# -- polynomials one at a time --------------------------------------------


def enumerate_monic(field: Field, d: int, start: int = 0, stop: Optional[int] = None) -> Iterator[Poly]:
    """Stream the q^d monic polynomials of degree exactly d.

    Lexicographic in the coefficient vector with the constant term varying
    fastest; start/stop index into [0, q^d).
    """
    r = monic_code_range(field, d)
    lo = r.start + start
    hi = r.stop if stop is None else r.start + stop
    for code in range(lo, hi):
        yield Poly.from_code(field, code)


def modulus_from_text(field: Field, text: str) -> Modulus:
    return Modulus(Poly.from_string(field, text))


def trial_factor(f: Poly) -> tuple[tuple[Poly, int], ...]:
    """The monic irreducible factors of nonzero f with their multiplicities, sorted by (degree, code).

    Divides by every monic polynomial of degree 1, 2, ... in code order.
    Once the factors of lower degree are out, a monic divisor of the least
    degree left is irreducible; once 2 deg g exceeds the degree of the rest,
    the rest is irreducible (or 1).
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    rest, factors, d = f.monic(), [], 1
    while 2 * d <= rest.degree:
        for g in enumerate_monic(f.field, d):
            m = 0
            while (rest % g).is_zero:
                rest, m = rest // g, m + 1
            if m:
                factors.append((g, m))
        d += 1
    if rest.degree >= 1:
        factors.append((rest, 1))
    return tuple(factors)


def factorization_product(factors, field: Field, unit: int = 1) -> Poly:
    """The unit times every factor to its multiplicity."""
    out = Poly(field, (unit,))
    for f, mult in factors:
        out = out * f**mult
    return out


def max_factor_degree(f: Poly) -> int:
    """Largest degree among the irreducible factors of nonzero f (0 for constants)."""
    return max((g.degree for g, _ in trial_factor(f)), default=0)


def is_smooth(f: Poly, r: int) -> bool:
    """True iff every irreducible factor of monic nonzero f has degree <= r."""
    if f.is_zero:
        raise ValueError("is_smooth requires a nonzero polynomial")
    if not f.is_monic:
        raise ValueError("is_smooth requires a monic polynomial")
    return max_factor_degree(f) <= r


# -- primitivity by the power test ----------------------------------------


def is_primitive(f: Poly, modulus: Modulus, fact: Optional[FactoredInteger] = None) -> bool:
    """f mod the irreducible Q generates all N-1 units: x^((N-1)/l) != 1 for every prime l | N-1.

    The zero residue is not primitive.  fact, when given, must factor N-1.
    """
    r = f % modulus.poly
    if r.is_zero:
        return False
    if fact is None:
        fact = factor_integer(modulus.field.q**modulus.n - 1)
    return generates(r, modulus.poly, fact)


# -- discrete logs of single polynomials ---------------------------------


class NotAUnitError(ValueError):
    """Raised when a discrete log is requested for a non-unit residue."""


def dlog(table: DlogTable, x: Union[Poly, int]) -> Union[int, tuple[int, ...]]:
    """Discrete log of the unit x; int for irreducible Q, tuple per component otherwise.

    Q is squarefree, so x is a unit exactly when no component residue is zero.
    """
    f = Poly.from_code(table.modulus.field, x) if isinstance(x, int) else x
    vals = []
    for comp, log in zip(table.units.components, table.logs):
        r = f % comp.poly
        if r.is_zero:
            raise NotAUnitError(f"{f} shares the factor {comp.poly} with the modulus")
        vals.append(int(log[r.code()]))
    return vals[0] if table.modulus.is_irreducible else tuple(vals)


def flat_dlog(table: DlogTable, f: Poly) -> int:
    """Flattened dlog index of the unit f, its component dlogs raveled row-major to the component orders; -1 for non-units."""
    try:
        dl = dlog(table, f)
    except NotAUnitError:
        return -1
    if isinstance(dl, int):
        return dl
    return int(np.ravel_multi_index(dl, table.units.component_orders))


# -- characters one at a time --------------------------------------------


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
    def label(self) -> str:
        return f"chi[{','.join(map(str, self.exponents))}]"


def character_by_index(modulus: Modulus, k: int) -> Character:
    """chi_k: the character whose exponents are k unravelled to the component orders."""
    orders = modulus.unit_group.component_orders
    return Character(modulus, tuple(int(x) for x in np.unravel_index(k, orders)))


def unit_group_exponent(modulus: Modulus) -> int:
    """The lcm of the component orders: every character value is a root of unity of this order."""
    return math.lcm(*(max(m, 1) for m in modulus.unit_group.component_orders))


def value_order(chi: Character) -> int:
    """M: all values of chi are M-th roots of unity (the unit-group exponent)."""
    return unit_group_exponent(chi.modulus)


def is_principal(chi: Character) -> bool:
    return all(k == 0 for k in chi.exponents)


def char_order(chi: Character) -> int:
    """Least m >= 1 with chi^m principal."""
    out = 1
    for k, m in zip(chi.exponents, chi.modulus.unit_group.component_orders):
        if k:
            out = math.lcm(out, m // math.gcd(m, k))
    return out


def power(chi: Character, j: int) -> Character:
    orders = chi.modulus.unit_group.component_orders
    return Character(chi.modulus, tuple((k * j) % max(m, 1) for k, m in zip(chi.exponents, orders)))


def all_characters(modulus) -> Iterator[Character]:
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


def flat_dlog_phases(chi: Character, flat: np.ndarray, power: int = 1) -> np.ndarray:
    """Exact phase index of chi at (the unit with each flat dlog index)^power."""
    units = chi.modulus.unit_group
    M = unit_group_exponent(chi.modulus)
    total = np.zeros(flat.shape, dtype=np.int64)
    comps = np.unravel_index(flat, units.component_orders)
    for k, m, comp in zip(chi.exponents, units.component_orders, comps):
        total += (k * (M // m)) * (comp * power % m)
    return total % M


def chi_eval(chi: Character, f: Poly) -> CharValue:
    """chi(f): zero when gcd(f, Q) != 1, else the exact root of unity.

    Depends only on f mod Q (periodic extension to all of F_q[t]).
    """
    flat = flat_dlog(chi.modulus.dlog_table, f)
    if flat < 0:
        return CharValue(value_order(chi), None)
    return CharValue(value_order(chi), int(flat_dlog_phases(chi, np.array([flat]))[0]))


# -- sums, one character at a time ---------------------------------------


@dataclass(frozen=True)
class CharSum:
    """A rendered character sum with its accumulation error bound."""

    value: complex
    err_bound: float
    n_terms: int

    def __complex__(self):
        return self.value


_cos_sin_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _cos_sin(M: int) -> tuple[np.ndarray, np.ndarray]:
    if M not in _cos_sin_cache:
        ang = 2.0 * np.pi * np.arange(M) / M
        _cos_sin_cache[M] = (np.cos(ang), np.sin(ang))
    return _cos_sin_cache[M]


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
    M = value_order(chi)
    phases = flat_dlog_phases(chi, np.arange(hist.size, dtype=np.int64))
    counts = np.zeros(M, dtype=np.int64)
    np.add.at(counts, phases, hist)
    return CharSum(*render_phase_counts(counts, M))


def character_sum_Ad(chi: Character, d: int, workers: int = 1) -> CharSum:
    """A(d, chi) = sum of chi(f) over monic f of degree exactly d."""
    hist, _ = unit_dlog_histogram(chi.modulus, d, workers)
    return histogram_char_sum(chi, hist)


def smooth_char_sum(chi: Character, d: int, r: int) -> CharSum:
    """sum of chi(f) over r-smooth monic f of degree exactly d.

    Folded from the slice's dlog histogram; polynomials that share a factor
    with Q have chi(f) = 0 and are counted apart there, as non-units.
    """
    if d < 0 or r < 1:
        raise ValueError("need d >= 0 and r >= 1")
    hist, _ = smooth_dlog_histogram(chi.modulus, d, r)
    return histogram_char_sum(chi, hist)


@dataclass(frozen=True)
class PrimeCharSum:
    """sum_{P in I_k} chi(P) next to its proven bound (n+1) q^(k/2) / k."""

    value: complex
    bound: float
    n_primes: int
    err_bound: float


@functools.lru_cache(maxsize=None)
def irreducible_flat_dlogs(modulus: Modulus, k: int) -> np.ndarray:
    """Flat dlogs of the monic irreducibles of degree k, in code order, one scalar `flat_dlog` each; -1 where P divides Q.

    Kept per (modulus, k), read-only: every character of a modulus reads the same dlogs.
    """
    table = modulus.dlog_table
    flat = np.array([flat_dlog(table, P) for P in irreducibles_up_to(modulus.field, k)[k - 1]], dtype=np.int64)
    flat.flags.writeable = False
    return flat


def prime_char_sum(chi: Character, k: int) -> PrimeCharSum:
    modulus = chi.modulus
    flat = irreducible_flat_dlogs(modulus, k)
    units = flat[flat >= 0]
    M = value_order(chi)
    phases = flat_dlog_phases(chi, units)
    counts = np.zeros(M, dtype=np.int64)
    np.add.at(counts, phases, 1)
    value, err, n_terms = render_phase_counts(counts, M)
    return PrimeCharSum(value, prime_sum_bound(modulus, k), len(flat), err)


def von_mangoldt_sum(chi: Character, k: int) -> CharSum:
    """sum over monic f of degree k of Lambda(f) chi(f).

    Lambda is supported on prime powers, so the sum runs over P^(k/l) for
    l | k, P in I_l, each weighted by l = deg P; chi(P^e) carries the exact
    phase e * phase(P).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    modulus = chi.modulus
    M = value_order(chi)
    counts = np.zeros(M, dtype=np.int64)
    for ell in range(1, k + 1):
        if k % ell:
            continue
        flat = irreducible_flat_dlogs(modulus, ell)
        units = flat[flat >= 0]
        phases = flat_dlog_phases(chi, units, power=k // ell)
        np.add.at(counts, phases, ell)
    value, err, n_terms = render_phase_counts(counts, M)
    return CharSum(value, err, n_terms)


# -- L-polynomials one character at a time ----------------------------------


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


# |A(m, chi)| below this counts as an exact zero: the oracle finds each degree numerically, so it checks
# independently that every non-principal L-polynomial has degree n - 1, which `lfun.inverse_roots` assumes
ZERO_COEFF_TOL = 1e-9


def _numerical_degree(coeffs: np.ndarray) -> int:
    d = len(coeffs) - 1
    while d > 0 and abs(coeffs[d]) < ZERO_COEFF_TOL:
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
    """Every non-principal chi_k from the production coefficient rows, roots one character at a time."""
    coeffs = lpolynomial_coeffs(modulus, workers)
    return {k: lpolynomial(character_by_index(modulus, k), coeffs[k - 1]) for k in range(1, len(coeffs) + 1)}


def build_lpolynomial(chi: Character, workers: int = 1) -> LPolynomial:
    """Coefficients by per-character sums for m = 0..n-1, then root extraction."""
    if is_principal(chi):
        raise ValueError("the principal character has no L-polynomial (it is not a polynomial)")
    n = chi.modulus.n
    coeffs = np.zeros(n, dtype=np.complex128)
    for m in range(n):
        coeffs[m] = character_sum_Ad(chi, m, workers).value
    return lpolynomial(chi, coeffs)


def conductor(chi: Character) -> tuple[int, int]:
    """(deg c, e) of chi by brute force over every residue mod Q, none of it read off the exponents.

    chi is non-trivial on the component of the factor Q_i exactly when some
    unit f = 1 mod Q / Q_i has chi(f) != 1; its conductor c is the product
    of those Q_i.  e is 1 when chi(a) = 1 at every constant a = 1..q-1.
    """
    m = chi.modulus
    one = Poly.one(m.field)
    residues = [Poly.from_code(m.field, code) for code in range(m.field.q**m.n)]
    phases = [chi_eval(chi, f).phase for f in residues]
    deg_c = 0
    for Qi in m.irreducible_factors:
        rest = m.poly // Qi
        if any(ph not in (None, 0) for f, ph in zip(residues, phases) if f % rest == one % rest):
            deg_c += Qi.degree
    return deg_c, int(all(ph == 0 for ph in phases[1 : m.field.q]))  # codes 1..q-1 are the constants


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
    """Check each inverse root modulus against {1, sqrt(q)} at the given tolerance, one root at a time."""
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


def inverse_root_power_sum(L: LPolynomial, k: int) -> complex:
    """sum_i alpha_i^k over the extracted inverse roots."""
    if L.inverse_roots.size == 0:
        return 0j
    return complex((L.inverse_roots**k).sum())
