"""Primitive-element densities in F_q[t]/(Q) and the sieve quantities.

A unit of the cyclic group (F_q[t]/(Q))^* of order N-1 is primitive iff
its discrete logarithm j to the canonical generator is prime to N-1, so
every primitive count here reads the dlog histogram through the one mask
gcd(j, N-1) = 1 (`_primitive_dlogs`); the generator itself is certified by
the power test in `residue`.  Each entry point takes the `Modulus` it
measures first, with its unit group and dlog table.  Q must be irreducible:
a composite Q has no primitive element, and all three entry points refuse it
through `_factored_order`, which hands them N-1 factored.  They share the
A_d histogram with its character sums (`_spectrum`) and one (m, mu(m)) walk
over the squarefree divisors of N-1 (`FactoredInteger.mobius_walk`).

The indicator of primitivity on the unit group decomposes over characters:
f(x) = sum over squarefree m | N-1 of mu(m)/m times the sum of chi(x) over
the m characters with chi^m principal, the chi_k with (N-1)/m | k.  It is
read by index: chi_k(g^j) from one table of roots of unity, the sums of the
m characters over A_d as a stride-(N-1)/m slice of the spectrum, and S_m
(units with m | dlog) as a stride-m slice of the histogram.  Summed over
A_d, f is the main term q^d phi(N-1)/(N-1) plus character-sum corrections,
which `density_experiment` measures; the sieve recounts it from the S_m.

Densities and targets are carried as exact rationals; floating point enters
only through character-sum magnitudes and the epsilon bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional

import numpy as np

from .characters import dual_group_sums, unit_dlog_histogram
from .intfact import FactoredInteger, factor_integer
from .residue import Modulus
from .smooth import EpsilonBound, epsilon_bound, in_theorem_range

__all__ = [
    "EpsilonBound",
    "epsilon_bound",
    "in_theorem_range",
    "best_epsilon_bound",
    "schedule_degree",
    "IndicatorReport",
    "primitivity_indicator_check",
    "DensityReport",
    "density_experiment",
    "SieveReport",
    "sieve_quantities",
    "report_json",
]


# ---------------------------------------------------------------------------
# the best epsilon bound over r and the degree schedule (the bound is `smooth`'s)
# ---------------------------------------------------------------------------


def best_epsilon_bound(q: int, d: int, n: int, C2: float = 1.0, C3: float = 1.0) -> EpsilonBound:
    """Minimum of the bound over r = 1..d (the free smoothness parameter)."""
    if d < 1:
        raise ValueError(f"need d >= 1, got d = {d}")
    best = None
    for r in range(1, d + 1):
        cand = epsilon_bound(q, d, r, n, C2, C3)
        if best is None or cand.value < best.value:
            best = cand
    return best


def schedule_degree(q: int, n: int, eps: float, C: float) -> int:
    """The degree d = (2 log_q n + 2 log_q(1/eps)) C log(1/eps)/loglog(1/eps).

    C is a caller-supplied constant (no default is asserted), finite and
    positive; eps must be below 1/e so the iterated logarithm is positive.
    """
    if not 0 < eps < 1 / math.e:
        raise ValueError("eps must lie in (0, 1/e)")
    if not 0 < C < math.inf:
        raise ValueError(f"C must be finite and > 0, got {C}")
    L = math.log(1 / eps)
    d = (2 * math.log(n, q) + 2 * math.log(1 / eps, q)) * C * L / math.log(L)
    return max(1, math.ceil(d))


# ---------------------------------------------------------------------------
# indicator reconstruction
# ---------------------------------------------------------------------------


@dataclass
class IndicatorReport:
    """Characterwise indicator vs direct primitivity, on units and over A_d.

    The principal character sums the unit count of A_d, which is q^d only
    while d < n; main_term uses the exact unit count so the decomposition
    identity is exact for every d.
    """

    q: int
    n: int
    group_order: int
    phi: int
    max_unit_deviation: float
    primitive_count_units: int
    d: Optional[int] = None
    total_over_Ad: Optional[float] = None
    direct_count_Ad: Optional[int] = None
    unit_count_Ad: Optional[int] = None
    main_term: Optional[Fraction] = None  # unit_count * phi / (N-1)
    correction: Optional[float] = None

    @property
    def decomposition_error(self) -> Optional[float]:
        if self.d is None:
            return None
        return abs(float(self.main_term) + self.correction - self.direct_count_Ad)


def primitivity_indicator_check(modulus: Modulus, d: Optional[int] = None, workers: int = 1) -> IndicatorReport:
    """Verify f(x) = sum_{m | N-1} mu(m)/m sum_{chi^m principal} chi(x) pointwise.

    The right side is summed as honest complex numbers (roots of unity from
    exact phases); the left side is the dlog predicate gcd(j, N-1) = 1 on
    the unit of dlog j.  With d given, the same decomposition is summed over
    A_d and compared to the direct primitive count.
    """
    fact = _factored_order(modulus, "the indicator decomposition")
    order = fact.value  # N - 1
    walk = fact.mobius_walk()
    # rhs[j] adds chi_k(g^j) = roots[j k mod (N-1)] for k = 0, (N-1)/m, 2 (N-1)/m, ... in order, in reused buffers
    js = np.arange(order, dtype=np.int64)
    roots = np.exp(2j * np.pi * js / order)
    rhs, term, idx = np.zeros(order, dtype=np.complex128), np.empty(order, dtype=np.complex128), np.empty_like(js)
    for m, mu in walk:
        inner = np.zeros(order, dtype=np.complex128)
        for k in range(0, order, order // m):
            inner += roots.take(np.remainder(np.multiply(js, k, out=idx), order, out=idx), out=term)
        rhs += (mu / m) * inner
    indicator = _primitive_dlogs(order)
    max_dev = float(np.max(np.abs(rhs - indicator)))
    prim_units = int(indicator.sum())
    rep = IndicatorReport(
        q=modulus.field.q,
        n=modulus.n,
        group_order=order,
        phi=fact.phi,
        max_unit_deviation=max_dev,
        primitive_count_units=prim_units,
    )
    if d is None:
        return rep
    # decomposition summed over A_d
    hist, sums = _spectrum(modulus, d, workers)
    unit_count = int(hist.sum())
    total = 0j
    correction = 0j  # nonprincipal character contributions only
    for m, mu in walk:
        inner = _sum_chi_m_principal(sums, m)
        total += (mu / m) * inner
        if m > 1:
            inner_np = inner - sums[0]  # drop the principal term
            correction += (mu / m) * inner_np
    rep.d = d
    rep.total_over_Ad = float(total.real)
    rep.direct_count_Ad = _primitive_count(hist)
    rep.unit_count_Ad = unit_count
    rep.main_term = Fraction(unit_count) * Fraction(fact.phi, order)
    rep.correction = float(correction.real)
    return rep


def _factored_order(modulus: Modulus, what: str) -> FactoredInteger:
    """N-1, the order of the unit group mod Q, factored; ValueError when Q is composite, since then no unit is primitive."""
    if not modulus.is_irreducible:
        raise ValueError(f"{what} needs an irreducible modulus")
    return factor_integer(modulus.unit_group.group_order)


def _spectrum(modulus: Modulus, d: int, workers: int) -> tuple[np.ndarray, np.ndarray]:
    """(hist, sums): the unit dlog histogram of A_d and A(d, chi) for every chi, from that one histogram."""
    hist, _ = unit_dlog_histogram(modulus, d, workers)
    return hist, dual_group_sums(modulus.unit_group.component_orders, hist)


def _primitive_dlogs(order: int) -> np.ndarray:
    """The mask over dlogs j < order in a cyclic group: g^j generates iff gcd(j, order) = 1."""
    return np.gcd(np.arange(order, dtype=np.int64), order) == 1


def _primitive_count(hist: np.ndarray) -> int:
    """|Q(d)|: the units a dlog histogram of a cyclic group counts at dlogs prime to its order."""
    return int(hist[_primitive_dlogs(len(hist))].sum())


def _congruence_counts(hist: np.ndarray, divisors: list[int]) -> dict[int, int]:
    """S_m for each m: the units a dlog histogram counts at dlogs divisible by m."""
    return {m: int(hist[::m].sum()) for m in divisors}


def _sum_chi_m_principal(sums: np.ndarray, m: int) -> complex:
    """`sums` over the m characters with chi^m principal, indices i (N-1)/m, i < m, left to right, not pairwise."""
    return sum(sums[:: len(sums) // m])


def report_json(rep) -> dict:
    """A density or sieve report as its JSON document, one key per field in field order.

    Q_text is written as "Q"; a Fraction as "num/den", followed by its float
    under "<name>_float"; dict keys as str.
    """
    doc = {}
    for f in fields(rep):
        value = getattr(rep, f.name)
        name = "Q" if f.name == "Q_text" else f.name
        if isinstance(value, Fraction):
            doc[name] = f"{value.numerator}/{value.denominator}"
            doc[f"{name}_float"] = float(value)
        elif isinstance(value, dict):
            doc[name] = {str(k): v for k, v in value.items()}
        else:
            doc[name] = value
    return doc


# ---------------------------------------------------------------------------
# density experiment
# ---------------------------------------------------------------------------


@dataclass
class DensityReport:
    """Primitive density over A_d against phi(N-1)/(N-1), with exact bounds.

    char_bound_holds certifies the decomposition inequality
    |count - units * phi/(N-1)| <= 2^omega * max|A(d, chi)|, which reduces
    to the density form when d < n (all of A_d then consists of units).
    """

    q: int
    n: int
    d: int
    Q_text: str
    count: int
    unit_count: int
    density: Fraction
    target: Fraction
    deviation: Fraction
    omega: int
    eps: float
    eps_r: int
    predicted_bound: float  # 2^omega * eps
    max_char_norm: float  # max over nonprincipal chi of |A(d, chi)| / q^d
    char_bound: float  # 2^omega * max_char_norm
    char_bound_holds: bool


def density_experiment(modulus: Modulus, d: int, C2: float = 1.0, C3: float = 1.0, workers: int = 1) -> DensityReport:
    """Count primitive f in A_d mod the irreducible Q of `modulus`.

    The density and its target phi(N-1)/(N-1) stay exact rationals; the
    report pairs the observed deviation with the epsilon bound and with the
    exact character-sum bound 2^omega max |A(d, chi)| / q^d from the
    indicator decomposition.
    """
    fact = _factored_order(modulus, "the density experiment")
    q, n, order = modulus.field.q, modulus.n, fact.value
    hist, sums = _spectrum(modulus, d, workers)
    count = _primitive_count(hist)
    unit_count = int(hist.sum())
    density = Fraction(count, q**d)
    target = Fraction(fact.phi, order)
    deviation = abs(density - target)
    max_norm = float(np.max(np.abs(sums[1:])) / q**d) if order > 1 else 0.0
    eb = best_epsilon_bound(q, d, n, C2, C3)
    omega = fact.omega
    char_bound = 2.0**omega * max_norm
    decomposition_gap = abs(float(Fraction(count) - Fraction(unit_count) * target))
    return DensityReport(
        q=q,
        n=n,
        d=d,
        Q_text=str(modulus.poly),
        count=count,
        unit_count=unit_count,
        density=density,
        target=target,
        deviation=deviation,
        omega=omega,
        eps=eb.value,
        eps_r=eb.r,
        predicted_bound=2.0**omega * eb.value,
        max_char_norm=max_norm,
        char_bound=char_bound,
        char_bound_holds=bool(decomposition_gap <= char_bound * q**d + 1e-9),
    )


# ---------------------------------------------------------------------------
# sieve quantities
# ---------------------------------------------------------------------------


@dataclass
class SieveReport:
    """S_m, T, A, B for the shifted-sieve route to the primitive count."""

    q: int
    n: int
    d: int
    Q_text: str
    radical: int
    S: dict[int, int]  # m | radical -> count of units with dlog = 0 mod m
    T: int  # sum over m | radical of mu(m) S_m: the units with gcd(dlog, radical) = 1
    primitive_count_direct: int  # units with gcd(dlog, N-1) = 1
    A: int  # q^d
    B_observed: Fraction  # max_m |S_m - A/m|
    char_identity_max_err: float  # S_m vs (1/m) sum_{chi^m principal} A(d, chi)
    eps: float
    eps_B: float  # q^d * eps
    B_within_eps: bool
    lower_bound: Optional[float] = None  # c1 A/(log l + 1)^2 - c2 l^2 B, if constants given


def sieve_quantities(
    modulus: Modulus, d: int, c1: Optional[float] = None, c2: Optional[float] = None, workers: int = 1
) -> SieveReport:
    """Exact S_m for every m dividing the radical of N-1, plus T, A, B.

    Gamma = A_d, U = dlog to the canonical generator, W = 1.  T is the
    inclusion-exclusion sum over the S_m, sum_{m | radical} mu(m) S_m, and
    must equal the direct primitive count, the units at dlogs prime to N-1
    in the same histogram; each S_m is also checked against the character
    identity S_m = (1/m) sum over chi with chi^m principal of A(d, chi).
    The sieve lower bound takes caller-supplied c1 and c2, both or neither;
    one alone, or both when N-1 = 1 has no prime factor, is refused first.
    """
    if (c1 is None) != (c2 is None):
        raise ValueError("the sieve lower bound takes both constants c1 and c2, or neither")
    fact = _factored_order(modulus, "the sieve")
    q, n, ell = modulus.field.q, modulus.n, fact.omega
    with_bound = c1 is not None
    if with_bound and ell == 0:
        raise ValueError(f"the sieve lower bound takes log omega(N-1), and N-1 = {fact.value} has no prime factor")
    walk = fact.mobius_walk()
    hist, sums = _spectrum(modulus, d, workers)
    S = _congruence_counts(hist, [m for m, _ in walk])
    # inclusion-exclusion: the units whose dlog no prime of the radical divides
    T = sum(mu * S[m] for m, mu in walk)
    A = q**d
    B_obs = max(abs(Fraction(A, m) - S[m]) for m in S)
    max_err = max(abs(_sum_chi_m_principal(sums, m) / m - S[m]) for m in S)
    eb = best_epsilon_bound(q, d, n)
    lower = None
    if with_bound:
        lower = c1 * A / (math.log(ell) + 1) ** 2 - c2 * ell * ell * float(A) * eb.value
    return SieveReport(
        q=q,
        n=n,
        d=d,
        Q_text=str(modulus.poly),
        radical=fact.radical,
        S=S,
        T=T,
        primitive_count_direct=_primitive_count(hist),
        A=A,
        B_observed=B_obs,
        char_identity_max_err=float(max_err),
        eps=eb.value,
        eps_B=float(A) * eb.value,
        B_within_eps=bool(float(B_obs) <= float(A) * eb.value + 1e-9),
        lower_bound=lower,
    )
