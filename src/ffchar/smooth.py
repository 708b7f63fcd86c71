"""Smooth polynomials: exact counts, smooth character sums, Dickman density.

N(d, r) counts the r-smooth monic polynomials of degree d (no irreducible
factor of degree above r).  Two fully independent routes are implemented and
must agree exactly:

* generating function: N(d, r) is the z^d coefficient of
  prod_{k<=r} (1 - z^k)^(-pi_k), computed in integer power-series arithmetic
  with pi_k from the necklace formula;
* enumeration: classify every monic degree-d polynomial by its maximal
  factor degree (the multiplicative sieve over F_q[t] from `vecpoly`).

Character sums over the r-smooth slice come from the same chunked dlog
histogram as A(d, chi) (`characters.dlog_histogram`), restricted to the
slots whose factor-degree profile is <= r.  That costs q^d per (d, r), not
N(d, r), but A_d already pays q^d and the profile is computed once per
(field, d) and shared by every r and every modulus.  The histogram total is
checked against N(d, r) from the generating function on every call.

The Dickman function rho solves u rho(u) = int_{u-1}^u rho with rho = 1 on
[0, 1].  Unit panels carry degree-16 Chebyshev expansions obtained by
integrating rho(t-1)/t panel by panel.  The march is performed in mpmath
working precision sized to u_max: each panel end multiplies relative error
by roughly rho(m)/rho(m+1), so a double-precision march is garbage long
before u = 30 (verified: negative values by u = 20).  Evaluation reads the
finished panel coefficients as doubles, which keeps it cheap and accurate to
~1e-14 relative: Clenshaw's recurrence on Python floats, in the operation
order of numpy's `chebval`, so its values are chebval's bit for bit without
importing `numpy.polynomial`.

The default table (u_max = 30) serves every u <= 30 and is a fixed
constant: its panels ship in `dickman_panels`, bit for bit what the march
gives, so no process marches them or imports mpmath.  A table beyond u = 30
marches all its panels once, at construction; callers build one table for
the largest u they need.

The epsilon bound of the main theorem, rho(d/r) q^(C2 d log d / r^2) +
C3 n q^(-r/2), and the theorem's range live here too, next to rho, their one
dependency: the grid reads them without loading `primitive`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import dickman_panels
from .algebra import Field, monic_irreducible_count
from .intfact import prime_power
from .vecpoly import max_degree_profile_cached

if TYPE_CHECKING:
    from .residue import Modulus

__all__ = [
    "smooth_count",
    "smooth_count_by_enumeration",
    "smooth_dlog_histogram",
    "DickmanTable",
    "march_dickman_panels",
    "dickman_rho",
    "EpsilonBound",
    "epsilon_bound",
    "in_theorem_range",
    "default_dickman_table",
    "dickman_residual",
    "soundararajan_check",
    "SoundararajanReport",
]


# ---------------------------------------------------------------------------
# exact counting
# ---------------------------------------------------------------------------


def smooth_count(q: int, d: int, r: int) -> int:
    """Exact N(d, r) via integer power-series coefficient extraction."""
    prime_power(q)  # ValueError unless q is a prime power
    if d < 0:
        raise ValueError("d must be >= 0")
    if r < 1:
        raise ValueError("r must be >= 1")
    series = [0] * (d + 1)
    series[0] = 1
    for k in range(1, min(r, d) + 1):
        pk = monic_irreducible_count(q, k)
        new = [0] * (d + 1)
        for j in range(d // k + 1):
            c = math.comb(pk - 1 + j, j)
            for i in range(d - k * j + 1):
                if series[i]:
                    new[i + k * j] += c * series[i]
        series = new
    return series[d]


def smooth_count_by_enumeration(field: Field, d: int, r: int) -> int:
    """Independent exhaustive count: classify every f in A_d by max factor degree."""
    if r < 1:
        raise ValueError("r must be >= 1")
    profile = max_degree_profile_cached(field, d)
    return int((profile <= r).sum())


# ---------------------------------------------------------------------------
# smooth character sums
# ---------------------------------------------------------------------------


def smooth_dlog_histogram(modulus: Modulus, d: int, r: int, workers: int = 1) -> tuple[np.ndarray, int]:
    """(flattened-dlog histogram, non-unit count) over the r-smooth slice of A_d.

    The slice of `dlog_histogram`, with its `workers`, checked against the
    independent count N(d, r) from the generating function; it plays the
    same role for P(d, r) that `unit_dlog_histogram` plays for A_d, so the
    bulk DFT path applies.
    """
    from .characters import dlog_histogram  # imported here: counting smooth polynomials needs no modulus

    expected = smooth_count(modulus.field.q, d, r)
    hist, nonunits = dlog_histogram(modulus, d, r, workers)
    if int(hist.sum()) + nonunits != expected:
        raise ArithmeticError(
            f"{r}-smooth slice of A_{d} holds {int(hist.sum())} units + {nonunits} non-units, "
            f"not N(d, r) = {expected}"
        )
    return hist, nonunits


def all_smooth_char_sums(modulus: Modulus, d: int, r: int, workers: int = 1) -> np.ndarray:
    """Smooth-slice sums for every chi_k, k-indexed as `dual_group_sums` (DFT bulk)."""
    from .characters import dual_group_sums

    hist, _ = smooth_dlog_histogram(modulus, d, r, workers)
    return dual_group_sums(modulus.unit_group.component_orders, hist)


# ---------------------------------------------------------------------------
# Dickman function
# ---------------------------------------------------------------------------


def march_dickman_panels(u_max: int) -> np.ndarray:
    """rho's first u_max Chebyshev panels, marched in mpmath: shape (u_max, DEGREE + 2).

    Panel m + 1 integrates rho(t - 1) / t over panel m.  Every step runs at
    the working precision u_max fixes, and the finished coefficients are
    rounded to doubles.  This is the only code that needs mpmath, so it is
    imported here, not with the module.
    """
    import mpmath

    N = dickman_panels.DEGREE
    # precision sized to the total decay: log10(1/rho(u_max)) ~ u log10 u
    dps = max(50, 40 + int(1.7 * u_max * math.log10(max(u_max, 2))))

    def clenshaw(c, x):
        b1 = b2 = 0
        for ck in reversed(c[1:]):
            b1, b2 = 2 * x * b1 - b2 + ck, b1
        return x * b1 - b2 + c[0]

    out = np.zeros((u_max, N + 2), dtype=np.float64)
    with mpmath.workdps(dps):
        one = mpmath.mpf(1)
        xs = [mpmath.cos(mpmath.pi * j / N) for j in range(N + 1)]
        cosjk = [[mpmath.cos(mpmath.pi * j * k / N) for j in range(N + 1)] for k in range(N + 1)]
        cur = [one] + [mpmath.mpf(0)] * N  # rho = 1 on [0, 1]
        for m in range(u_max):
            if m:
                prev = cur
                # rho(t - 1) / t at the Chebyshev nodes of [m, m + 1], then its coefficients
                gv = []
                for x in xs:
                    t = m + (x + one) / 2
                    gv.append(clenshaw(prev, 2 * (t - m) - 1) / t)  # rho(t - 1) in [m - 1, m] local coords
                gc = []
                for k in range(N + 1):
                    s = mpmath.mpf(0)
                    for j in range(N + 1):
                        w = one / 2 if j in (0, N) else one
                        s += w * gv[j] * cosjk[k][j]
                    gc.append(2 * s / N)
                gc[0] /= 2
                gc[N] /= 2
                anti = [mpmath.mpf(0)] * (N + 2)
                anti[1] = (2 * gc[0] - gc[2]) / 2
                for k in range(2, N + 1):
                    anti[k] = (gc[k - 1] - (gc[k + 1] if k + 1 <= N else 0)) / (2 * k)
                anti[N + 1] = gc[N] / (2 * (N + 1))
                anti = [a / 2 for a in anti]  # dt = dx/2 on a unit panel
                cur = [-a for a in anti]
                cur[0] += clenshaw(prev, one) + clenshaw(anti, -one)
            for k, ck in enumerate(cur):
                out[m, k] = float(ck)
    return out


class DickmanTable:
    """Unit panels of Chebyshev coefficients for rho on [0, u_max].

    The u_max = 30 table reads its panels from `dickman_panels`; any other
    marches all of them at construction (`march_dickman_panels`).
    """

    def __init__(self, u_max: int = 30):
        if u_max < 1:
            raise ValueError(f"u_max must be >= 1, got {u_max}")
        self.u_max = int(u_max)
        shipped = self.u_max == dickman_panels.U_MAX
        self._panels = dickman_panels.PANELS if shipped else march_dickman_panels(self.u_max)

    def panel(self, m: int) -> np.ndarray:
        """Coefficients of panel m (rho on [m, m + 1])."""
        if not 0 <= m < self.u_max:
            raise ValueError(f"panel {m} outside the table range {self.u_max}")
        return self._panels[m]

    def rho(self, u: float) -> float:
        if u < 0:
            raise ValueError("rho is defined for u >= 0")
        if u > self.u_max:
            raise ValueError(f"u = {u} beyond the table range {self.u_max}")
        if u <= 1.0:
            return 1.0
        # from u = 30 on, an integer u is read at the right end of panel u - 1,
        # which every table reaching u has, so rho(u) does not depend on the
        # table's size
        m = min(math.ceil(u) - 1 if u >= dickman_panels.U_MAX else math.floor(u), self.u_max - 1)
        x = 2.0 * (u - m) - 1.0
        # Clenshaw's recurrence in the operation order of numpy's chebval, so bit for bit its value
        c = self._panels[m].tolist()
        x2 = 2.0 * x
        c0, c1 = c[-2], c[-1]
        for ck in reversed(c[:-2]):
            c0, c1 = ck - c1, c0 + c1 * x2
        return c0 + c1 * x

    def rho_many(self, us) -> np.ndarray:
        return np.array([self.rho(float(u)) for u in np.atleast_1d(us)])


_default_table: Optional[DickmanTable] = None


def default_dickman_table(u_max: int = 30) -> DickmanTable:
    global _default_table
    if u_max < 1:
        raise ValueError(f"u_max must be >= 1, got {u_max}")
    if _default_table is None or _default_table.u_max < u_max:
        _default_table = DickmanTable(u_max=max(u_max, 30))
    return _default_table


def dickman_rho(u: float) -> float:
    """rho(u) from the default panel table; grows the table on demand.  ValueError for u < 0."""
    return default_dickman_table(int(math.ceil(u)) if u > 30 else 30).rho(u)


# ---------------------------------------------------------------------------
# epsilon bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpsilonBound:
    """rho(d/r) q^(C2 d log d / r^2) + C3 n q^(-r/2)."""

    value: float
    q: int
    d: int
    r: int
    n: int
    C2: float
    C3: float


def epsilon_bound(q: int, d: int, r: int, n: int, C2: float = 1.0, C3: float = 1.0) -> EpsilonBound:
    if d < 1 or r < 1:
        raise ValueError("need d >= 1 and r >= 1")
    logd = math.log(d) if d > 1 else 0.0
    main = dickman_rho(d / r) * q ** (C2 * d * logd / (r * r))
    tail = C3 * n * q ** (-r / 2.0)
    return EpsilonBound(main + tail, q, d, r, n, C2, C3)


def in_theorem_range(q: int, d: int, r: int, n: int) -> bool:
    """2 log_q n <= r <= d <= n: the range of the main theorem."""
    return 2 * math.log(n, q) <= r <= d <= n


def dickman_residual(table: DickmanTable, u: float) -> float:
    """|u rho(u) - int_{u-1}^u rho| via independent 64-node Gauss-Legendre quadrature.

    The quadrature splits at integer points: rho is analytic inside unit
    panels but loses derivatives at the panel joints, which would stall a
    single Gauss rule across them.
    """
    if u <= 1:
        return 0.0
    nodes, weights = np.polynomial.legendre.leggauss(64)
    cuts = [u - 1.0]
    cuts += [float(j) for j in range(math.ceil(u - 1.0), math.floor(u) + 1) if u - 1.0 < j < u]
    cuts.append(u)
    integral = 0.0
    for a, b in zip(cuts, cuts[1:]):
        if b <= a:
            continue
        ts = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        integral += 0.5 * (b - a) * float(np.dot(weights, table.rho_many(ts)))
    return abs(u * table.rho(u) - integral)


# ---------------------------------------------------------------------------
# smooth-count vs Dickman prediction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SoundararajanReport:
    """Exact N(d, r) against the q^d rho(d/r) prediction."""

    q: int
    d: int
    r: int
    n_exact: int
    prediction: float
    ratio: float
    normalized_exponent: Optional[float]  # log_q(ratio) * r^2 / (d log d)

    CSV_HEADER = "d,r,N_exact,qd_rho,ratio,normalized_exponent"  # the columns of csv_row

    def csv_row(self) -> str:
        ne = "" if self.normalized_exponent is None else repr(self.normalized_exponent)
        return f"{self.d},{self.r},{self.n_exact},{self.prediction!r},{self.ratio!r},{ne}"


def soundararajan_check(q: int, d: int, r: int) -> SoundararajanReport:
    if d < 1 or r < 1:
        raise ValueError("need d >= 1 and r >= 1")
    n_exact = smooth_count(q, d, r)
    rho = dickman_rho(d / r)
    prediction = float(q**d) * rho
    ratio = float(n_exact) / prediction
    if d >= 2:
        norm = math.log(ratio, q) * r * r / (d * math.log(d))
    else:
        norm = None
    return SoundararajanReport(q, d, r, n_exact, prediction, ratio, norm)
