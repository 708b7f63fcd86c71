"""The quotient ring F_q[t]/(Q): unit group, generators, discrete logs.

Q must be squarefree (irreducible or a squarefree composite); anything else
is rejected at Modulus construction.  The unit group is a product of cyclic
components, one per irreducible factor Q_i, of order q^(deg Q_i) - 1.  Each
component gets a deterministic generator (least residue code that generates)
and a discrete-log table, a full lookup array over every residue code.

The factors Q_i come from trial division (`_distinct_factors`).  An
irreducible Q is its own factor; otherwise Q is divided by the sieve's monic
irreducibles of degree <= n/2 in (degree, code) order, and what is left once
2 deg P exceeds the degree of the rest is irreducible.  A Q with q^n above 16
times `FULL_TABLE_LIMIT` is refused before any division: over every
squarefree factor pattern of degree n, q^n / prod (q^(n_i) - 1) stays below
2^3.4 (an exact knapsack over the irreducible counts for n < 60; beyond that
every factor but t and t+1 over F_2 has q^k - 1 >= q^(k/2)), so such a unit
group is above the limit anyway, and the divisors never exceed degree 13.
The canonical modulus (`Modulus.irreducible`) is refused on q^n alone,
before the search for the least irreducible of degree n.

Every table, histogram and character-sum spectrum built from these logs is a
dense array over residue codes or over the whole unit group.  One limit,
`FULL_TABLE_LIMIT`, bounds them all, and two sites enforce it, each reading
it at call time before anything is allocated: `dense_group_order` refuses a
unit group above it (each component order is at most the group order), and
`lfun.prime_sum_spectrum` refuses a prime degree k with q^k above it.

The full table is built by digit doubling (`power_tables`).  Multiplication
by g mod Q_i is F_p-linear on the base-p digits of residue codes, so it is
tabulated for every code at once (`vecpoly.linear_map_table`).  Walking 1
and the digit basis B = isqrt(N) + 1 steps through that table (N the
component order) gives the first B powers of g and the images of
multiplication by g^B, which is tabulated the same way; each later block of
B powers is one gather from the block before it.  The build checks g^B
against a scalar power, that the powers fill every unit slot and that the
walk closes, g^N = 1 through the tabulated map.

The generator search (`least_generator`), its power test (`generates`) and
the walk take Q_i, g and N, not a `Modulus`: `Field` builds the exp/log
tables of F_q = F_p[u]/(f) with the same search and walk over F_p.

Reducing the monic degree-d stream mod Q_i is linear in the same way: the
code of f is t^d + hi * t^n + lo, and the reduced head (t^d + hi * t^n) mod
Q_i is computed for every block index hi of a slice in one pass per base-p
digit of hi, then added to lo.  This is the one route from a slice to its
dlogs (`DlogTable.dlogs_of_monic_degree`), and its result is a fresh array.
Below deg Q_i every hi is 0 and the head is t^d, so f mod Q_i = lo + t^d;
the flat dlog sums each component's dlog times its stride, and a unit group
of one component is the stride-1 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .algebra import Field, Poly, irreducibles_up_to, is_irreducible, lex_least_irreducible
from .intfact import FactoredInteger, factor_integer
from .vecpoly import linear_map_table, linear_map_values, vadd_poly_codes

__all__ = [
    "Modulus",
    "UnitComponent",
    "UnitGroupView",
    "DlogTable",
    "dense_group_order",
    "find_generator",
    "generates",
    "least_generator",
    "power_tables",
]

FULL_TABLE_LIMIT = 1 << 22  # the most entries a dense table, histogram or spectrum may hold


class Modulus:
    """A squarefree modulus Q with its factor structure.

    Q is made monic; its distinct irreducible factors, sorted by (degree,
    code), come from `_distinct_factors`, which refuses a Q with q^n above
    16 times `FULL_TABLE_LIMIT` before any division and a Q with a repeated
    factor.
    """

    def __init__(self, poly: Poly):
        if poly.is_zero or poly.degree < 1:
            raise ValueError("modulus must have degree >= 1")
        if not poly.is_monic:
            poly = poly.monic()
        self.field: Field = poly.field
        self.poly: Poly = poly
        self.n: int = poly.degree
        self.irreducible_factors: tuple[Poly, ...] = _distinct_factors(poly)
        self.kind: str = (
            "irreducible" if len(self.irreducible_factors) == 1 else "squarefree-composite"
        )

    @classmethod
    def irreducible(cls, field: Field, n: int) -> "Modulus":
        """The canonical degree-n modulus: least monic irreducible.

        n < 1, and q^n above 16 times `FULL_TABLE_LIMIT` as `_distinct_factors`
        refuses it, are refused before the search for Q.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        _check_residue_count(field, n)
        return cls(lex_least_irreducible(field, n))

    @property
    def is_irreducible(self) -> bool:
        return self.kind == "irreducible"

    @cached_property
    def unit_group(self) -> "UnitGroupView":
        return find_generator(self)

    @cached_property
    def dlog_table(self) -> "DlogTable":
        return DlogTable(self)

    def __eq__(self, other):
        return isinstance(other, Modulus) and self.field is other.field and self.poly == other.poly

    def __hash__(self):
        return hash((id(self.field), self.poly.coeffs))

    def __repr__(self):
        return f"Modulus(q={self.field.q}, Q={self.poly})"


def _check_residue_count(field: Field, n: int, Q: Optional[Poly] = None) -> None:
    """ValueError when q^n exceeds 16 times `FULL_TABLE_LIMIT`, read at call time (module docstring).

    The message names Q, or the degree and the field when Q is not known yet.
    """
    size = field.q**n
    if size > 16 * FULL_TABLE_LIMIT:
        what = f"the degree-{n} modulus over F_{field.q}" if Q is None else f"modulus {Q}"
        raise ValueError(
            f"{what} has q^n = {size} residues, above 16 times the dense table limit {FULL_TABLE_LIMIT}, "
            "so its unit group is above the limit too"
        )


def _distinct_factors(Q: Poly) -> tuple[Poly, ...]:
    """The distinct monic irreducible factors of the monic Q, sorted by (degree, code).

    Trial division by the sieve's irreducibles of degree <= n/2 (module
    docstring).  ValueError for q^n above 16 times `FULL_TABLE_LIMIT`, read
    at call time and checked before any division, and for a repeated factor.
    """
    field, n = Q.field, Q.degree
    _check_residue_count(field, n, Q)
    if is_irreducible(Q):
        return (Q,)
    factors, bad, rest = [], [], Q
    for P in (P for level in irreducibles_up_to(field, n // 2) for P in level):
        if 2 * P.degree > rest.degree:
            break
        m = 0
        while (rest % P).is_zero:
            rest, m = rest // P, m + 1
        if m:
            factors.append(P)
        if m > 1:
            bad.append((str(P), m))
    if bad:
        raise ValueError(
            f"modulus {Q} is not squarefree (repeated factors: {bad}); "
            "only irreducible or squarefree-composite moduli are supported"
        )
    if rest.degree >= 1:
        factors.append(rest)
    return tuple(factors)


@dataclass(frozen=True)
class UnitComponent:
    """One cyclic factor: residues mod the irreducible Q_i."""

    poly: Poly
    degree: int
    order: int
    generator: Poly


class UnitGroupView:
    """Unit group of F_q[t]/(Q) as a product of verified cyclic components."""

    def __init__(self, modulus: Modulus, components: tuple[UnitComponent, ...]):
        self.modulus = modulus
        self.components = components
        self.group_order = math.prod(c.order for c in components)
        self.component_orders = tuple(c.order for c in components)
        # row-major strides: unit with component dlogs (x_i) has flat index sum x_i * s_i
        strides = [1] * len(components)
        for i in range(len(components) - 2, -1, -1):
            strides[i] = strides[i + 1] * max(self.component_orders[i + 1], 1)
        self.flat_strides = tuple(strides)

    def __repr__(self):
        return f"UnitGroupView({self.modulus!r}, order={self.group_order})"


def generates(x: Poly, Qi: Poly, fact: FactoredInteger) -> bool:
    """Power test: the residue x mod the irreducible Qi has the full order fact.value.

    True iff x^(m/l) != 1 mod Qi for every prime l dividing m = fact.value.
    """
    one = Poly.one(Qi.field)
    return all(x.powmod(fact.value // ell, Qi) != one for ell in fact.primes)


def least_generator(Qi: Poly, fact: FactoredInteger) -> Poly:
    """The least residue code that generates the units mod the irreducible Qi, of order fact.value."""
    field = Qi.field
    for code in range(1, field.q**Qi.degree):
        x = Poly.from_code(field, code)
        if generates(x, Qi, fact):
            return x
    raise ArithmeticError(f"no generator found mod {Qi}")  # cyclic group: impossible


def power_tables(Qi: Poly, g: Poly, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(pw, log): pw[i] is the code of g^i mod Qi for i < N, and log[pw[i]] = i.

    g must generate the N units mod the irreducible Qi; log has one entry per
    residue code, -1 at zero.  The walk doubles over digits (module
    docstring) and checks g^B against a scalar power, that the powers fill
    every unit slot and that the walk closes.
    """
    field = Qi.field
    B = min(math.isqrt(N) + 1, N)
    # x -> x * g mod Qi is F_p-linear on the base-p digits of codes
    basis = field.p ** np.arange(Qi.degree * field.e, dtype=np.int64)
    images = [(Poly.from_code(field, int(b)) * g % Qi).code() for b in basis]
    times_g = linear_map_table(field, images, Qi.degree)
    pw = np.empty(N, dtype=np.int64)
    # walk 1 and the digit basis B steps: g^0..g^(B-1), then g^B and the images of x -> x * g^B
    cur = np.concatenate([[1], basis])
    for i in range(B):
        pw[i] = cur[0]
        cur = times_g[cur]
    del times_g
    if cur[0] != g.powmod(B, Qi).code():
        raise ArithmeticError(f"the tabulated map x -> x * g mod {Qi} does not reach g^{B}")
    step = linear_map_table(field, cur[1:], Qi.degree)
    for s in range(B, N, B):
        end = min(s + B, N)
        pw[s:end] = step[pw[s - B : end - B]]
    log = np.full(field.q**Qi.degree, -1, dtype=np.int64)
    log[pw] = np.arange(N, dtype=np.int64)
    # a generator fills every unit slot; a smaller power cycle revisits slots
    filled = int(np.count_nonzero(log >= 0))
    if filled != N:
        raise ArithmeticError(f"{g} reaches {filled} of the {N} units mod {Qi}: not a generator")
    # the walk closes, g^(N - B + j) * g^B = g^j, only if every image it used was right
    if not np.array_equal(step[pw[N - B :]], pw[:B]):
        raise ArithmeticError(f"the tabulated map x -> x * g^{B} mod {Qi} does not close the power walk")
    return pw, log


def find_generator(modulus: Modulus) -> UnitGroupView:
    """Verified generator per component, deterministically the least one.

    A candidate g passes iff g^(m/l) != 1 for every prime l dividing the
    component order m; the first residue in enumeration order that passes is
    kept, so every run picks the same generators.
    """
    comps = []
    q = modulus.field.q
    for Qi in modulus.irreducible_factors:
        ni = Qi.degree
        order = q**ni - 1
        fact = factor_integer(order)
        comps.append(UnitComponent(Qi, ni, order, least_generator(Qi, fact)))
    return UnitGroupView(modulus, tuple(comps))


def dense_group_order(modulus: Modulus) -> int:
    """The order of the unit group mod Q, refused with ValueError above `FULL_TABLE_LIMIT`.

    Dlog tables, dlog histograms and character-sum spectra are all dense
    arrays over (a component of) the group; the limit is read at call time.
    """
    order = modulus.unit_group.group_order
    if order > FULL_TABLE_LIMIT:
        raise ValueError(
            f"unit group mod {modulus.poly} has order {order}, above the dense table limit {FULL_TABLE_LIMIT}"
        )
    return order


class DlogTable:
    """Discrete logs to the per-component generators.

    Every component gets a full table, g^i -> i for the whole component: a
    numpy int64 array indexed by residue code, -1 at zero (`power_tables`).
    A unit group above `FULL_TABLE_LIMIT` is refused with ValueError before
    any table is built (`dense_group_order`).  Every slice of the monic
    stream takes the one affine route (module docstring), whatever its degree
    and the number of components, and is a fresh array, never a table view.
    """

    def __init__(self, modulus: Modulus):
        dense_group_order(modulus)
        self.modulus = modulus
        self.units = modulus.unit_group
        self.logs = [power_tables(c.poly, c.generator, c.order)[1] for c in self.units.components]

    def dlogs_of_monic_degree(self, d: int, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """Flat dlog of (f mod Q) for the monic degree-d stream slice [start, stop), a fresh array.

        Non-units (f sharing a factor Q_i with Q) come back as -1.
        """
        field = self.modulus.field
        q = field.q
        total = q**d
        if stop is None:
            stop = total
        if not 0 <= start <= stop <= total:
            raise ValueError("bad slice")
        flat = np.zeros(stop - start, dtype=np.int64)
        nonunit = np.zeros(stop - start, dtype=bool)
        for table, c, s in zip(self.logs, self.units.components, self.units.flat_strides):
            Qi, n = c.poly, c.degree
            # f = t^d + hi * t^n + lo with lo < q^n, so f mod Q_i = lo + head(hi), where
            # head(hi) = (t^d + hi * t^n) mod Q_i is affine in the base-p digits of hi
            block = q**n
            hi, lo = np.divmod(np.arange(start, stop, dtype=np.int64), block)
            hi0 = start // block
            images = [(Poly.from_code(field, field.p**k * block) % Qi).code() for k in range((d - n) * field.e)]
            his = np.arange(hi0, (stop - 1) // block + 1, dtype=np.int64)
            heads = linear_map_values(field, his, images, n, (Poly.from_code(field, total) % Qi).code())
            x = table[vadd_poly_codes(field, lo, heads[hi - hi0], n)]
            nonunit |= x < 0
            flat += x * s
        flat[nonunit] = -1
        return flat
