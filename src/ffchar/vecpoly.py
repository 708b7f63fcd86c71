"""Batched polynomial arithmetic over small fields.

A monic polynomial of degree d is addressed by its slot j in [0, q^d): its
code is q^d + j, so the slot spells its lower coefficients in base q.
Coefficients travel as digit rows: an array whose row i holds c_i of every
polynomial in a batch as an F_q element code.  Every operation is exact
integer work (the field's vectorized mod-p arithmetic or exp/log table
gathers), so batch results agree bit for bit with the scalar kernels in
`algebra`.

The payoff is `max_factor_degree_profile`: the largest irreducible-factor
degree of every monic degree-d polynomial, by a multiplicative sieve (an
Eratosthenes sieve over F_q[t]).  By unique factorization every reducible
monic f of degree d is a product P*C with P irreducible of degree k < d and
C monic of degree d - k.  Sieving k = 1..d-1 in ascending order writes k
into the slot of every such product, so each slot ends with its largest
factor degree, and the slots never written are exactly the irreducibles.
I_k is read off the degree-k profile, so the profiles of every lower degree
are kept in one cache (`max_degree_profile_cached`), which powers both
exhaustive smooth counting and irreducible enumeration.

Codes are also base-p digit vectors (each F_q coefficient is e base-p
digits), and polynomial addition adds them digitwise mod p
(`vadd_poly_codes`).  A map that is F_p-linear on them, such as
multiplication by a fixed residue mod Q, is fixed by its images of the
digit basis p^k: `linear_map_table` tabulates it for every code by doubling
over the digit positions, and `linear_map_values` evaluates it on a batch.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from .algebra import Field, monic_irreducible_count

__all__ = [
    "max_factor_degree_profile",
    "max_degree_profile_cached",
    "vadd_poly_codes",
    "linear_map_table",
    "linear_map_values",
]

#: (P, C) products formed per sieve step; bounds its working memory
_SIEVE_PAIRS = 1 << 15

_profiles: dict[tuple[Field, int], np.ndarray] = {}


def _monic_rows(field: Field, slots: np.ndarray, width: int) -> np.ndarray:
    """(width + 1, N) coefficients c_0..c_width of the monic polys in the given slots."""
    q = field.q
    out = np.ones((width + 1, slots.size), dtype=np.int64)
    rem = slots
    for i in range(width):
        out[i] = rem % q
        rem = rem // q
    return out


def _mark_multiples(field: Field, out: np.ndarray, d: int, k: int, irr: np.ndarray) -> None:
    """Write k into the slot of P*C for every P in I_k and monic C of degree d - k.

    irr holds the slots of I_k.  Pairs (P, C) are formed a bounded block at a
    time, so the working memory does not grow with q^d.
    """
    q, m = field.q, d - k
    n_cof = q**m
    step_c = min(n_cof, _SIEVE_PAIRS)
    step_p = max(1, _SIEVE_PAIRS // step_c)
    weights = q ** np.arange(d, dtype=np.int64)
    for p0 in range(0, irr.size, step_p):
        P = _monic_rows(field, irr[p0 : p0 + step_p], k)[:, :, None]
        for c0 in range(0, n_cof, step_c):
            C = _monic_rows(field, np.arange(c0, min(c0 + step_c, n_cof), dtype=np.int64), m)[:, None, :]
            prod = np.zeros((d, P.shape[1], C.shape[2]), dtype=np.int64)
            for i in range(k + 1):
                for j in range(m + 1):
                    if i + j < d:  # i + j == d is the implicit leading 1
                        prod[i + j] = field.vadd(prod[i + j], field.vmul(P[i], C[j]))
            out[np.tensordot(weights, prod, axes=1).ravel()] = k


def max_factor_degree_profile(field: Field, d: int) -> np.ndarray:
    """Largest irreducible-factor degree of every monic degree-d poly.

    Returns an int8 array of length q^d in code order (entry j describes the
    polynomial with code q^d + j).  Exhaustive and exact: the multiplicative
    sieve over the cached profiles of degrees 1..d-1, whose unwritten slots
    are checked against the necklace count pi_d.
    """
    if d < 0:
        raise ValueError("degree must be >= 0")
    if d == 0:
        return np.zeros(1, dtype=np.int8)
    out = np.full(field.q**d, d, dtype=np.int8)  # the sieve writes only k < d
    for k in range(1, d):
        _mark_multiples(field, out, d, k, np.flatnonzero(max_degree_profile_cached(field, k) == k))
    found, expected = int(np.count_nonzero(out == d)), monic_irreducible_count(field.q, d)
    if found != expected:
        raise ArithmeticError(
            f"sieve left {found} slots of degree {d} unwritten, necklace formula says pi_{d} = {expected}"
        )
    return out


def max_degree_profile_cached(field: Field, d: int) -> np.ndarray:
    """`max_factor_degree_profile(field, d)`, computed once and kept read-only."""
    key = (field, d)
    profile = _profiles.get(key)
    if profile is None:
        profile = max_factor_degree_profile(field, d)
        profile.flags.writeable = False
        _profiles[key] = profile
    return profile


@functools.cache
def _digit_sum_table(p: int) -> tuple[int, Optional[np.ndarray]]:
    """(g, T): T[x, y] is the digitwise sum mod p of x, y < p^g, the widest g with p^g <= 256.

    (1, None) when p > 256: digits are then added one at a time.
    """
    g = 0
    while p ** (g + 1) <= 256:
        g += 1
    if g == 0:
        return 1, None
    weights = p ** np.arange(g, dtype=np.int64)
    digits = (np.arange(p**g, dtype=np.int64)[:, None] // weights) % p
    table = ((digits[:, None, :] + digits[None, :, :]) % p) @ weights
    table.flags.writeable = False
    return g, table


def vadd_poly_codes(field: Field, codes: np.ndarray, c, width: int) -> np.ndarray:
    """Coefficientwise sum of the polynomials with codes c and codes.

    c is one code or an array of codes broadcast against codes.  width
    bounds the number of base-q coefficient slots touched.  For
    characteristic 2 this is a plain xor; otherwise base-p digits are added
    mod p, several digits per table lookup.
    """
    if field.p == 2:
        return np.bitwise_xor(codes, c)
    p = field.p
    g, table = _digit_sum_table(p)
    out = np.zeros(np.broadcast(codes, c).shape, dtype=np.int64)
    rem, cc = codes, c
    shift = 1
    for lo in range(0, width * field.e, g):
        step = p ** min(g, width * field.e - lo)
        a, b = rem % step, cc % step
        out += (table[a, b] if table is not None else (a + b) % p) * shift
        rem, cc = rem // step, cc // step
        shift *= step
    return out


def _digit_multiples(field: Field, code: int, width: int) -> np.ndarray:
    """[a * code for a in F_p]: the code added to itself a times, coefficientwise."""
    out = np.zeros(field.p, dtype=np.int64)
    for a in range(1, field.p):
        out[a] = vadd_poly_codes(field, out[a - 1], code, width)
    return out


def linear_map_table(field: Field, images: list[int], width: int) -> np.ndarray:
    """L(x) for every code x in [0, p^len(images)), L an F_p-linear map on codes.

    Codes are base-p digit vectors (width coefficient slots of e digits
    each) and images[k] is the code of L(p^k).  The table doubles over the
    digit positions, L[x + a*p^k] = L[x] + a*L(p^k) for x < p^k, so it
    takes one pass per digit value and position over the part built so far
    instead of one polynomial product per code.
    """
    out = np.zeros(1, dtype=np.int64)
    for img in images:
        out = np.concatenate([vadd_poly_codes(field, out, m, width) for m in _digit_multiples(field, img, width)])
    return out


def linear_map_values(field: Field, xs: np.ndarray, images: list[int], width: int) -> np.ndarray:
    """L(x) for each code in xs, L given by images as in `linear_map_table`.

    One pass over xs per digit position, so no array outgrows xs.
    """
    out = np.zeros(xs.shape, dtype=np.int64)
    for k, img in enumerate(images):
        digit = (xs // field.p**k) % field.p
        out = vadd_poly_codes(field, out, _digit_multiples(field, img, width)[digit], width)
    return out
