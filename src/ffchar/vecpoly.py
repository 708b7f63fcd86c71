"""Batched polynomial arithmetic over small fields.

A monic polynomial of degree d is addressed by its slot j in [0, q^d): its
code is q^d + j, so the slot spells its lower coefficients in base q.
Codes are also base-p digit vectors (each F_q coefficient is e base-p
digits), and polynomial addition adds them digitwise mod p
(`vadd_poly_codes`).  A map that is F_p-linear on them, such as
multiplication by a fixed polynomial, is fixed by its images of the digit
basis p^k: `linear_map_table` tabulates it for every code by doubling over
the digit positions, and `linear_map_values` evaluates it on a batch.  Both
take one map, or a batch of maps given by an array of images per digit.
Every operation is exact integer work, so batch results agree bit for bit
with the scalar kernels in `algebra`.

The payoff is `max_factor_degree_profile`: the largest irreducible-factor
degree of every monic degree-d polynomial, by a multiplicative sieve (an
Eratosthenes sieve over F_q[t]).  By unique factorization every reducible
monic f of degree d is a product P*C with P irreducible of degree k < d and
C monic of degree d - k.  Sieving k = 1..d-1 in ascending order writes k
into the slot of every such product, so each slot ends with its largest
factor degree, and the slots never written are exactly the irreducibles.
The products come from digit doubling: code(P*C) is code(P*t^(d-k)) plus
code(P*c) for c = C - t^(d-k), and c -> code(P*c) is F_p-linear.  I_k is
read off the degree-k profile, so the profiles of every lower degree are
kept in one cache (`max_degree_profile_cached`), which powers both
exhaustive smooth counting and irreducible enumeration.
"""

from __future__ import annotations

import numpy as np

from .algebra import Field, digit_sum_table, monic_irreducible_count

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


def _mark_multiples(field: Field, out: np.ndarray, d: int, k: int, irr: np.ndarray) -> None:
    """Write k into the slot of P*C for every P in I_k and monic C of degree m = d - k.

    irr holds the slots of I_k.  slot(P*C) is slot(P)*q^m plus L_P(c),
    added coefficientwise, for c = C - t^m: L_P(c) = code(P*c) is F_p-linear
    in the m*e base-p digits of c, and L_P(u^l t^i) = code(P*u^l) * q^i.
    For a block of P at a
    time, each value of the high digits of c fixes an offset (its head), from
    which L_P is tabulated over the low digits by doubling; so a step forms
    about _SIEVE_PAIRS products and the working memory does not grow with q^d.
    """
    q, p, e, m = field.q, field.p, field.e, d - k
    lo = 1  # low digits of c, tabulated at once
    while lo < m * e and p ** (lo + 1) <= _SIEVE_PAIRS:
        lo += 1
    step_p = max(1, _SIEVE_PAIRS // p**lo)
    # P -> P*u^l is F_p-linear too: the image of P's digit i*e + j is code(u^j * u^l) * q^i
    times_u = [[field.mul(p ** (i % e), p**l) * q ** (i // e) for i in range((k + 1) * e)] for l in range(1, e)]
    shifts = q ** np.arange(m, dtype=np.int64)[:, None, None]
    for p0 in range(0, irr.size, step_p):
        slots = irr[p0 : p0 + step_p]
        codes = q**k + slots
        by_u = np.stack([codes] + [linear_map_values(field, codes, images, k + 1) for images in times_u])
        images = (shifts * by_u).reshape(m * e, slots.size)  # images[i*e + l] = code(P * u^l * t^i)
        heads = linear_map_values(field, np.arange(p ** (m * e - lo), dtype=np.int64), images[lo:], d, slots * q**m)
        for head in heads:
            out[linear_map_table(field, images[:lo], d, head)] = k


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
    g, table = digit_sum_table(p)
    out = np.zeros(np.broadcast(codes, c).shape, dtype=np.int64)
    rem, cc = codes, c
    shift = 1
    for lo in range(0, width * field.e, g):
        step = p ** min(g, width * field.e - lo)
        a, b = rem % step, cc % step
        out += (table[a, b] if table is not None else (a + b) % p) * np.int64(shift)
        rem, cc = rem // step, cc // step
        shift *= step
    return out


def _multiples(field: Field, codes, width: int) -> np.ndarray:
    """out[a] = a * codes for every a in F_p, coefficientwise: shape (p,) + codes.shape."""
    codes = np.asarray(codes, dtype=np.int64)
    out = np.stack([np.zeros_like(codes), codes])
    while len(out) < field.p:  # doubling over a: out[m + j] = out[j] + m * codes for m = len(out)
        m = len(out)
        m_codes = vadd_poly_codes(field, out[-1], codes, width)
        out = np.concatenate([out, m_codes[None], vadd_poly_codes(field, out[1 : field.p - m], m_codes, width)])
    return out


def linear_map_table(field: Field, images, width: int, offset=0) -> np.ndarray:
    """offset + L(x) for every code x in [0, p^len(images)), L an F_p-linear map on codes.

    Codes are base-p digit vectors (width coefficient slots of e digits
    each) and images[k] is the code of L(p^k).  images[k] may also be an
    array holding L(p^k) for a batch of maps, which are then tabulated side
    by side: entry [x, ...] belongs to the map at [...], and offset may be
    an array of that batch shape.  The table doubles over the digit
    positions from T[0] = offset, T[x + a*p^k] = T[x] + a*L(p^k) for
    x < p^k, so it takes one pass per digit position over the part built so
    far instead of one polynomial product per code.
    """
    images = np.asarray(images, dtype=np.int64)
    mults = _multiples(field, images, width)
    out = np.zeros((1,) + images.shape[1:], dtype=np.int64) + offset
    for k in range(images.shape[0]):
        added = vadd_poly_codes(field, out, mults[1:, k, None], width)
        out = np.concatenate([out[None], added]).reshape((-1,) + out.shape[1:])
    return out


def linear_map_values(field: Field, xs: np.ndarray, images, width: int, offset=0) -> np.ndarray:
    """offset + L(x) for each code in xs, L and offset as in `linear_map_table`.

    The result has shape xs.shape + images[k].shape.  One pass over xs per
    digit position, so no array outgrows the result.
    """
    images = np.asarray(images, dtype=np.int64)
    mults = _multiples(field, images, width)
    out = np.zeros(xs.shape + images.shape[1:], dtype=np.int64) + offset
    for k in range(images.shape[0]):
        out = vadd_poly_codes(field, out, mults[(xs // field.p**k) % field.p, k], width)
    return out
