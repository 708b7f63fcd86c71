"""Exact arithmetic in F_q (q = p^e) and the polynomial ring F_q[t].

Field elements are encoded as integers in [0, q): an element with power-basis
coordinates (c_0, ..., c_{e-1}) over F_p has code sum c_i p^i.  Polynomials
are tuples of element codes, lowest degree first, with no trailing zeros; the
zero polynomial is the empty tuple and its degree is None (there is no -inf
arithmetic anywhere, operations state nonzero/monic preconditions instead).

Enumeration order is fixed once and for all: the code of a polynomial is
sum coeff_i * q^i, and streams run over ascending codes, so the constant
term varies fastest.  "Least" polynomial always means least code.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .intfact import factor_integer, is_prime, prime_power

__all__ = [
    "Field",
    "Poly",
    "monic_code_range",
    "is_irreducible",
    "irreducibles_up_to",
    "monic_irreducible_count",
    "lex_least_irreducible",
    "digit_sum_table",
]

_EXTENSION_TABLE_LIMIT = 1 << 16  # q above this is out of scope


class Field:
    """F_q with q = p^e, interned so equal parameters give the same object.

    Scalar arithmetic works on integer codes.  Prime fields reduce mod p;
    extension fields use exp/log tables over a fixed multiplicative
    generator, built once at construction.  The defining polynomial is the
    least monic irreducible of degree e over F_p (least code), so every run
    constructs the same field.

    An element of F_q is a polynomial over F_p of degree < e in u, the root
    of the defining polynomial f; its code spells the coefficients in base p.
    So F_q is the residue ring F_p[u]/(f), and its tables are that ring's
    unit group as `residue` builds it for a modulus: g is the least code
    that passes the power test (`residue.least_generator`), and the exp and
    log tables are the digit-doubling walk of its powers
    (`residue.power_tables`).
    """

    _registry: dict = {}

    def __init__(self, p: int, e: int, defining_poly=None, _token=None):
        if _token is not Field._registry:
            raise TypeError("use Field.get(p, e)")
        self.p = p
        self.e = e
        self.q = p**e
        self.defining_poly: Optional[tuple[int, ...]] = defining_poly
        if e > 1:
            self._build_tables()

    @classmethod
    def get(cls, p: int, e: int = 1) -> "Field":
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        if p**e > _EXTENSION_TABLE_LIMIT:
            raise ValueError(f"q = {p}**{e} exceeds the supported bound 2^16")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        key = (p, e)
        if key not in cls._registry:
            mod = lex_least_irreducible(cls.get(p, 1), e).coeffs if e > 1 else None
            cls._registry[key] = cls(p, e, mod, _token=cls._registry)
        return cls._registry[key]

    @classmethod
    def of_order(cls, q: int) -> "Field":
        """Field with q elements; q must be a prime power, refused above 2^16 before it is factored."""
        if q > _EXTENSION_TABLE_LIMIT:
            raise ValueError(f"q = {q} exceeds the supported bound 2^16")
        return cls.get(*prime_power(q))

    # -- extension-field tables ------------------------------------------

    def _build_tables(self):
        from .residue import least_generator, power_tables  # residue builds on Field, so not at module level

        mod = Poly(Field.get(self.p), self.defining_poly)
        pw, self._log = power_tables(mod, least_generator(mod, factor_integer(self.q - 1)), self.q - 1)
        self._exp = np.concatenate([pw, pw]).astype(np.int32)
        if self.p > 2:  # characteristic 2 adds by xor
            g, self._add_table = digit_sum_table(self.p)  # p <= 256 whenever e > 1, so the table exists
            self._add_step = self.p**g

    # -- scalar arithmetic on codes --------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        step, table = self._add_step, self._add_table
        out, shift = 0, 1
        while a or b:
            out += int(table[a % step, b % step]) * shift
            a, b, shift = a // step, b // step, shift * step
        return out

    def neg(self, a: int) -> int:
        return self.mul(a, self.p - 1)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        return int(self._exp[self._log[a] + self._log[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return int(self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)])

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        if self.e == 1:
            return pow(a, n, self.p)
        if a == 0:
            return 0 if n else 1
        return int(self._exp[(self._log[a] * n) % (self.q - 1)])

    def __repr__(self):
        if self.e == 1:
            return f"Field(p={self.p})"
        return f"Field(p={self.p}, e={self.e}, q={self.q})"

    def __hash__(self):
        return hash((self.p, self.e, self.defining_poly))

    def __eq__(self, other):
        return self is other


@lru_cache(maxsize=None)
def digit_sum_table(p: int) -> tuple[int, Optional[np.ndarray]]:
    """(g, T): T[x, y] is the digitwise sum mod p of x, y < p^g, the widest g with p^g <= 256.

    (1, None) when p > 256: digits are then added one at a time.  The one
    digit-add table behind `Field.add` and `vecpoly.vadd_poly_codes`.

    T is int16, since every entry is below p^g <= 256.  It is built one
    digit position at a time: each position's term, its digit sum mod p
    times p^k, is made in place on one int16 temporary and added to T, so
    no temporary is larger than T.  A caller that scales entries by a digit
    group's shift multiplies by an int64 (`vadd_poly_codes`): NumPy 2 wraps
    an int16 array times a Python int that fits int16.
    """
    g = 0
    while p ** (g + 1) <= 256:
        g += 1
    if g == 0:
        return 1, None
    codes = np.arange(p**g, dtype=np.int16)
    table = np.zeros((p**g, p**g), dtype=np.int16)
    term = np.empty_like(table)
    for w in (p**k for k in range(g)):
        digits = codes // w % p
        np.add.outer(digits, digits, out=term)
        term %= p
        term *= w
        table += term
    table.flags.writeable = False
    return g, table


# ---------------------------------------------------------------------------
# tuple-level polynomial kernels (coefficients low to high, trimmed)
# ---------------------------------------------------------------------------


def _trim(c: Sequence[int]) -> tuple[int, ...]:
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _padd(F: Field, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = F.add(out[i], x)
    return _trim(out)


def _psub(F: Field, a, b):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, x in enumerate(b):
        out[i] = F.sub(out[i], x)
    return _trim(out)


def _pmul(F: Field, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    if F.e == 1:
        p = F.p
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % p
    else:
        mul, add = F.mul, F.add
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = add(out[i + j], mul(x, y))
    return _trim(out)


def _pdivmod(F: Field, a, m):
    if not m:
        raise ZeroDivisionError("division by zero polynomial")
    da, dm = len(a) - 1, len(m) - 1
    if da < dm:
        return (), a
    inv_lead = F.inv(m[-1])
    rem = list(a)
    quo = [0] * (da - dm + 1)
    for i in range(da, dm - 1, -1):
        c = rem[i]
        if c:
            c = F.mul(c, inv_lead)
            quo[i - dm] = c
            for j in range(dm + 1):
                rem[i - dm + j] = F.sub(rem[i - dm + j], F.mul(c, m[j]))
    return _trim(quo), _trim(rem)


def _pmod(F: Field, a, m):
    return _pdivmod(F, a, m)[1]


def _pgcd(F: Field, a, b):
    while b:
        a, b = b, _pmod(F, a, b)
    if a:
        inv_lead = F.inv(a[-1])
        if a[-1] != 1:
            a = tuple(F.mul(c, inv_lead) for c in a)
    return a


def _pmulmod(F: Field, a, b, m):
    return _pmod(F, _pmul(F, a, b), m)


def _ppowmod(F: Field, a, n: int, m):
    r = (1,)
    a = _pmod(F, a, m)
    while n:
        if n & 1:
            r = _pmulmod(F, r, a, m)
        n >>= 1
        if n:
            a = _pmulmod(F, a, a, m)
    return r


def _ppow(F: Field, a, n: int):
    r = (1,)
    while n:
        if n & 1:
            r = _pmul(F, r, a)
        n >>= 1
        if n:
            a = _pmul(F, a, a)
    return r


_X = (0, 1)


def _frobenius_iterates(F: Field, m, count: int):
    """Yield x^(q^j) mod m for j = 1..count."""
    h = _ppowmod(F, _X, F.q, m)
    yield h
    for _ in range(count - 1):
        h = _ppowmod(F, h, F.q, m)
        yield h


# ---------------------------------------------------------------------------
# public polynomial type
# ---------------------------------------------------------------------------


class Poly:
    """A polynomial over F_q in canonical form (no trailing zeros)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Sequence[int]):
        q = field.q
        for c in coeffs:
            if not 0 <= c < q:
                raise ValueError(f"coefficient code {c} out of range for q={q}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", _trim(tuple(int(c) for c in coeffs)))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # constructors

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def from_code(cls, field: Field, code: int) -> "Poly":
        q = field.q
        coeffs = []
        while code:
            coeffs.append(code % q)
            code //= q
        return cls(field, coeffs)

    @classmethod
    def from_string(cls, field: Field, text: str) -> "Poly":
        return _parse_poly(field, text)

    # structure

    @property
    def degree(self) -> Optional[int]:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def code(self) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * self.field.q + c
        return out

    # arithmetic

    def _wrap(self, coeffs) -> "Poly":
        p = object.__new__(Poly)
        object.__setattr__(p, "field", self.field)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    def __add__(self, other: "Poly") -> "Poly":
        return self._wrap(_padd(self.field, self.coeffs, other.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        return self._wrap(_pmul(self.field, self.coeffs, other.coeffs))

    def __pow__(self, n: int) -> "Poly":
        return self._wrap(_ppow(self.field, self.coeffs, n))

    def __divmod__(self, other: "Poly"):
        q, r = _pdivmod(self.field, self.coeffs, other.coeffs)
        return self._wrap(q), self._wrap(r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self._wrap(_pmod(self.field, self.coeffs, other.coeffs))

    def monic(self) -> "Poly":
        if self.is_zero or self.is_monic:
            return self
        inv = self.field.inv(self.coeffs[-1])
        return self._wrap(tuple(self.field.mul(c, inv) for c in self.coeffs))

    def powmod(self, n: int, modulus: "Poly") -> "Poly":
        return self._wrap(_ppowmod(self.field, self.coeffs, n, modulus.coeffs))

    # comparisons, hashing, rendering

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __str__(self):
        return _poly_to_str(self)

    def __repr__(self):
        return f"Poly(q={self.field.q}, {_poly_to_str(self)!r})"


def _poly_to_str(f: Poly) -> str:
    if f.is_zero:
        return "0"
    terms = []
    for i in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            var = "t" if i == 1 else f"t^{i}"
            terms.append(var if c == 1 else f"{c}*{var}")
    return "+".join(terms)


def _parse_poly(field: Field, text: str) -> Poly:
    """Parse either "1,1,0,1" (codes, low to high) or human form "t^3+t+1"."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    if "," in s or s.lstrip("-").isdigit():
        codes = [int(tok) % field.q for tok in s.split(",")]
        return Poly(field, codes)
    coeffs: dict[int, int] = {}
    s = s.replace("-", "+-")
    for term in s.split("+"):
        if not term:
            continue
        neg = term.startswith("-")
        if neg:
            term = term[1:]
        if "t" in term:
            head, _, tail = term.partition("t")
            coef = int(head.rstrip("*")) if head else 1
            power = int(tail[1:]) if tail.startswith("^") else (1 if not tail else None)
            if power is None:
                raise ValueError(f"cannot parse term {term!r}")
        else:
            coef = int(term)
            power = 0
        coef %= field.q
        if neg:
            coef = field.neg(coef)
        coeffs[power] = field.add(coeffs.get(power, 0), coef)
    width = max(coeffs) + 1 if coeffs else 0
    return Poly(field, [coeffs.get(i, 0) for i in range(width)])


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def monic_code_range(field: Field, d: int) -> range:
    """Codes of all monic polynomials of degree exactly d, in stream order."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    return range(field.q**d, 2 * field.q**d)


def monic_irreducible_count(q: int, k: int) -> int:
    """pi_k by the necklace formula (1/k) sum_{e|k} mu(e) q^(k/e)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # mu(e) vanishes off the squarefree e | k
    total = sum(mu * q ** (k // e) for e, mu in factor_integer(k).mobius_walk())
    if total % k:
        raise ArithmeticError(f"necklace sum {total} for q = {q} is not divisible by k = {k}")
    return total // k


def is_irreducible(f: Poly) -> bool:
    """Frobenius-based irreducibility test for monic f of degree >= 1.

    Checks x^(q^d) = x mod f together with gcd(x^(q^(d/l)) - x, f) = 1 for
    every prime l dividing d.
    """
    if not f.is_monic:
        raise ValueError("is_irreducible requires a monic polynomial")
    d = f.degree
    if d is None or d < 1:
        raise ValueError("is_irreducible requires degree >= 1")
    if d == 1:
        return True
    F = f.field
    m = f.coeffs
    need = {d // ell for ell in factor_integer(d).primes}
    h = None
    for j, hj in enumerate(_frobenius_iterates(F, m, d), start=1):
        if j in need:
            g = _pgcd(F, _psub(F, hj, _X), m)
            if g != (1,):
                return False
        if j == d:
            h = hj
    return h == _X


def lex_least_irreducible(field: Field, d: int) -> Poly:
    """The least-code monic irreducible of degree d (deterministic pick)."""
    for code in monic_code_range(field, d):
        f = Poly.from_code(field, code)
        if is_irreducible(f):
            return f
    raise AssertionError("no irreducible found")  # impossible: pi_d > 0


def irreducibles_up_to(field: Field, r: int) -> list[list[Poly]]:
    """[I_1, ..., I_r]: all monic irreducibles by degree, each list in code order.

    I_k is read straight off the multiplicative sieve in `vecpoly`: the slots
    of the degree-k factor-degree profile that hold k.  The sieve checks
    their number against the necklace formula.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    from .vecpoly import max_degree_profile_cached

    out = []
    for k in range(1, r + 1):
        slots = np.flatnonzero(max_degree_profile_cached(field, k) == k)
        out.append([Poly.from_code(field, field.q**k + int(j)) for j in slots])
    return out
