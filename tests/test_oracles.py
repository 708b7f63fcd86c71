"""Independent oracles from installed packages: sympy's galoistools, hypothesis and Python's repr."""

import os
import random
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402
from sympy.polys.domains import ZZ  # noqa: E402
from sympy.polys.galoistools import gf_factor, gf_irreducible_p  # noqa: E402

from ffchar import experiments, residue  # noqa: E402
from ffchar.algebra import Field, Poly, is_irreducible  # noqa: E402
from ffchar.experiments import (  # noqa: E402
    CSV_HEADER,
    ExperimentConfig,
    float_texts,
    run_corollary_grid,
    run_main_theorem_grid,
)
from ffchar.residue import Modulus  # noqa: E402
from phase_oracle import dlog, enumerate_monic, factorization_product, trial_factor  # noqa: E402


def _oracle_polys(q: int) -> list[Poly]:
    """Every monic f of degree <= D over F_q (q^D <= 729), plus random ones of degree <= 12, some non-monic."""
    F = Field.get(q)
    D = max(d for d in range(1, 10) if q**d <= 729)
    polys = [f for d in range(1, D + 1) for f in enumerate_monic(F, d)]
    rng = random.Random(q)
    for _ in range(150):
        d = rng.randrange(1, 13)
        lead = rng.randrange(1, q)
        polys.append(Poly(F, [rng.randrange(q) for _ in range(d)] + [lead]))
    return polys


def _galois(f: Poly) -> list[int]:
    """Coefficients highest first, as galoistools writes them."""
    return list(reversed(f.coeffs))


def modulus_or_refusal(f: Poly, factors) -> None:
    """Modulus(f) against the monic irreducible factors of f with multiplicities, sorted by (degree, code).

    Above 16 times the dense table limit Modulus refuses f; with a repeated
    factor it names every repeated one; otherwise it keeps the factors.
    """
    if f.field.q**f.degree > 16 * residue.FULL_TABLE_LIMIT:
        with pytest.raises(ValueError, match="16 times the dense table limit"):
            Modulus(f)
    elif any(m > 1 for _, m in factors):
        bad = [(str(g), m) for g, m in factors if m > 1]
        with pytest.raises(ValueError, match=re.escape(f"(repeated factors: {bad})")):
            Modulus(f)
    else:
        m = Modulus(f)
        assert m.poly == f.monic()
        assert m.irreducible_factors == tuple(g for g, _ in factors), str(f)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_modulus_factors_match_sympy_gf_factor(q):
    F = Field.get(q)
    for f in _oracle_polys(q):
        lc, factors = gf_factor(_galois(f), q, ZZ)
        assert int(lc) % q == f.coeffs[-1]
        polys = [(Poly(F, [int(c) % q for c in reversed(g)]), m) for g, m in factors]
        modulus_or_refusal(f, sorted(polys, key=lambda gm: (gm[0].degree, gm[0].code())))


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_is_irreducible_matches_sympy(q):
    for f in _oracle_polys(q):
        if f.is_monic:
            assert is_irreducible(f) == gf_irreducible_p(_galois(f), q, ZZ), str(f)


# small irreducible moduli over F_2, F_3, F_4 and F_5: unit groups of order 127, 80, 63 and 124
DLOG_MODULI = [Modulus.irreducible(Field.of_order(q), n) for q, n in ((2, 7), (3, 4), (4, 3), (5, 3))]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(DLOG_MODULI), st.data())
def test_dlog_of_a_product_is_the_sum_of_dlogs(m, data):
    """dlog(f g) = dlog f + dlog g mod q^n - 1, for f and g of degree up to 2n - 1."""
    q, n = m.field.q, m.n
    f, g = (Poly.from_code(m.field, data.draw(st.integers(1, q ** (2 * n) - 1))) for _ in range(2))
    assume(not (f % m.poly).is_zero and not (g % m.poly).is_zero)
    table = m.dlog_table
    assert dlog(table, f * g) == (dlog(table, f) + dlog(table, g)) % (q**n - 1)


def _poly(F: Field, data, max_degree: int) -> Poly:
    """A nonzero polynomial of degree <= max_degree over F, not always monic."""
    low = data.draw(st.lists(st.integers(0, F.q - 1), max_size=max_degree))
    return Poly(F, low + [data.draw(st.integers(1, F.q - 1))])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([4, 8, 9, 16, 25, 27]), st.data())
def test_modulus_factors_over_extension_fields_match_trial_division(q, data):
    """Modulus(f) against trial division by every monic polynomial, whose factors multiply back out to f.

    f = a * b^k with k in {1, 2, p}, so repeated factors and p-th powers
    (polynomials whose derivative is zero) come up as well as squarefree f.
    Trial division runs only where Modulus does not refuse f outright.
    """
    F = Field.of_order(q)
    k = data.draw(st.sampled_from([1, 2, F.p]))
    f = _poly(F, data, 6) * _poly(F, data, 2) ** k
    if q**f.degree > 16 * residue.FULL_TABLE_LIMIT:
        factors = ()
    else:
        factors = trial_factor(f)
        assert factorization_product(factors, F, f.coeffs[-1]) == f
        assert all(g.is_monic and is_irreducible(g) for g, _ in factors)
        keys = [(g.degree, g.code()) for g, _ in factors]
        assert keys == sorted(set(keys))
    if f.degree >= 1:
        modulus_or_refusal(f, factors)


# any float64 at all, and the values whose text is special
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e-4, 1e16]),
)


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.integers(0, 40), elements=FLOATS), st.booleans())
def test_float_texts_match_repr(col, strided):
    """Each float's text is its repr, for any column layout."""
    if strided:
        c = np.empty(col.size, dtype=np.complex128)
        c.imag = col
        col = c.imag
    assert float_texts(col) == list(map(repr, col.tolist()))


GRID_FILES = ("grid.csv", "grid.csv.jsonl", "grid.csv.ckpt")


def _grid_files(root: str, resume: bool = False, **grid) -> ExperimentConfig:
    return ExperimentConfig(out=os.path.join(root, GRID_FILES[0]), resume=resume, **grid)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_resume_after_a_crash_at_any_byte_is_byte_identical(data):
    """A run cut at any byte of its writes, then resumed, leaves the files of an uninterrupted run.

    The grid writes the CSV header, then each combo as a CSV block, a JSONL
    block and a checkpoint key, in that order, so a crash leaves every file
    cut where the stream of writes was cut; the last write may be torn at
    any byte.
    """
    q = data.draw(st.sampled_from([2, 3]))
    n = data.draw(st.integers(2, 6 if q == 2 else 4))
    d_lo = data.draw(st.integers(1, 6))
    r_lo = data.draw(st.integers(1, 6))
    grid = dict(
        q=q,
        ns=(n,),
        ds=tuple(range(d_lo, data.draw(st.integers(d_lo, 6)) + 1)),
        rs=tuple(range(r_lo, data.draw(st.integers(r_lo, 6)) + 1)),
        char_policy=data.draw(st.sampled_from(["all", "worst-case", "sample-k"])),
        sample_k=3,
        seed=data.draw(st.integers(0, 9)),
    )
    run = data.draw(st.sampled_from([run_main_theorem_grid, run_corollary_grid]))
    writes = []
    real = experiments._Sink.append

    def logged(sink, path, text):
        writes.append((os.path.basename(path), text.encode()))
        real(sink, path, text)

    with tempfile.TemporaryDirectory() as full, tempfile.TemporaryDirectory() as cut:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments._Sink, "append", logged)
            run(_grid_files(full, **grid))
        assert writes[0] == ("grid.csv", (CSV_HEADER + "\n").encode())
        want = {name: Path(full, name).read_bytes() for name in GRID_FILES}
        left = data.draw(st.integers(0, sum(len(text) for _, text in writes)))
        files = dict.fromkeys(GRID_FILES, b"")
        for name, text in writes:
            files[name] += text[:left]
            left -= min(left, len(text))
        for name, content in files.items():
            Path(cut, name).write_bytes(content)
        run(_grid_files(cut, resume=True, **grid))
        for name in GRID_FILES:
            assert Path(cut, name).read_bytes() == want[name], name
