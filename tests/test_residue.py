import math

import numpy as np
import pytest

from ffchar import algebra, residue
from ffchar.algebra import Field, Poly, monic_irreducible_count
from ffchar.cli import main
from ffchar.intfact import factor_integer
from ffchar.residue import (
    DlogTable,
    Modulus,
    UnitComponent,
    UnitGroupView,
    dense_group_order,
    find_generator,
    power_tables,
)
from phase_oracle import (
    NotAUnitError,
    dlog,
    enumerate_monic,
    flat_dlog,
    irreducible_flat_dlogs,
    is_primitive,
    modulus_from_text,
)

F2 = Field.get(2)
F3 = Field.get(3)
F4 = Field.of_order(4)


def scalar_dlog_table(field, comp):
    """Oracle for the doubling build: one product and one reduction per power g^i."""
    table = np.full(field.q**comp.degree, -1, dtype=np.int64)
    cur = Poly.one(field)
    for i in range(comp.order):
        table[cur.code()] = i
        cur = (cur * comp.generator) % comp.poly
    return table


def is_primitive_via_dlog(f, modulus):
    """The dlog side of the power-test oracle: f != 0 mod Q and gcd(dlog(f), N-1) = 1."""
    if (f % modulus.poly).is_zero:
        return False
    order = modulus.field.q**modulus.n - 1
    return math.gcd(dlog(modulus.dlog_table, f), order) == 1


def test_generator_smallest_case():
    m = modulus_from_text(F2, "t^2+t+1")
    view = find_generator(m)
    g = view.components[0].generator
    assert g == Poly(F2, (0, 1))
    # powering oracle: t^3 = 1 and t != 1 mod Q
    assert g.powmod(3, m.poly) == Poly.one(F2)
    assert g.powmod(1, m.poly) != Poly.one(F2)
    assert view.group_order == 3


def test_generator_trivial_group():
    m = modulus_from_text(F2, "t")
    view = m.unit_group
    assert view.group_order == 1
    assert view.components[0].generator == Poly.one(F2)


def test_generator_q3_linear():
    m = modulus_from_text(F3, "t")
    view = m.unit_group
    assert view.group_order == 2
    assert view.components[0].generator == Poly(F3, (2,))
    # oracle: 2^2 = 1 and 2 != 1 in F_3
    assert F3.mul(2, 2) == 1


def test_generator_order_verified_exhaustively():
    for F, n in [(F2, 4), (F3, 3)]:
        m = Modulus.irreducible(F, n)
        g = m.unit_group.components[0].generator
        order = F.q**n - 1
        seen = set()
        cur = Poly.one(F)
        for _ in range(order):
            seen.add(cur.code())
            cur = (cur * g) % m.poly
        assert len(seen) == order  # g really generates everything


def test_modulus_rejects_non_squarefree():
    with pytest.raises(ValueError, match="squarefree"):
        modulus_from_text(F2, "t^2")
    with pytest.raises(ValueError, match="squarefree"):
        modulus_from_text(F2, "t^2+1")  # (t+1)^2


def test_modulus_kinds():
    assert modulus_from_text(F2, "t^2+t+1").kind == "irreducible"
    assert modulus_from_text(F2, "t^2+t").kind == "squarefree-composite"


def test_dlog_basics():
    m = Modulus.irreducible(F2, 4)  # order 15
    table = m.dlog_table
    g = m.unit_group.components[0].generator
    assert dlog(table, Poly.one(F2)) == 0
    assert dlog(table, g) == 1
    assert dlog(table, g.powmod(5, m.poly)) == 5


def test_dlog_rejects_non_units():
    m = Modulus.irreducible(F2, 3)
    with pytest.raises(NotAUnitError):
        dlog(m.dlog_table, m.poly)
    with pytest.raises(NotAUnitError):
        dlog(m.dlog_table, Poly(F2, ()))


def test_dlog_is_group_isomorphism():
    # dlog(a*b) = dlog(a) + dlog(b) mod N-1, exhaustively on small fields
    for F, n in [(F2, 4), (F3, 2)]:
        m = Modulus.irreducible(F, n)
        t = m.dlog_table
        order = F.q**n - 1
        units = [Poly.from_code(F, c) for c in range(1, F.q**n)]
        logs = {u.code(): dlog(t, u) for u in units}
        assert sorted(logs.values()) == list(range(order))  # bijection
        for a in units[:6]:
            for b in units:
                ab = (a * b) % m.poly
                assert logs[ab.code()] == (logs[a.code()] + logs[b.code()]) % order


def test_composite_modulus_dlog_componentwise():
    # squarefree composite: t * (t^2+t+1)
    m = Modulus(Poly.from_string(F2, "t") * Poly.from_string(F2, "t^2+t+1"))
    assert m.kind == "squarefree-composite"
    table = m.dlog_table
    assert m.unit_group.component_orders == (1, 3)
    val = dlog(table, Poly.one(F2))
    assert val == (0, 0)
    with pytest.raises(NotAUnitError):
        dlog(table, Poly(F2, (0, 1)))


def test_vector_dlogs_match_scalar_below_n():
    m = Modulus.irreducible(F2, 5)
    t = m.dlog_table
    vec = t.dlogs_of_monic_degree(3)
    for j, f in enumerate(enumerate_monic(F2, 3)):
        assert vec[j] == dlog(t, f)


def test_vector_dlogs_match_scalar_at_and_above_n():
    for F, n, d in [(F2, 3, 5), (F2, 4, 4), (F3, 2, 3)]:
        m = Modulus.irreducible(F, n)
        t = m.dlog_table
        vec = t.dlogs_of_monic_degree(d)
        for j, f in enumerate(enumerate_monic(F, d)):
            r = f % m.poly
            if r.is_zero:
                assert vec[j] == -1
            else:
                assert vec[j] == dlog(t, r)


def test_vector_dlogs_slicing():
    m = Modulus.irreducible(F2, 4)
    t = m.dlog_table
    whole = t.dlogs_of_monic_degree(5)
    parts = np.concatenate(
        [t.dlogs_of_monic_degree(5, 0, 7), t.dlogs_of_monic_degree(5, 7, 32)]
    )
    assert np.array_equal(whole, parts)


def test_slices_below_the_modulus_degree_are_fresh_arrays():
    # an irreducible modulus (one component) and a composite one (three)
    for F, text in [(F2, "t^7+t+1"), (F2, "t^3+t^2+t")]:
        t = modulus_from_text(F, text).dlog_table
        before = [log.copy() for log in t.logs]
        for d in range(t.modulus.n):
            vec = t.dlogs_of_monic_degree(d)
            assert not any(np.shares_memory(vec, log) for log in t.logs), (text, d)
            vec[:] = 999
        assert all(np.array_equal(log, old) for log, old in zip(t.logs, before)), text


COMPOSITES = [(F2, "t^3+t^2+t"), (F3, "t^3+2t"), (F4, "t^2+t")]


def test_vector_flat_dlogs_match_scalar_on_composites():
    for F, text in COMPOSITES:
        m = modulus_from_text(F, text)
        t = m.dlog_table
        for d in range(m.n + 4):
            vec = t.dlogs_of_monic_degree(d)
            want = [flat_dlog(t, f) for f in enumerate_monic(F, d)]
            assert vec.tolist() == want
            mid = F.q**d // 3
            parts = np.concatenate([t.dlogs_of_monic_degree(d, 0, mid), t.dlogs_of_monic_degree(d, mid)])
            assert np.array_equal(parts, vec)


IRREDUCIBLES = [(F2, "t^4+t+1"), (F3, "t^3+2t+1"), (F4, "t^2+t+2")]


def test_prime_histogram_matches_scalar_route(monkeypatch):
    """The histogram the prime spectrum transforms, A_k less its (k-1)-smooth slice, is that of the scalar dlogs of I_k."""
    from ffchar import lfun
    from ffchar.characters import dual_group_sums

    seen = []

    def recorded(orders, hist):
        seen.append(hist.copy())
        return dual_group_sums(orders, hist)

    monkeypatch.setattr(lfun, "dual_group_sums", recorded)
    # k from 1 to deg Q + 3: below, at and above the degree of the modulus
    for F, text in COMPOSITES + IRREDUCIBLES:
        m = modulus_from_text(F, text)
        for k in range(1, m.n + 4):
            flat = irreducible_flat_dlogs(m, k)
            want = np.bincount(flat[flat >= 0], minlength=m.unit_group.group_order)
            got = lfun.prime_sum_spectrum(m, k)
            assert np.array_equal(seen.pop(), want), (text, k)
            assert np.array_equal(got, dual_group_sums(m.unit_group.component_orders, want)), (text, k)


def test_table_above_the_limit_is_refused(monkeypatch, capsys):
    monkeypatch.setattr(residue, "FULL_TABLE_LIMIT", 14)  # just below the order 15 of t^4+t+1
    m = modulus_from_text(F2, "t^4+t+1")
    with pytest.raises(ValueError, match="order 15"):
        m.dlog_table
    # one component too large refuses the whole table
    with pytest.raises(ValueError, match="order 15"):
        modulus_from_text(F2, "t^5+t^2+t").dlog_table  # t * (t^4+t+1)
    # every command that needs a dense array over the group stops at the same check
    commands = [
        ["density", "--q", "2", "--n", "4", "--d", "3"],
        ["weil", "--q", "2", "--n", "4"],
        ["primes-bound", "--q", "2", "--n", "4", "--k", "3"],
    ]
    errors = []
    for argv in commands:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors == ["error: unit group mod t^4+t+1 has order 15, above the dense table limit 14\n"] * 3


def test_full_table_rejects_a_non_generator():
    # t^3 has order 5 in the order-15 unit group mod t^4+t+1: g^15 = 1 holds,
    # but its powers reach only 5 of the 15 units
    m = modulus_from_text(F2, "t^4+t+1")
    g = Poly.from_string(F2, "t^3")
    comp = UnitComponent(m.poly, 4, 15, g)
    m.__dict__["unit_group"] = UnitGroupView(m, (comp,))
    with pytest.raises(ArithmeticError, match="not a generator"):
        DlogTable(m)


@pytest.mark.parametrize("q,ns", [(2, range(1, 9)), (3, range(1, 6)), (4, range(1, 5)), (5, range(1, 4)), (8, range(1, 4)), (9, range(1, 4))])
def test_doubling_table_matches_scalar_walk(q, ns):
    F = Field.of_order(q)
    for n in ns:
        m = Modulus.irreducible(F, n)
        (comp,) = m.unit_group.components
        table = power_tables(comp.poly, comp.generator, comp.order)[1]
        assert np.array_equal(table, scalar_dlog_table(F, comp)), (q, n)


def test_doubling_table_matches_scalar_walk_on_composite_components():
    # linear factors give components of order 1 (F_2) and 2 (F_3)
    for F, text in COMPOSITES:
        m = modulus_from_text(F, text)
        for comp in m.unit_group.components:
            table = power_tables(comp.poly, comp.generator, comp.order)[1]
            assert np.array_equal(table, scalar_dlog_table(F, comp)), (text, str(comp.poly))


def test_table_build_checks_the_tabulated_map(monkeypatch):
    m = Modulus.irreducible(F2, 6)
    g, N = m.unit_group.components[0].generator, 63
    real = residue.linear_map_table

    def corrupted(code, calls=None):
        seen = []

        def build(*args):
            out = real(*args).copy()
            seen.append(code)
            if calls is None or len(seen) in calls:
                out[code] = 0 if out[code] != 0 else 1
            return out

        return build

    # g^0 = 1 is read by both walks: its chain collapses onto the zero residue
    monkeypatch.setattr(residue, "linear_map_table", corrupted(1))
    with pytest.raises(ArithmeticError):
        DlogTable(m)
    # g^(N-1) is read only by the closing step g^(N-1) * g^B = g^(B-1)
    monkeypatch.setattr(residue, "linear_map_table", corrupted(g.powmod(N - 1, m.poly).code()))
    with pytest.raises(ArithmeticError, match="does not close"):
        DlogTable(m)
    # the first table, x -> x * g, alone: its walk of 1 misses the scalar g^B
    monkeypatch.setattr(residue, "linear_map_table", corrupted(1, calls={1}))
    with pytest.raises(ArithmeticError, match="does not reach"):
        DlogTable(m)


def test_primitivity_generator_and_one():
    m = Modulus.irreducible(F2, 4)
    fact = factor_integer(15)
    g = m.unit_group.components[0].generator
    assert is_primitive(g, m, fact)
    assert not is_primitive(Poly.one(F2), m, fact)
    assert not is_primitive(Poly(F2, ()), m, fact)


def test_primitive_count_is_phi():
    m = Modulus.irreducible(F2, 4)
    fact = factor_integer(15)
    count = sum(is_primitive(Poly.from_code(F2, c), m, fact) for c in range(16))
    assert count == fact.phi == 8


def test_both_primitivity_tests_agree_exhaustively():
    # power test vs dlog, over prime fields and the extension field F_4
    for F, ns in [(F2, range(2, 9)), (F3, range(2, 6)), (F4, range(1, 5))]:
        for n in ns:
            m = Modulus.irreducible(F, n)
            fact = factor_integer(F.q**n - 1)
            total = 0
            for c in range(F.q**n):
                a = is_primitive(Poly.from_code(F, c), m, fact)
                b = is_primitive_via_dlog(Poly.from_code(F, c), m)
                assert a == b, (F.q, n, c)
                total += a
            assert total == fact.phi


def least_unit_group_orders(q: int, n_max: int) -> list[int]:
    """[m_0, ..., m_n_max]: m_n is the least prod (q^(n_i) - 1) over squarefree factor patterns of degree n.

    A bounded knapsack over the degrees k: at most pi_k factors of degree k,
    each contributing q^k - 1.
    """
    best = [1] + [None] * n_max
    for k in range(1, n_max + 1):
        new = list(best)
        for j, prod in enumerate(best):
            if prod is None:
                continue
            for c in range(1, min(monic_irreducible_count(q, k), (n_max - j) // k) + 1):
                prod *= q**k - 1
                if new[j + c * k] is None or prod < new[j + c * k]:
                    new[j + c * k] = prod
        best = new
    return best


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 257])
def test_refused_moduli_have_unit_groups_above_the_limit(q):
    """q^n > 16 L implies that every squarefree Q of degree n has a unit group above L, for n < 60.

    So refusing Q on q^n alone turns away no Q whose dlog table fits.
    """
    least = least_unit_group_orders(q, 59)
    limit = residue.FULL_TABLE_LIMIT
    for n in range(1, 60):
        assert q**n <= 2**3.4 * least[n], (q, n)  # the ratio the module docstring states
        if q**n > 16 * limit:
            assert least[n] > limit, (q, n)


def test_refusal_edges_over_F2(monkeypatch, capsys):
    # 2^26 = 16 L: t * (t+1) * (t^4+t^3+t^2+t+1) * (t^20+t^15+t^10+t^5+1) is factored, then refused for its order
    m = modulus_from_text(F2, "t^26+t")
    assert [P.degree for P in m.irreducible_factors] == [1, 1, 4, 20]
    with pytest.raises(ValueError, match="has order 15728625, above the dense table limit 4194304"):
        dense_group_order(m)

    # 2^27 > 16 L: refused before any polynomial division
    def no_division(*args):
        raise AssertionError("a polynomial division ran")

    monkeypatch.setattr(algebra, "_pdivmod", no_division)
    with pytest.raises(ValueError, match="q\\^n = 134217728 residues, above 16 times the dense table limit 4194304"):
        modulus_from_text(F2, "t^27+t")
    assert main(["weil", "--q", "2", "--n", "27", "--Q", "t^27+t^2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: modulus t^27+t^2 has q^n = 134217728 residues")
