"""Exact tests for the boundary-expansion coefficients.

The raw two-step recursion is the oracle; the closed product form must match
it term by term in exact rational arithmetic, across random non-pole
spectral values.
"""

import random
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crext import scatter
from crext.opalg import Poly
from crext.scatter import (
    check_duality,
    check_expansion,
    expansion_poles,
    raw_recursion,
    recurrence_g,
    recurrence_p,
)
from referees import as_fractions, subs


def _seeded_spectral_values(m: int, count: int) -> list[Fraction]:
    """Deterministic rational sample avoiding every recursion pole up to l=12."""
    rng = random.Random(f"scatter:{m}")
    poles = {Fraction(m + j, 2) for j in range(1, 13)}
    out = []
    while len(out) < count:
        s = Fraction(rng.randint(-60, 60), rng.randint(1, 8))
        if s not in poles:
            out.append(s)
    return out


def _reflection(m: int) -> Poly:
    """The polynomial m - s in (x, s)."""
    return Poly({(0, 0): m, (0, 1): -1})


def test_poly_subs_composes_with_an_affine_map():
    p = Poly({(0, 0): 1, (0, 1): -3, (0, 2): 2, (1, 1): 5})  # 1 - 3s + 2s^2 + 5xs
    q = subs(p, 1, _reflection(4))
    for s in (Fraction(0), Fraction(5, 3), Fraction(-7, 2)):
        assert subs(q, 1, s) == subs(p, 1, 4 - s)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_closed_form_matches_recursion_exactly(m):
    for s in _seeded_spectral_values(m, 20):
        assert check_expansion(8, m, s) == 0


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_closed_form_matches_recursion_at_order_12(m):
    for s in _seeded_spectral_values(m, 40):
        assert check_expansion(12, m, s) == 0


@pytest.mark.parametrize("build", [recurrence_p, recurrence_g])
def test_recurrence_lists_are_fresh_on_every_call(build):
    first = build(6, 3)
    want = dict(first)
    first[(0, 0)] = 99
    first[(9, 0)] = 1
    assert build(6, 3) == want
    assert build(6, 3) is not build(6, 3)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_reflection_duality(m):
    assert check_duality(8, m)
    # and the companion family reflects back as well
    for ell in range(9):
        g = recurrence_g(ell, m)
        assert subs(recurrence_p(ell, m), 1, _reflection(m)) == g


@pytest.mark.parametrize("m", [2, 3, 5])
def test_polynomials_are_monic_with_fixed_parity(m):
    for ell in range(13):
        p = recurrence_p(ell, m)
        assert p[(ell, 0)] == 1
        assert all(i < ell for i, j in p if (i, j) != (ell, 0))
        assert all((ell - i) % 2 == 0 for i, _ in p)


def test_low_order_terms_by_hand():
    m = 3
    s = Fraction(1, 4)
    f = as_fractions(raw_recursion(2, m, s))
    d1 = m - 2 * s + 1
    d2 = m - 2 * s + 2
    assert f[1] == {(1, 0): Fraction(-1) / d1}
    assert f[2] == {
        (2, 0): Fraction(1) / (2 * d1 * d2),
        (0, 1): Fraction(-1) / (2 * d2),
    }


def _coefficient(l: int, m: int, s: Fraction) -> Fraction:
    """c_l(s) = q^l / d_l for s = p/q, from the closed form's integer denominators."""
    return Fraction(s.denominator**l, scatter._coefficient_denominators(l, m, s)[-1])


@pytest.mark.parametrize("m", [2, 4])
def test_single_symbol_reduction(m):
    # Killing L2 leaves the pure L1 tower with the factorial-product scalar.
    for s in _seeded_spectral_values(m, 5):
        dens = scatter._coefficient_denominators(8, m, s)
        for ell in range(9):
            full = scatter._closed_numerators(ell, m, s)
            pure = {k: Fraction(v, dens[ell]) for k, v in full.items() if k[1] == 0}
            assert pure == {(ell, 0): _coefficient(ell, m, s)}


def test_expansion_coefficient_pole_is_loud():
    assert Fraction(3, 2) in expansion_poles(3, 2)
    with pytest.raises(
        ValueError, match="^expansion coefficient of order 3 has a pole at s = 3/2$"
    ):
        scatter._coefficient_denominators(3, 2, Fraction(3, 2))
    with pytest.raises(
        ValueError, match="^expansion coefficient of order 4 has a pole at s = 7/2$"
    ):
        scatter._coefficient_denominators(4, 3, Fraction(7, 2))
    with pytest.raises(
        ValueError, match="^recursion denominator vanishes at order 1 for s = 3/2$"
    ):
        raw_recursion(3, 2, Fraction(3, 2))
    with pytest.raises(ValueError, match="^recursion denominator vanishes at order 3 for s = 3$"):
        check_expansion(4, 3, 3)


def test_order_validation():
    with pytest.raises(ValueError):
        recurrence_p(-1, 3)
    with pytest.raises(ValueError):
        recurrence_p(2, 1)


@settings(max_examples=40, deadline=None)
@given(
    num=st.integers(-40, 40),
    den=st.integers(1, 9),
    l_max=st.integers(0, 5),
    m=st.integers(2, 5),
)
def test_closed_form_matches_recursion_random(num, den, l_max, m):
    s = Fraction(num, den)
    assume(all(m - 2 * s + j != 0 for j in range(1, l_max + 1)))
    assert check_expansion(l_max, m, s) == 0


def _product_form(l: int, m: int, s: Fraction) -> Fraction:
    """c_l(s) as l Fraction products, the form the integer evaluation replaced."""
    den = Fraction(factorial(l))
    for j in range(1, l + 1):
        den *= m - 2 * s + j
    return Fraction((-1) ** l) / den


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_coefficient_equals_the_fraction_product_form(m):
    for ell in range(13):
        for s in _seeded_spectral_values(m, 20):
            got = _coefficient(ell, m, s)
            assert isinstance(got, Fraction)
            assert got == _product_form(ell, m, s)
        for pole in expansion_poles(ell, m):
            with pytest.raises(ValueError, match="pole"):
                _coefficient(ell, m, pole)


@pytest.mark.parametrize("m", [2, 5])
def test_recurrence_polynomials_store_int_coefficients(m):
    for reflected in (False, True):
        q = scatter._three_term(6, m, reflected)
        assert q and all(type(c) is int for c in q.values())
    with pytest.raises(TypeError):
        check_expansion(3, m, 0.5)


def test_the_recursion_oracle_shares_no_arithmetic_with_the_closed_form(monkeypatch):
    want = raw_recursion(8, 3, Fraction(1, 4))

    def refuse(*_):
        raise AssertionError("raw_recursion reached Poly arithmetic")

    monkeypatch.setattr(Poly, "__add__", refuse)
    monkeypatch.setattr(Poly, "__mul__", refuse)
    assert raw_recursion(8, 3, Fraction(1, 4)) == want
    # From a cold cache the closed side does reach it.
    monkeypatch.setattr(scatter, "_ladders", {})
    with pytest.raises(AssertionError, match="Poly arithmetic"):
        scatter._three_term(4, 3, False)


def _with_extra_top_term(three_term):
    """q_l plus x^l s from order 3 on: a closed polynomial that is wrong."""

    def mutated(l, m, reflected):
        q = three_term(l, m, reflected)
        return q + Poly({(l, 1): 1}) if l >= 3 else q

    return mutated


def test_a_wrong_closed_polynomial_reports_its_exact_gap(monkeypatch):
    monkeypatch.setattr(scatter, "_three_term", _with_extra_top_term(scatter._three_term))
    got = [check_expansion(8, m, Fraction(7, 3)) for m in (2, 3, 4)]
    # The gaps the per-coefficient Fraction comparison reports for this mutation.
    assert got == [Fraction(21, 20), Fraction(21, 16), Fraction(3, 8)]
    assert all(type(g) is Fraction for g in got)


def test_a_mutated_ladder_never_reaches_the_cache(monkeypatch):
    # The ladder is built by the module's own loop, so a rebound _three_term
    # leaves no mutated order behind for the higher orders built on it.
    monkeypatch.setattr(scatter, "_ladders", {})
    with monkeypatch.context() as patch:
        patch.setattr(scatter, "_three_term", _with_extra_top_term(scatter._three_term))
        assert check_expansion(8, 3, Fraction(7, 3)) == Fraction(21, 16)
    assert check_expansion(8, 3, Fraction(7, 3)) == 0


def _three_term_loop(l: int, m: int, reflected: bool) -> Poly:
    """q_l by the recurrence run from q_0 for every order, the form the
    cached ladder replaced."""
    sign = -1 if reflected else 1
    prev, cur = Poly(), Poly({(0, 0): 1})
    for ell in range(1, l + 1):
        drop = Poly({(0, 0): (ell - 1) * (sign * m + ell - 1), (0, 1): -2 * sign * (ell - 1)})
        prev, cur = cur, Poly.gen(0, 2) * cur - drop * prev
    return cur


@pytest.mark.parametrize("reflected", [False, True])
@pytest.mark.parametrize("m", range(2, 8))
def test_the_ladder_equals_the_loop_from_q0(m, reflected):
    for ell in (16, *range(16)):
        q = scatter._three_term(ell, m, reflected)
        assert q == _three_term_loop(ell, m, reflected)
        assert all(type(c) is int for c in q.values())


def test_a_cold_ladder_takes_two_products_per_order(monkeypatch):
    monkeypatch.setattr(scatter, "_ladders", {})
    products = []
    mul = Poly.__mul__

    def counting(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting)
    for ell in (12, *range(12)):
        scatter._three_term(ell, 4, True)
    assert 0 < len(products) <= 24


def _fraction_recursion(l: int, m: int, s) -> list[dict[tuple[int, int], Fraction]]:
    """f_0 .. f_l with one Fraction operation per coefficient, the form the
    shared-denominator integer recursion replaced."""
    out = [{(0, 0): Fraction(1)}]
    for ell in range(1, l + 1):
        cur: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in out[ell - 1].items():
            cur[i + 1, j] = cur.get((i + 1, j), Fraction(0)) + c
        if ell >= 2:
            for (i, j), c in out[ell - 2].items():
                cur[i, j + 1] = cur.get((i, j + 1), Fraction(0)) + c
        scale = Fraction(-1) / (ell * (m - 2 * s + ell))
        out.append({k: v * scale for k, v in cur.items() if v})
    return out


@settings(max_examples=80, deadline=None)
@given(
    num=st.integers(-60, 60),
    den=st.integers(1, 12),
    l=st.integers(0, 12),
    m=st.integers(2, 6),
)
def test_integer_recursion_equals_the_fraction_recursion(num, den, l, m):
    s = Fraction(num, den) if den > 1 else num  # an int s as well
    assume(all(m - 2 * s + j != 0 for j in range(1, l + 1)))
    got = raw_recursion(l, m, s)
    assert as_fractions(got) == _fraction_recursion(l, m, s)
    for nums, shared in got:
        assert type(shared) is int and shared > 0
        assert all(type(v) is int and v for v in nums.values())
        assert gcd(shared, *nums.values()) == 1


def test_check_expansion_reaches_the_module_level_recursion_once(monkeypatch):
    # The benchmark tracer counts recursion calls by rebinding this name.
    calls = []
    recursion = scatter.raw_recursion

    def counting(*args):
        calls.append(args)
        return recursion(*args)

    monkeypatch.setattr(scatter, "raw_recursion", counting)
    assert check_expansion(6, 3, Fraction(1, 4)) == 0
    assert calls == [(6, 3, Fraction(1, 4))]


def _duality_by_subs(l_max: int, m: int) -> bool:
    """The duality check as it was: copies of both families and Poly.subs."""
    reflection = Poly({(0, 0): m, (0, 1): -1})
    for ell in range(l_max + 1):
        if recurrence_p(ell, m) != subs(recurrence_g(ell, m), 1, reflection):
            return False
    return True


def _with_one_reflected_coefficient_off(m: int, ell: int) -> dict:
    """A copy of the ladder cache whose g-ladder of m has one coefficient of
    g_ell moved by 1; the p-ladders and the other orders are untouched."""
    scatter._three_term(16, m, True)
    scatter._three_term(16, m, False)
    ladders = {key: list(ladder) for key, ladder in scatter._ladders.items()}
    g = Poly(ladders[m, True][ell])
    key = max(g)
    g[key] += 1
    ladders[m, True][ell] = g
    return ladders


@pytest.mark.parametrize("m", range(2, 8))
def test_binomial_duality_equals_the_subs_route(m, monkeypatch):
    # The ladder cache is shared: every mutated copy is made from the true one.
    for l_max in range(17):
        assert check_duality(l_max, m) is _duality_by_subs(l_max, m) is True
    for ell in (1, 3, 16):
        with monkeypatch.context() as patch:
            patch.setattr(scatter, "_ladders", _with_one_reflected_coefficient_off(m, ell))
            for l_max in (ell - 1, ell, 16):
                assert check_duality(l_max, m) is _duality_by_subs(l_max, m) is (l_max < ell)


def test_one_mutated_reflected_coefficient_fails_the_duality(monkeypatch):
    monkeypatch.setattr(scatter, "_ladders", _with_one_reflected_coefficient_off(4, 7))
    assert not check_duality(12, 4)
    assert check_duality(6, 4)
    assert check_duality(12, 5)
