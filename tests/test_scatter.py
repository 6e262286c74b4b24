"""Exact tests for the boundary-expansion coefficients.

The raw two-step recursion is the oracle; the closed product form must match
it term by term in exact rational arithmetic, across random non-pole
spectral values.
"""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crext.scatter import (
    SPoly,
    check_duality,
    check_expansion,
    closed_term,
    expansion_coefficient,
    lift_operator,
    raw_recursion,
    recurrence_g,
    recurrence_p,
    substitute_dual,
)


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


def test_spoly_affine_composition():
    p = SPoly((Fraction(1), Fraction(-3), Fraction(2)))  # 1 - 3s + 2s^2
    q = p.compose_affine(4, -1)
    for s in (Fraction(0), Fraction(5, 3), Fraction(-7, 2)):
        assert q.eval(s) == p.eval(4 - s)


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
    want = list(first)
    first[0] = SPoly.of(99)
    first.append(SPoly.of(1))
    assert build(6, 3) == want
    assert build(6, 3) is not build(6, 3)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_reflection_duality(m):
    assert check_duality(8, m)
    # and the companion family reflects back as well
    for ell in range(9):
        g = recurrence_g(ell, m)
        assert substitute_dual(recurrence_p(ell, m), m) == g


@pytest.mark.parametrize("m", [2, 3, 5])
def test_polynomials_are_monic_with_fixed_parity(m):
    for ell in range(13):
        p = recurrence_p(ell, m)
        assert len(p) == ell + 1
        assert p[ell] == SPoly.of(1)
        for i, c in enumerate(p):
            if (ell - i) % 2:
                assert c.is_zero


def test_low_order_terms_by_hand():
    m = 3
    s = Fraction(1, 4)
    f = raw_recursion(2, m, s)
    d1 = m - 2 * s + 1
    d2 = m - 2 * s + 2
    assert f[1] == {(1, 0): Fraction(-1) / d1}
    assert f[2] == {
        (2, 0): Fraction(1) / (2 * d1 * d2),
        (0, 1): Fraction(-1) / (2 * d2),
    }


@pytest.mark.parametrize("m", [2, 4])
def test_single_symbol_reduction(m):
    # Killing L2 leaves the pure L1 tower with the factorial-product scalar.
    for s in _seeded_spectral_values(m, 5):
        for ell in range(9):
            full = closed_term(ell, m, s)
            pure = {k: v for k, v in full.items() if k[1] == 0}
            assert pure == {(ell, 0): expansion_coefficient(ell, m).eval(s)}


def test_lift_rejects_parity_violation():
    with pytest.raises(ValueError, match="parity"):
        lift_operator([SPoly.of(0), SPoly.of(1)], 2)


def test_expansion_coefficient_pole_is_loud():
    coeff = expansion_coefficient(3, 2)
    assert Fraction(3, 2) in coeff.poles()
    with pytest.raises(ValueError, match="pole"):
        coeff.eval(Fraction(3, 2))
    with pytest.raises(ValueError, match="denominator vanishes"):
        raw_recursion(3, 2, Fraction(3, 2))


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
        coeff = expansion_coefficient(ell, m)
        for s in _seeded_spectral_values(m, 20):
            got = coeff.eval(s)
            assert isinstance(got, Fraction)
            assert got == _product_form(ell, m, s)
        for pole in coeff.poles():
            with pytest.raises(ValueError, match="pole"):
                coeff.eval(pole)
