"""Exactness tests for the noncommutative operator algebra.

The rewrite rule is cross-checked against sympy's calculus by letting both
sides act on a generic symbolic function, so the algebra never gets to grade
its own homework.
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from crext.opalg import (
    GPoly,
    GaussRat,
    I_UNIT,
    Monomial,
    Operator,
    build_poly_sublaplacian,
    check_commutator_chain,
    check_factorization,
    commutator,
    factored_product,
    g_linear,
    weighted_laplacian,
)


def test_gaussian_rational_arithmetic():
    assert not (I_UNIT * I_UNIT + GaussRat.of(1))
    a = GaussRat(Fraction(1, 2), Fraction(-3))
    b = GaussRat(Fraction(2), Fraction(1, 3))
    assert a * b == GaussRat(Fraction(2), Fraction(-35, 6))
    assert a - a == GaussRat()


def test_integer_and_fraction_parts_are_the_same_number():
    a = GaussRat(1, 0)
    b = GaussRat(Fraction(1), Fraction(0))
    assert a == b and hash(a) == hash(b)
    assert GaussRat() == GaussRat(Fraction(0), Fraction(0))
    assert I_UNIT == GaussRat(0, 1) and type(I_UNIT.im) is int
    assert type(GaussRat.of(3).re) is int
    with pytest.raises(TypeError):
        GaussRat.of(1.0)


def test_gpoly_mul_and_eval():
    p = g_linear(1, -2) * g_linear(3, 1)  # (1 - 2g)(3 + g) = 3 - 5g - 2g^2
    assert p == GPoly((GaussRat.of(3), GaussRat.of(-5), GaussRat.of(-2)))
    assert p.eval(Fraction(1, 2)) == GaussRat()
    assert GPoly((GaussRat.of(1), GaussRat.of(0))).coeffs == (GaussRat.of(1),)


def test_rewrite_through_negative_powers():
    dr = Operator.from_monomial(Monomial(0, 1, 0, 0))
    rinv = Operator.from_monomial(Monomial(-1, 0, 0, 0))
    # d_rho rho^-1 = rho^-1 d_rho - rho^-2
    expect = Operator(
        {Monomial(-1, 1, 0, 0): 1, Monomial(-2, 0, 0, 0): -1}
    )
    assert dr * rinv == expect
    # d_rho^2 rho^-1 = rho^-1 d_rho^2 - 2 rho^-2 d_rho + 2 rho^-3
    expect2 = Operator(
        {
            Monomial(-1, 2, 0, 0): 1,
            Monomial(-2, 1, 0, 0): -2,
            Monomial(-3, 0, 0, 0): 2,
        }
    )
    assert dr * dr * rinv == expect2


def _random_operator(rng: random.Random, nterms: int) -> Operator:
    terms = {}
    for _ in range(nterms):
        m = Monomial(rng.randint(-2, 2), rng.randint(0, 2), rng.randint(0, 1), rng.randint(0, 1))
        terms[m] = GPoly((GaussRat.of(rng.randint(-3, 3)), GaussRat.of(rng.randint(-1, 1))))
    return Operator(terms)


def _to_sympy(op: Operator, expr, rho, t, bsym, gsym):
    """Act on a symbolic expression; the central generator becomes a symbol."""
    total = sympy.S.Zero
    for m, p in op.terms():
        coeff = sum(
            (sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)) * gsym**k
            for k, c in enumerate(p.coeffs)
        )
        term = expr
        if m.dt:
            term = sympy.diff(term, t, m.dt)
        if m.dr:
            term = sympy.diff(term, rho, m.dr)
        term = term * rho**m.rho * bsym**m.db
        total = total + coeff * term
    return sympy.expand(total)


@pytest.mark.parametrize("seed", range(6))
def test_composition_matches_symbolic_calculus(seed):
    rng = random.Random(f"opalg-oracle:{seed}")
    rho, t, bsym, gsym = sympy.symbols("rho t B g", positive=True)
    f = sympy.Function("f")(rho, t)
    a = _random_operator(rng, 2)
    b = _random_operator(rng, 2)
    lhs = _to_sympy(a * b, f, rho, t, bsym, gsym)
    rhs = _to_sympy(a, _to_sympy(b, f, rho, t, bsym, gsym), rho, t, bsym, gsym)
    assert sympy.expand(lhs - rhs) == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_composition_is_associative(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    a = _random_operator(rng, 2)
    b = _random_operator(rng, 2)
    c = _random_operator(rng, 2)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_weighted_laplacian_coefficient_is_linear_in_g():
    for shift in (0, 1, Fraction(-3, 2)):
        op = weighted_laplacian(shift)
        terms = dict(op.terms())
        assert terms[Monomial(-1, 1, 0, 0)] == g_linear(1 - 2 * Fraction(shift), -2)
        assert terms[Monomial(0, 2, 0, 0)] == GPoly.of(1)
        assert terms[Monomial(2, 0, 2, 0)] == GPoly.of(1)
        assert terms[Monomial(0, 0, 0, 1)] == GPoly.of(1)


def test_weighted_laplacian_at_a_rational_shift_matches_its_hand_built_form():
    # At shift 1/2 the rho^-1 d_rho coefficient 1 - 2 shift - 2g is -2g.
    hand = Operator(
        {
            Monomial(0, 2, 0, 0): 1,
            Monomial(-1, 1, 0, 0): GPoly((GaussRat(0), GaussRat(-2))),
            Monomial(2, 0, 2, 0): 1,
            Monomial(0, 0, 0, 1): 1,
        }
    )
    assert weighted_laplacian(Fraction(1, 2)) == hand
    with pytest.raises(TypeError):
        weighted_laplacian(0.5)


def test_integer_operators_store_int_coefficients():
    op = factored_product(4)
    parts = [part for _, p in op.terms() for c in p.coeffs for part in (c.re, c.im)]
    assert parts and all(type(part) is int for part in parts)
    assert type(op.max_abs_coeff()) is int


def test_render_is_stable():
    assert Operator.zero().render() == "0"
    assert (
        weighted_laplacian(0).render()
        == "Db + rho^2*dt^2 + dr^2 + (-2*g + 1)*rho^-1*dr"
    )
    y = Operator.from_monomial(Monomial(-1, 1, 0, 0))
    assert y.render() == "rho^-1*dr"


@pytest.mark.parametrize("k", range(1, 7))
def test_weight_shifted_product_factorizes(k):
    assert check_factorization(k).is_zero


@pytest.mark.parametrize("k", [7, 8])
def test_weight_shifted_product_factorizes_beyond_the_check_cap(k):
    # check_factorization stops at 6 so the report keeps its entries; the
    # identity itself is exercised further here.
    assert (build_poly_sublaplacian(k) - factored_product(k)).is_zero


@pytest.mark.parametrize("k", [0, 7, -1])
def test_factorization_order_is_validated(k):
    with pytest.raises(ValueError):
        check_factorization(k)


def test_factored_product_has_real_coefficients():
    for k in range(1, 7):
        op = factored_product(k)
        for _, p in op.terms():
            assert all(c.im == 0 for c in p.coeffs)


def test_pairwise_factor_commutation():
    lg = weighted_laplacian(0)
    dt = Operator.from_monomial(Monomial(0, 0, 1, 0))
    for c1, c2 in [(1, -1), (3, -3), (2, 0)]:
        f1 = lg + dt * (I_UNIT * GaussRat.of(2 * c1))
        f2 = lg + dt * (I_UNIT * GaussRat.of(2 * c2))
        assert commutator(f1, f2).is_zero


@pytest.mark.parametrize("k", [3, 4, 5])
def test_commutator_chain_collapses(k):
    assert check_commutator_chain(k).is_zero


def test_commutator_chain_rejects_degenerate_order():
    with pytest.raises(ValueError):
        check_commutator_chain(2)
    with pytest.raises(ValueError):
        check_commutator_chain(1)


def test_second_order_case_by_direct_expansion():
    # L_{g-1} L_{g+1} = L_g^2 + 4 dt^2, the k = 2 instance written out.
    lhs = weighted_laplacian(-1) * weighted_laplacian(1)
    lg = weighted_laplacian(0)
    rhs = lg * lg + 4 * Operator.from_monomial(Monomial(0, 0, 2, 0))
    assert lhs == rhs
    assert build_poly_sublaplacian(2) == lhs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_parabolic_coordinate_transport(n):
    # q (q (dq^2 + dt^2) + Db/2 - n dq) with q = rho^2/2 and dq = rho^-1 d_rho
    # equals (rho^2/4) L evaluated at weight n + 1.
    q = Fraction(1, 2) * Operator.from_monomial(Monomial(2, 0, 0, 0))
    dq = Operator.from_monomial(Monomial(-1, 1, 0, 0))
    dt2 = Operator.from_monomial(Monomial(0, 0, 2, 0))
    db = Operator.from_monomial(Monomial(0, 0, 0, 1))
    inner = q * (dq * dq + dt2) + Fraction(1, 2) * db - n * dq
    lhs = q * inner
    rhs = Fraction(1, 4) * (
        Operator.from_monomial(Monomial(2, 0, 0, 0)) * weighted_laplacian(0).subs_g(n + 1)
    )
    assert lhs == rhs


def test_subs_g_commutes_with_composition():
    rng = random.Random("subs-compat")
    a = _random_operator(rng, 3)
    b = _random_operator(rng, 3)
    val = Fraction(5, 3)
    assert (a * b).subs_g(val) == a.subs_g(val) * b.subs_g(val)
