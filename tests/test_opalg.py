"""Exactness tests for the noncommutative operator algebra.

The rewrite rule is cross-checked against sympy's calculus by letting both
sides act on a generic symbolic function, so the algebra never gets to grade
its own homework.
"""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from crext.opalg import (
    GaussRat,
    I_UNIT,
    Operator,
    Poly,
    _dt_shift_factor,
    build_poly_sublaplacian,
    check_commutator_chain,
    check_factorization,
    commutator,
    factored_product,
    weighted_laplacian,
)
from referees import subs


def _op(terms: dict) -> Operator:
    """An operator from {(g, rho, dr, dt, db): exact scalar}."""
    return Operator({key: GaussRat(c) for key, c in terms.items()})


def _g_linear(const, slope) -> Poly:
    """const + slope*g as a Poly in g alone."""
    return Poly({(0,): GaussRat(const), (1,): GaussRat(slope)})


def test_gaussian_rational_arithmetic():
    assert not (I_UNIT * I_UNIT + GaussRat(1))
    a = GaussRat(Fraction(1, 2), Fraction(-3))
    b = GaussRat(Fraction(2), Fraction(1, 3))
    assert a * b == GaussRat(Fraction(2), Fraction(-35, 6))
    assert a + -a == GaussRat()


def test_integer_and_fraction_parts_are_the_same_number():
    a = GaussRat(1, 0)
    b = GaussRat(Fraction(1), Fraction(0))
    assert a == b and hash(a) == hash(b)
    assert GaussRat() == GaussRat(Fraction(0), Fraction(0))
    assert I_UNIT == GaussRat(0, 1) and type(I_UNIT.im) is int


def test_gaussian_rationals_defer_to_other_operand_types():
    # An unknown operand gets NotImplemented, so the reflected operation runs.
    x = Poly.gen(0, 2, GaussRat(1))
    assert I_UNIT * x == Poly({(1, 0): I_UNIT})
    assert Fraction(1, 2) + GaussRat(1) == GaussRat(Fraction(3, 2))
    assert Fraction(1, 3) * I_UNIT == GaussRat(0, Fraction(1, 3))
    op = _op({(1, 0, 1, 0, 0): 3, (0, 0, 1, 0, 0): 1})  # (3g + 1) d_rho
    assert subs(op, 0, Fraction(5, 3)) == _op({(0, 0, 1, 0, 0): 6})
    with pytest.raises(TypeError):
        GaussRat(1) + 1.5
    with pytest.raises(TypeError):
        GaussRat(1) * "2"


def test_poly_mul_and_subs_in_g():
    p = _g_linear(1, -2) * _g_linear(3, 1)  # (1 - 2g)(3 + g) = 3 - 5g - 2g^2
    assert p == Poly({(0,): GaussRat(3), (1,): GaussRat(-5), (2,): GaussRat(-2)})
    assert subs(p, 0, Fraction(1, 2)) == 0
    assert _g_linear(1, 0) == Poly({(0,): GaussRat(1)})


def test_rewrite_through_negative_powers():
    dr = _op({(0, 0, 1, 0, 0): 1})
    rinv = _op({(0, -1, 0, 0, 0): 1})
    # d_rho rho^-1 = rho^-1 d_rho - rho^-2
    expect = _op({(0, -1, 1, 0, 0): 1, (0, -2, 0, 0, 0): -1})
    assert dr * rinv == expect
    # d_rho^2 rho^-1 = rho^-1 d_rho^2 - 2 rho^-2 d_rho + 2 rho^-3
    expect2 = _op({(0, -1, 2, 0, 0): 1, (0, -2, 1, 0, 0): -2, (0, -3, 0, 0, 0): 2})
    assert dr * dr * rinv == expect2


def _random_operator(rng: random.Random, nterms: int) -> Operator:
    """nterms (rho, dr, dt, db) monomials, each with a coefficient linear in g."""
    terms = {}
    for _ in range(nterms):
        m = (rng.randint(-2, 2), rng.randint(0, 2), rng.randint(0, 1), rng.randint(0, 1))
        terms[(0, *m)] = rng.randint(-3, 3)
        terms[(1, *m)] = rng.randint(-1, 1)
    return _op(terms)


def _referee_compose(a: Operator, b: Operator) -> Operator:
    """a * b with one GaussRat product per pair of terms, accumulated as GaussRats."""
    out = {}
    for (g1, r1, d1, t1, b1), c1 in a.items():
        for (g2, r2, d2, t2, b2), c2 in b.items():
            c = c1 * c2
            for i in range(d1 + 1):
                k = math.comb(d1, i) * math.prod(r2 - j for j in range(i))
                if k:
                    key = (g1 + g2, r1 + r2 - i, d1 - i + d2, t1 + t2, b1 + b2)
                    out[key] = out[key] + c * k if key in out else c * k
    return Operator(out)


def _to_sympy(op: Operator, expr, rho, t, bsym, gsym):
    """Act on a symbolic expression; the central generator becomes a symbol."""
    total = sympy.S.Zero
    for (g, r, dr, dt, db), c in op.items():
        coeff = (sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)) * gsym**g
        term = expr
        if dt:
            term = sympy.diff(term, t, dt)
        if dr:
            term = sympy.diff(term, rho, dr)
        term = term * rho**r * bsym**db
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


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_composition_equals_the_per_term_referee(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    a = _random_operator(rng, 3) + I_UNIT * _random_operator(rng, 2)
    b = _random_operator(rng, 3) + Fraction(2, 3) * I_UNIT * _random_operator(rng, 2)
    assert a * b == _referee_compose(a, b)
    assert b * a == _referee_compose(b, a)


def test_composition_with_fraction_and_imaginary_parts_equals_the_referee():
    lw, shift = weighted_laplacian(Fraction(1, 3)), _dt_shift_factor(2)
    for a, b in ((lw, shift), (shift, lw), (lw * shift, shift * lw)):
        product = a * b
        assert product == _referee_compose(a, b)
        assert any(c.im for c in product.values())
        assert any(type(c.re) is Fraction and c.re.denominator == 3 for c in product.values())


def test_weighted_laplacian_coefficient_is_linear_in_g():
    for shift in (0, 1, Fraction(-3, 2)):
        op = weighted_laplacian(shift)
        assert op == _op(
            {
                (0, -1, 1, 0, 0): 1 - 2 * Fraction(shift),
                (1, -1, 1, 0, 0): -2,
                (0, 0, 2, 0, 0): 1,
                (0, 2, 0, 2, 0): 1,
                (0, 0, 0, 0, 1): 1,
            }
        )


def test_weighted_laplacian_at_a_rational_shift_matches_its_hand_built_form():
    # At shift 1/2 the rho^-1 d_rho coefficient 1 - 2 shift - 2g is -2g.
    hand = _op(
        {
            (0, 0, 2, 0, 0): 1,
            (0, -1, 1, 0, 0): 0,
            (1, -1, 1, 0, 0): -2,
            (0, 2, 0, 2, 0): 1,
            (0, 0, 0, 0, 1): 1,
        }
    )
    assert weighted_laplacian(Fraction(1, 2)) == hand
    with pytest.raises(TypeError):
        weighted_laplacian(0.5)


def test_integer_operators_store_int_coefficients():
    pair = _dt_shift_factor(1) * _dt_shift_factor(-2)
    for op in (factored_product(4), build_poly_sublaplacian(3), pair):
        parts = [part for c in op.values() for part in (c.re, c.im)]
        assert parts and all(type(part) is int for part in parts)
        assert type(op.max_abs_coeff()) is int


@pytest.mark.parametrize("k", range(1, 7))
def test_weight_shifted_product_factorizes(k):
    assert check_factorization(k) == 0


@pytest.mark.parametrize("k", [7, 8])
def test_weight_shifted_product_factorizes_beyond_the_check_cap(k):
    # check_factorization stops at 6 so the report keeps its entries; the
    # identity itself is exercised further here.
    assert build_poly_sublaplacian(k) - factored_product(k) == 0


@pytest.mark.parametrize("k", [0, 7, -1])
def test_factorization_order_is_validated(k):
    with pytest.raises(ValueError):
        check_factorization(k)


def test_factored_product_has_real_coefficients():
    for k in range(1, 7):
        assert all(c.im == 0 for c in factored_product(k).values())


def test_pairwise_factor_commutation():
    lg = weighted_laplacian(0)
    dt = _op({(0, 0, 0, 1, 0): 1})
    for c1, c2 in [(1, -1), (3, -3), (2, 0)]:
        f1 = lg + dt * (I_UNIT * (2 * c1))
        f2 = lg + dt * (I_UNIT * (2 * c2))
        assert commutator(f1, f2) == 0


@pytest.mark.parametrize("k", [3, 4, 5])
def test_commutator_chain_collapses(k):
    assert check_commutator_chain(k) == 0


def test_commutator_chain_rejects_degenerate_order():
    with pytest.raises(ValueError):
        check_commutator_chain(2)
    with pytest.raises(ValueError):
        check_commutator_chain(1)


def test_second_order_case_by_direct_expansion():
    # L_{g-1} L_{g+1} = L_g^2 + 4 dt^2, the k = 2 instance written out.
    lhs = weighted_laplacian(-1) * weighted_laplacian(1)
    lg = weighted_laplacian(0)
    rhs = lg * lg + 4 * _op({(0, 0, 0, 2, 0): 1})
    assert lhs == rhs
    assert build_poly_sublaplacian(2) == lhs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_parabolic_coordinate_transport(n):
    # q (q (dq^2 + dt^2) + Db/2 - n dq) with q = rho^2/2 and dq = rho^-1 d_rho
    # equals (rho^2/4) L evaluated at weight n + 1.
    q = Fraction(1, 2) * _op({(0, 2, 0, 0, 0): 1})
    dq = _op({(0, -1, 1, 0, 0): 1})
    dt2 = _op({(0, 0, 0, 2, 0): 1})
    db = _op({(0, 0, 0, 0, 1): 1})
    inner = q * (dq * dq + dt2) + Fraction(1, 2) * db - n * dq
    lhs = q * inner
    rhs = Fraction(1, 4) * (_op({(0, 2, 0, 0, 0): 1}) * subs(weighted_laplacian(0), 0, n + 1))
    assert lhs == rhs


def test_subs_g_commutes_with_composition():
    rng = random.Random("subs-compat")
    a = _random_operator(rng, 3)
    b = _random_operator(rng, 3)
    val = Fraction(5, 3)
    assert subs(a * b, 0, val) == subs(a, 0, val) * subs(b, 0, val)


_rationals = st.one_of(st.integers(-3, 3), st.fractions(min_value=-2, max_value=2, max_denominator=4))
_gaussians = st.builds(GaussRat, _rationals, _rationals)


def _polys(coeffs):
    """Polys in two variables over one ring; zero coefficients go in too."""
    return st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 2)), coeffs, max_size=6
    ).map(Poly)


def _stores_no_zero(p) -> bool:
    return isinstance(p, Poly) and all(c for c in p.values())


@pytest.mark.parametrize("ring", [_rationals, _gaussians], ids=["rational", "gaussian"])
@settings(max_examples=80, deadline=None)
@given(data=st.data(), index=st.integers(0, 1), value=_rationals)
def test_poly_never_stores_a_zero_and_subs_evaluates_term_by_term(ring, data, index, value):
    p, q = data.draw(_polys(ring)), data.draw(_polys(ring))
    c = data.draw(ring)
    results = [p + q, p - q, p * q, p * c, c * p, p * 0, 0 * p, p.diff(index)]
    results += [subs(p, index, value), subs(p, index, q), -p]
    assert all(_stores_no_zero(r) for r in results)
    assert p - p == 0 and p * 0 == 0 and not p - p
    assert (p == 0) == (not p)
    by_terms: dict = {}
    for exps, coeff in p.items():
        rest = exps[:index] + (0,) + exps[index + 1 :]
        by_terms[rest] = by_terms.get(rest, 0) + coeff * value ** exps[index]
    assert subs(p, index, value) == Poly(by_terms)
    composed = Poly()
    for exps, coeff in p.items():
        term = Poly({exps[:index] + (0,) + exps[index + 1 :]: coeff})
        for _ in range(exps[index]):
            term = term * q
        composed = composed + term
    assert subs(p, index, q) == composed
