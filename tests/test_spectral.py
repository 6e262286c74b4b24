"""Mode bookkeeping and symbol tests.

The eigenvalue normalization is checked exactly, by differentiating an
explicit eigenfunction, and refereed by the same construction in sympy; the
closed-form constants are pinned by gamma recurrences and sign requirements.
"""

import math
from fractions import Fraction

import pytest
import sympy

from crext import spectral
from crext.opalg import GaussRat, Poly
from crext.special import gamma_fn
from crext.spectral import (
    GammaParam,
    ModeIndex,
    gjms_symbol,
    mode_eigenvalue,
    mode_eigenvalue_symbolic,
    theorem_constant,
)


def test_mode_validation():
    with pytest.raises(ValueError):
        ModeIndex(0.0, 0, 1)
    with pytest.raises(ValueError):
        ModeIndex(1.0, -1, 1)
    with pytest.raises(ValueError):
        ModeIndex(1.0, 0, 0)
    m = ModeIndex(-2.0, 3, 2)
    assert mode_eigenvalue(m) == 2.0 * 2.0 * 8


def test_gamma_param_validation():
    for bad in (0.0, 1.0, 2.0, -0.5, 2.5):
        with pytest.raises(ValueError):
            GammaParam(bad)
    low = GammaParam(0.3)
    assert not low.is_high and low.alpha == 0.3
    assert low.orders == (0.3,)
    high = GammaParam(1.25)
    assert high.is_high
    assert high.alpha == pytest.approx(0.25)
    assert high.orders == pytest.approx((1.25, 0.75))


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("k,n", [(0, 1), (1, 1), (0, 2), (1, 2), (2, 1), (4, 3), (8, 3)])
def test_eigenvalue_identity_symbolically(k, n, sign):
    assert mode_eigenvalue_symbolic(k, n, sign) == 0


def _sympy_residual(k, n, sign, level):
    """The residual built in sympy: the fields act on the prefactor of
    P e^E by the product rule, and 2*lam*level*P is added back."""
    t = sympy.Symbol("t", real=True)
    lam = sympy.Symbol("lam", positive=True)
    xs = sympy.symbols(f"x1:{n + 1}", real=True)
    ys = sympy.symbols(f"y1:{n + 1}", real=True)
    exponent = sign * sympy.I * lam * t - lam * sum(x**2 + y**2 for x, y in zip(xs, ys))
    prefactor = (xs[0] - sign * sympy.I * ys[0]) ** k

    def field_x(j, f):
        return sympy.diff(f, xs[j]) + 2 * ys[j] * sympy.diff(f, t)

    def field_y(j, f):
        return sympy.diff(f, ys[j]) - 2 * xs[j] * sympy.diff(f, t)

    def twisted(field, j, q):
        return field(j, q) + q * field(j, exponent)

    lap = sum(
        twisted(field_x, j, twisted(field_x, j, prefactor))
        + twisted(field_y, j, twisted(field_y, j, prefactor))
        for j in range(n)
    ) / 2
    return sympy.expand(lap + 2 * lam * level * prefactor), (*xs, *ys, t, lam)


def _as_sympy(poly: Poly, variables):
    return sum(
        (
            (sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im))
            * sympy.Mul(*(v**e for v, e in zip(variables, exps)))
            for exps, c in poly.items()
        ),
        sympy.S.Zero,
    )


def _mutate_eigenvalue(monkeypatch):
    # The claimed scalar 2 lam (2k + n) becomes 2 lam (2k + n + 1).
    monkeypatch.setattr(
        spectral, "_claimed_eigenvalue", lambda k, n, lam: 2 * (2 * k + n + 1) * lam
    )


@pytest.mark.parametrize(
    "k,n,sign",
    [(k, n, sign) for n in (1, 2, 3) for k in range(9) for sign in (1, -1)] + [(20, 4, 1)],
)
def test_eigenvalue_residual_matches_the_sympy_referee(k, n, sign):
    referee, variables = _sympy_residual(k, n, sign, 2 * k + n)
    residual = mode_eigenvalue_symbolic(k, n, sign)
    assert sympy.expand(_as_sympy(residual, variables) - referee) == 0
    assert residual == 0


@pytest.mark.parametrize("k,n,sign", [(0, 1, 1), (1, 2, -1), (3, 2, 1), (5, 3, -1)])
def test_mutated_eigenvalue_residual_matches_the_sympy_referee(k, n, sign, monkeypatch):
    _mutate_eigenvalue(monkeypatch)
    referee, variables = _sympy_residual(k, n, sign, 2 * k + n + 1)
    residual = mode_eigenvalue_symbolic(k, n, sign)
    assert referee != 0
    assert sympy.expand(_as_sympy(residual, variables) - referee) == 0


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("k,n", [(0, 1), (1, 1), (0, 2), (1, 2)])
def test_mutated_eigenvalue_leaves_a_nonzero_residual(k, n, sign, monkeypatch):
    _mutate_eigenvalue(monkeypatch)
    residual = mode_eigenvalue_symbolic(k, n, sign)
    # The residual is 2 lam P, one term per monomial of P = (x_1 - sign i y_1)^k.
    assert residual != 0
    assert not residual == 0
    assert len(residual) == k + 1


@pytest.mark.parametrize("sign", [1, -1])
def test_eigenvalue_residual_holds_no_t_exponent(sign, monkeypatch):
    # Every field maps the t-free prefactor to a t-free polynomial, so the
    # residual lives in (x, y, lam); the mutated claim makes it nonzero, so
    # the exponents are really inspected.
    k, n = 3, 2
    assert mode_eigenvalue_symbolic(k, n, sign) == {}
    _mutate_eigenvalue(monkeypatch)
    residual = mode_eigenvalue_symbolic(k, n, sign)
    assert isinstance(residual, Poly) and len(residual) == k + 1
    for exps, c in residual.items():
        assert len(exps) == 2 * n + 2
        assert exps[2 * n] == 0
        assert type(c.re) is int and type(c.im) is int and c


def test_sparse_polynomial_is_zero_exactly_when_it_has_no_terms():
    assert Poly() == 0 and not Poly() != 0
    x = Poly.gen(0, 2, GaussRat(1))
    assert x != 0 and not x == 0
    assert x - x == 0 and x - x == {}
    assert x * 0 == 0
    # An even sum of Gaussian integers halves to ints, an odd one to Fractions.
    halved = spectral._halved
    assert halved(2 * x) == x and type(halved(2 * x)[(1, 0)].re) is int
    assert halved(x)[(1, 0)].re == Fraction(1, 2)


def test_symbol_reduces_to_power_at_large_level():
    # For 2k + n >> 1 the gamma ratio approaches (a)^(gamma'), so the symbol
    # behaves like (2|lam|(2k+n))^gamma' = nu^gamma'.
    mode = ModeIndex(1.5, 400, 1)
    nu = mode_eigenvalue(mode)
    for gp in (0.5, 1.5):
        ratio = gjms_symbol(gp, mode) / nu**gp
        assert ratio == pytest.approx(1.0, rel=5e-3)


def test_symbol_at_order_close_to_one_matches_eigenvalue():
    # gamma' -> 1 turns the gamma ratio into a, and the symbol into nu.
    mode = ModeIndex(0.75, 2, 3)
    nu = mode_eigenvalue(mode)
    eps = 1e-9
    for gp in (1.0 - eps, 1.0 + eps):
        assert gjms_symbol(gp, mode) == pytest.approx(nu, rel=1e-6)


def test_symbol_is_even_in_lambda():
    for gp in (0.25, 0.8, 1.6):
        a = gjms_symbol(gp, ModeIndex(2.0, 1, 2))
        b = gjms_symbol(gp, ModeIndex(-2.0, 1, 2))
        assert a == b


def test_symbol_closed_form_spot_values():
    # a = (1 - gamma' + 2k + n)/2; exact gamma evaluations at half-integers.
    mode = ModeIndex(1.0, 0, 1)  # 2k + n = 1
    # gamma' = 1/2: a = 3/4; symbol = 4^(1/2) Gamma(5/4)/Gamma(3/4)
    want = 2.0 * gamma_fn(1.25) / gamma_fn(0.75)
    assert gjms_symbol(0.5, mode) == pytest.approx(want, rel=1e-14)
    # gamma' = 3/2: a = 1/4; symbol = 4^(3/2) Gamma(7/4)/Gamma(1/4)
    want = 8.0 * gamma_fn(1.75) / gamma_fn(0.25)
    assert gjms_symbol(1.5, mode) == pytest.approx(want, rel=1e-14)


def test_symbol_order_validation():
    mode = ModeIndex(1.0, 0, 1)
    for bad in (0.0, 2.0, -0.3, 2.4):
        with pytest.raises(ValueError):
            gjms_symbol(bad, mode)


def test_low_order_constant_value_and_monotonicity():
    c = theorem_constant(GammaParam(0.5))
    # 2^0 Gamma(1/2)/Gamma(1/2) = 1 at gamma = 1/2.
    assert c == pytest.approx(1.0, rel=1e-14)
    assert theorem_constant(GammaParam(0.25)) > 0
    assert theorem_constant(GammaParam(0.75)) > 0


def test_high_order_pair_signs():
    for g in (1.25, 1.5, 1.75):
        c_phi, c_psi = theorem_constant(GammaParam(g))
        assert c_phi > 0
        assert c_psi < 0


def test_pair_first_entry_matches_low_constant_through_recurrence():
    # 2^(3-2g) Gamma(2-g)/Gamma(g) with Gamma(2-g) = (1-g) Gamma(1-g) is the
    # analytic continuation of the low-range formula times 4(1-g)... the two
    # expressions agree where both make sense as meromorphic functions.
    g = sympy.Symbol("g")
    low = 2 ** (1 - 2 * g) * sympy.gamma(1 - g) / sympy.gamma(g)
    high = 2 ** (3 - 2 * g) * sympy.gamma(2 - g) / sympy.gamma(g)
    assert sympy.simplify(high - 4 * (1 - g) * low) == 0


def test_high_order_pair_spot_value():
    # gamma = 3/2: c_phi = Gamma(1/2)/Gamma(3/2) = 2; tilde = orders[1] = 1/2 and
    # c_psi = (1/2 / (1/2)) Gamma(-1/2)/Gamma(1/2) = -2.
    c_phi, c_psi = theorem_constant(GammaParam(1.5))
    assert c_phi == pytest.approx(2.0, rel=1e-14)
    assert c_psi == pytest.approx(-2.0, rel=1e-14)
