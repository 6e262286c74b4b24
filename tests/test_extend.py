"""Tests for the mode-wise extension solver.

Three independent routes to the same numbers are played against each other:
the closed U-function stack, the Frobenius series (exact rationals where
possible), and blind ODE integration.
"""

import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from crext import cli, extend
from crext.extend import (
    FourthOrderMode,
    ModeSolution,
    boundary_functionals,
    exclusion_residuals,
    fit_boundary_expansion,
    frobenius_series,
    mode_derivatives,
    verify_dtn_theorem,
    verify_fourth_constants,
)
from crext.scatter import raw_recursion
from crext.special import kummer_u_batch
from crext.spectral import GammaParam, ModeIndex, mode_eigenvalue
from referees import as_fractions


def _series_eval(coeffs, rho):
    rho = np.asarray(rho, dtype=float)
    acc = np.zeros_like(rho)
    for j in reversed(range(len(coeffs))):
        acc = acc * rho**2 + float(coeffs[j])
    return acc


@pytest.mark.parametrize("order", [0.25, 0.6, 1.35, 1.8])
@pytest.mark.parametrize("mode", [ModeIndex(0.5, 0, 1), ModeIndex(2.0, 3, 2)])
def test_closed_solution_matches_its_own_boundary_expansion(order, mode):
    sol = ModeSolution(order, mode)
    coeff_a, coeff_b = frobenius_series(order, sol.nu, sol.lam**2)
    rho = np.array([0.05, 0.15, 0.3])
    series = _series_eval(coeff_a, rho) + sol.c1 * rho ** (2 * order) * _series_eval(
        coeff_b, rho
    )
    np.testing.assert_allclose(sol.derivatives(rho, 0)[0], series, rtol=1e-10)


@pytest.mark.parametrize("order", [0.3, 0.8, 1.45])
def test_closed_solution_satisfies_the_mode_equation(order):
    mode = ModeIndex(1.5, 2, 1)
    sol = ModeSolution(order, mode)
    rho = np.geomspace(0.2, 3.0, 7)
    u, up, upp = sol.derivatives(rho, upto=2)
    res = upp + (1.0 - 2.0 * order) / rho * up - (sol.lam**2 * rho**2 + sol.nu) * u
    scale = np.abs(upp) + np.abs(up / rho) + np.abs((sol.lam**2 * rho**2 + sol.nu) * u)
    assert float(np.max(np.abs(res) / scale)) < 1e-11


def test_frobenius_matches_two_symbol_recursion_exactly():
    # With L1 -> -nu/2, L2 -> -lam^2 and the spectral parameter chosen so the
    # denominators line up, the recursion terms are 2^j times the regular
    # Frobenius coefficients; the reflected parameter gives the other branch.
    order = Fraction(1, 3)
    nu = Fraction(7, 2)
    lam_sq = Fraction(9, 4)
    for m in (2, 3):
        s_reg = Fraction(m + order, 2)
        s_sing = Fraction(m - order, 2)
        coeff_a, coeff_b = frobenius_series(order, nu, lam_sq, nterms=9)
        reg = as_fractions(raw_recursion(8, m, s_reg))
        sing = as_fractions(raw_recursion(8, m, s_sing))
        for ell in range(9):
            val_reg = sum(
                c * (-nu / 2) ** i * (-lam_sq) ** j for (i, j), c in reg[ell].items()
            )
            val_sing = sum(
                c * (-nu / 2) ** i * (-lam_sq) ** j for (i, j), c in sing[ell].items()
            )
            assert val_reg == 2**ell * coeff_a[ell]
            assert val_sing == 2**ell * coeff_b[ell]


def test_frobenius_rejects_integer_order():
    with pytest.raises(ValueError):
        frobenius_series(1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        frobenius_series(Fraction(2), 2, 1)


@pytest.mark.parametrize(
    "order,mode",
    [
        (0.25, ModeIndex(0.5, 0, 1)),
        (0.6, ModeIndex(2.0, 4, 2)),
        (0.75, ModeIndex(4.0, 8, 3)),
        (1.25, ModeIndex(1.0, 1, 1)),
        (1.75, ModeIndex(0.25, 2, 3)),
    ],
)
def test_numeric_integration_recovers_closed_dtn(order, mode):
    closed = ModeSolution(order, mode).dtn
    (fit,) = fit_boundary_expansion([(order, mode)])
    assert fit.dtn == pytest.approx(closed, rel=1e-9)


def test_numeric_fit_is_tight():
    (fit,) = fit_boundary_expansion([(0.6, ModeIndex(0.5, 1, 1))])
    assert fit.fit_residual < 1e-9
    assert fit.c0 == pytest.approx(1.0, rel=0.1)  # normalization drift stays mild


FULL_GRID = tuple(
    ModeIndex(lam, k, n) for lam in (0.25, 0.5, 1.0, 2.0, 4.0) for k in range(9) for n in (1, 2, 3)
)
# The default low orders, and 1 +- alpha for each default high order.
BATCH_ORDERS = (0.25, 0.5, 0.75, 1.25, 1.5, 1.75)


@pytest.fixture(scope="module")
def full_batch():
    pairs = [(order, mode) for order in BATCH_ORDERS for mode in FULL_GRID]
    return pairs, fit_boundary_expansion(pairs)


def _worst_c1_error(pairs, fits):
    return max(
        abs(fit.c1 / fit.c0 / ModeSolution(order, mode).c1 - 1.0)
        for (order, mode), fit in zip(pairs, fits)
    )


def test_stacked_batch_recovers_every_closed_coefficient(full_batch):
    pairs, fits = full_batch
    assert len(fits) == len(pairs) == 810
    assert _worst_c1_error(pairs, fits) < 1e-9


def test_stacked_batch_fits_stay_tight(full_batch):
    _, fits = full_batch
    assert max(fit.fit_residual for fit in fits) < 1e-9


@pytest.mark.parametrize("index", [0, 137, 404, 809])
def test_singleton_batch_agrees_with_the_large_batch(full_batch, index):
    pairs, fits = full_batch
    (alone,) = fit_boundary_expansion([pairs[index]])
    together = fits[index]
    assert alone.c1 / alone.c0 == pytest.approx(together.c1 / together.c0, rel=1e-9)
    assert alone.dtn == pytest.approx(together.dtn, rel=1e-9)


def test_stacked_batch_holds_the_two_leg_accuracy(full_batch):
    assert _worst_c1_error(*full_batch) < 5e-12


def test_the_default_spot_batch_pins_the_two_leg_settings():
    # The 48 spot pairs of the default run read 7.1e-14.  A fit leg that starts
    # at w = 3 instead of 10, or a deep leg at rtol 1e-3 instead of 1e-7, reads
    # above 6e-13 on them; w = 6 reads 3.9e-13 and passes.
    pairs = cli._spot_pairs(cli.SuiteConfig())
    assert _worst_c1_error(pairs, fit_boundary_expansion(pairs)) < 5e-13


def _recording_solve_ivp(monkeypatch, perturb=None):
    """Rebind extend's solve_ivp to record each call's arguments and result;
    `perturb` may rewrite the start of the call without output points."""
    calls = []
    solve = extend.solve_ivp

    def recording(fun, t_span, y0, **kwargs):
        if perturb is not None and "t_eval" not in kwargs:
            y0 = perturb(y0)
        result = solve(fun, t_span, y0, **kwargs)
        calls.append((t_span, kwargs, result))
        return result

    monkeypatch.setattr(extend, "solve_ivp", recording)
    return calls


def test_a_batch_makes_two_counted_solves_through_the_module_binding(monkeypatch):
    # The benchmark counts ODE work by rebinding extend.solve_ivp; both legs
    # must go through that name, the deep leg first and without output points.
    calls = _recording_solve_ivp(monkeypatch)
    pairs = cli._spot_pairs(cli.SuiteConfig())
    assert len(fit_boundary_expansion(pairs)) == len(pairs)
    assert len(calls) == 2
    (deep_span, deep_kwargs, deep), (fit_span, fit_kwargs, fit) = calls
    assert "t_eval" not in deep_kwargs
    assert deep_span[0] == 1.0 and deep_span[1] == fit_span[0]
    assert fit_span[0] >= max(fit_kwargs["t_eval"])
    assert deep.nfev + fit.nfev > 0


def test_the_deep_legs_error_contracts_before_the_fit_grid(monkeypatch):
    pairs = cli._spot_pairs(cli.SuiteConfig())
    clean = fit_boundary_expansion(pairs)
    _recording_solve_ivp(monkeypatch, perturb=lambda r: r * (1.0 + 1e-6))
    shaken = fit_boundary_expansion(pairs)
    for a, b in zip(clean, shaken):
        assert abs(b.c0 / a.c0 - 1.0) < 1e-12
        assert abs((b.c1 / b.c0) / (a.c1 / a.c0) - 1.0) < 1e-12
        assert abs(b.dtn / a.dtn - 1.0) < 1e-12


@pytest.mark.parametrize("order", [0.25, 1.75])
def test_a_large_level_fit_recovers_the_closed_coefficient(order):
    mode = ModeIndex(4.0, 120, 3)
    (fit,) = fit_boundary_expansion([(order, mode)])
    assert fit.c1 / fit.c0 == pytest.approx(ModeSolution(order, mode).c1, rel=1e-11)


def test_empty_batch_returns_no_fits():
    assert fit_boundary_expansion([]) == []


def test_batch_rejects_an_integer_order():
    with pytest.raises(ValueError):
        fit_boundary_expansion([(0.5, ModeIndex(1.0, 0, 1)), (1.0, ModeIndex(1.0, 0, 1))])


@pytest.mark.parametrize("g", [0.25, 0.5, 0.75])
def test_dtn_identity_closed_form(g):
    param = GammaParam(g)
    for mode in (ModeIndex(0.25, 0, 1), ModeIndex(1.0, 5, 2), ModeIndex(4.0, 8, 3)):
        assert verify_dtn_theorem(param, mode) < 1e-12


def test_dtn_identity_numeric_spot():
    mode = ModeIndex(1.0, 1, 2)
    (fit,) = fit_boundary_expansion([(0.5, mode)])
    assert verify_dtn_theorem(GammaParam(0.5), mode, fit) < 1e-8


def test_dtn_verifier_guards():
    with pytest.raises(ValueError):
        verify_dtn_theorem(GammaParam(1.5), ModeIndex(1.0, 0, 1))
    with pytest.raises(TypeError):  # the method= selector is gone; a fit selects the path
        verify_dtn_theorem(GammaParam(0.5), ModeIndex(1.0, 0, 1), method="guess")
    with pytest.raises(ValueError):
        verify_fourth_constants(GammaParam(0.5), ModeIndex(1.0, 0, 1))
    with pytest.raises(ValueError):
        FourthOrderMode(GammaParam(0.5), ModeIndex(1.0, 0, 1))


def test_boundary_data_roundtrip():
    param = GammaParam(1.4)
    mode = ModeIndex(1.0, 2, 2)
    u = FourthOrderMode(param, mode, phi=0.8, psi=-1.7)
    terms = boundary_functionals(u.alpha, u.nu, (u.a0, u.a1, u.b0, u.b1))
    ops = {name: x - y for name, (x, y) in terms.items()}
    assert ops["dirichlet"] == pytest.approx(0.8, rel=1e-14)
    assert ops["fractional"] == pytest.approx(-1.7, rel=1e-14)


def test_a_conormal_fault_in_the_functional_table_fails_every_high_range_dtn_entry(monkeypatch):
    # The constant checks and the exclusion check read one statement of the
    # functionals, so a fault there must reach all of them, and only them.
    table = extend.boundary_functionals

    def faulty(alpha, nu, data):
        terms = table(alpha, nu, data)
        x, y = terms["conormal"]
        return {**terms, "conormal": (1.001 * x, y)}

    monkeypatch.setattr(extend, "boundary_functionals", faulty)
    entries = cli._suite_dtn(cli.SuiteConfig())
    high = [e for e in entries if e.check_id.startswith(("dtn.fourth_constants", "dtn.exclusion"))]
    low = [e for e in entries if e.check_id.startswith(("dtn.closed.", "dtn.numeric."))]
    assert len(high) == 9 and len(low) == 6 and len(entries) == 15
    assert not any(e.passed for e in high)
    assert all(e.passed for e in low)


def test_dtn_suite_passes_at_the_ends_of_its_envelope():
    # At gamma = 1.001 the Frobenius data divide by 2 alpha = 0.002.
    cfg = cli.SuiteConfig(gammas_low=(0.001, 0.999), gammas_high=(1.001, 1.999))
    report = cli.run_suites(cfg, ["dtn"])
    assert len(report.entries) == 10
    for entry in report.entries:
        assert entry.passed, (entry.check_id, entry.measured_error)


@pytest.mark.parametrize("g", [1.25, 1.5, 1.75])
def test_neumann_functionals_ignore_the_other_datum(g):
    param = GammaParam(g)
    for mode in (ModeIndex(0.5, 0, 1), ModeIndex(2.0, 4, 3)):
        res_conormal, res_second = exclusion_residuals(param, mode)
        assert res_conormal < 1e-12
        assert res_second < 1e-12


@pytest.mark.parametrize("g", [1.25, 1.5, 1.75])
def test_fourth_constants_closed_form(g):
    param = GammaParam(g)
    for mode in (ModeIndex(0.25, 0, 1), ModeIndex(1.0, 3, 2), ModeIndex(4.0, 8, 3)):
        err_phi, err_psi = verify_fourth_constants(param, mode)
        assert err_phi < 1e-12
        assert err_psi < 1e-12


def test_fourth_constants_numeric_spot():
    mode = ModeIndex(1.0, 1, 1)
    fits = fit_boundary_expansion([(1.5, mode), (0.5, mode)])
    err_phi, err_psi = verify_fourth_constants(GammaParam(1.5), mode, tuple(fits))
    assert err_phi < 1e-8
    assert err_psi < 1e-8


def test_a_repeated_pair_gets_bitwise_equal_fits_in_one_batch():
    # The dtn suite keys its fits by (order, mode); a pair listed twice in one
    # batch must get the same fit both times, so the key may keep either.
    mode, other = ModeIndex(1.0, 1, 1), ModeIndex(2.0, 3, 2)
    fits = fit_boundary_expansion([(0.5, mode), (1.5, other), (0.5, mode), (0.25, other)])
    assert [float.hex(x) for x in fits[0]] == [float.hex(x) for x in fits[2]]
    assert fits[0] != fits[1]


def test_fourth_order_operator_identity():
    # The shortcut Lop u = 2 rho^-1 (A W1' + B rho^(2 alpha) W2') must agree
    # with the honest second-derivative evaluation.
    param = GammaParam(1.35)
    mode = ModeIndex(1.5, 1, 2)
    u = FourthOrderMode(param, mode, phi=1.0, psi=0.6)
    rho = np.geomspace(0.3, 2.0, 6)
    al = param.alpha
    nu = mode_eigenvalue(mode)
    d0, d1, d2 = u.derivatives(rho, upto=2)
    honest = d2 + (1.0 - 2.0 * al) / rho * d1 - (u.w1.lam**2 * rho**2 + nu) * d0
    np.testing.assert_allclose(u.lop(rho), honest, rtol=1e-8, atol=1e-12)


def test_fourth_order_equation_residual():
    # (Lop^2 - 4 lam^2) u = 0 through four honest derivatives.
    param = GammaParam(1.6)
    mode = ModeIndex(1.0, 1, 1)
    u = FourthOrderMode(param, mode, phi=1.0, psi=0.7)
    rho = np.geomspace(0.4, 1.8, 5)
    al = param.alpha
    nu = mode_eigenvalue(mode)
    lam2 = u.w1.lam**2
    d0, d1, d2, d3, d4 = u.derivatives(rho, upto=4)
    pot = lam2 * rho**2 + nu
    v0 = d2 + (1.0 - 2.0 * al) / rho * d1 - pot * d0
    v1 = d3 + (1.0 - 2.0 * al) * (d2 / rho - d1 / rho**2) - pot * d1 - 2.0 * lam2 * rho * d0
    v2 = (
        d4
        + (1.0 - 2.0 * al) * (d3 / rho - 2.0 * d2 / rho**2 + 2.0 * d1 / rho**3)
        - pot * d2
        - 4.0 * lam2 * rho * d1
        - 2.0 * lam2 * d0
    )
    res = v2 + (1.0 - 2.0 * al) / rho * v1 - pot * v0 - 4.0 * lam2 * d0
    scale = (
        np.abs(v2)
        + np.abs((1.0 - 2.0 * al) / rho * v1)
        + np.abs(pot * v0)
        + np.abs(4.0 * lam2 * d0)
        + np.abs(d4)
    )
    assert float(np.max(np.abs(res) / scale)) < 1e-5


def test_derivative_ladder_depth_guard():
    sol = ModeSolution(0.5, ModeIndex(1.0, 0, 1))
    with pytest.raises(ValueError):
        sol.derivatives(np.array([1.0]), upto=5)


def _referee_derivatives(sol: ModeSolution, s, upto: int) -> list:
    """[u, ..., u^(upto)] at rho = s / sqrt(lam) from the solution's own ladder of
    upto + 1 rungs, one call."""
    w = s * s
    wp = 2.0 * math.sqrt(sol.lam) * s
    wpp = 2.0 * sol.lam
    rung = np.arange(upto + 1)
    values = kummer_u_batch(sol.a + rung, sol.b + rung, w)
    ladder, poch = [], 1.0
    for i in range(upto + 1):
        if i:
            poch *= sol.a + i - 1
        ladder.append((-1.0) ** i * poch * values[i])
    damp = np.exp(-w / 2.0)
    f = [
        damp * sum(comb(m, i) * (-0.5) ** (m - i) * ladder[i] for i in range(m + 1))
        for m in range(upto + 1)
    ]
    out = [sol.norm * f[0]]
    if upto >= 1:
        out.append(sol.norm * f[1] * wp)
    if upto >= 2:
        out.append(sol.norm * (f[2] * wp**2 + f[1] * wpp))
    if upto >= 3:
        out.append(sol.norm * (f[3] * wp**3 + 3.0 * f[2] * wp * wpp))
    if upto >= 4:
        out.append(sol.norm * (f[4] * wp**4 + 6.0 * f[3] * wp**2 * wpp + 3.0 * f[2] * wpp**2))
    return out


@pytest.mark.parametrize("upto", range(5))
@pytest.mark.parametrize("mode", [ModeIndex(0.5, 0, 1), ModeIndex(2.0, 3, 2)])
def test_batch_derivatives_are_each_solutions_own_bitwise(upto, mode):
    # w = s^2 runs from 1e-3 to 18: both forms of the U quadrature.  The
    # batch holds the mode and its dilation by 3.5, which share every rung.
    s = np.geomspace(0.02, 3.0, 13) * math.sqrt(2.0)
    dilated = ModeIndex(3.5 * mode.lam, mode.k, mode.n)
    sols = [ModeSolution(order, m) for m in (mode, dilated) for order in (0.25, 0.5, 1.25, 1.75)]
    batch = mode_derivatives(sols, s, upto)
    assert len(batch) == len(sols)
    for sol, got in zip(sols, batch):
        own = mode_derivatives([ModeSolution(sol.order, sol.mode)], s, upto)[0]
        referee = _referee_derivatives(sol, s, upto)
        assert len(got) == len(own) == upto + 1
        for x, y, r in zip(got, own, referee):
            assert np.array_equal(x, y)
            assert np.array_equal(x, r)
        # At rho, a solution reads its ladder at s = sqrt(lam) rho.
        rho = s / math.sqrt(sol.lam)
        root_rho = math.sqrt(sol.lam) * rho
        for x, r in zip(sol.derivatives(rho, upto), _referee_derivatives(sol, root_rho, upto)):
            assert np.array_equal(x, r)
    # The value u = norm e^{-w/2} U does not see lam.
    for low, high in zip(batch[:4], batch[4:]):
        assert np.array_equal(low[0], high[0])


def test_a_derivative_batch_stops_at_order_four():
    sols = [ModeSolution(0.5, ModeIndex(1.0, 0, 1)), ModeSolution(0.5, ModeIndex(2.0, 0, 1))]
    with pytest.raises(ValueError, match="order four"):
        mode_derivatives(sols, np.array([1.0]), upto=5)
