"""Energy quadrature against closed spectral values and variational identities."""

import math
import random

import numpy as np
import pytest
from scipy.integrate import quad

from crext import extend
from crext.energy import (
    Perturbation,
    _closed_weighted_integral,
    _bulk,
    _mode_profile,
    _tail_grid,
    _workspace,
    dirichlet_principle_check,
    mode_energy_2,
    mode_energy_4,
    perturbation_energy_closed,
    perturbation_energy_quadrature,
    q_symmetry_check,
    random_perturbation,
    trace_equality_check,
)
from crext.extend import FourthOrderMode, ModeSolution
from crext.spectral import GammaParam, ModeIndex, gjms_symbol, theorem_constant

MODES = (
    ModeIndex(lam=0.5, k=0, n=1),
    ModeIndex(lam=2.0, k=2, n=1),
    ModeIndex(lam=1.0, k=1, n=2),
)


@pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("mode", MODES)
def test_trace_equality_low_range(gamma, mode):
    assert trace_equality_check(GammaParam(gamma), mode) < 1e-10


@pytest.mark.parametrize("gamma", [1.25, 1.5, 1.75])
@pytest.mark.parametrize("mode", MODES)
def test_trace_equality_high_range(gamma, mode):
    assert trace_equality_check(GammaParam(gamma), mode) < 1e-10


def test_minimum_energy_is_the_boundary_derivative_constant():
    mode = ModeIndex(lam=1.0, k=1, n=1)
    sol = ModeSolution(0.4, mode)
    assert mode_energy_2(GammaParam(0.4), mode) == pytest.approx(sol.dtn, rel=1e-11)


@pytest.mark.parametrize("gamma", [1.3, 1.6])
def test_polarized_energy_is_diagonal_in_the_data(gamma):
    par = GammaParam(gamma)
    mode = ModeIndex(lam=0.5, k=1, n=1)
    c_phi, c_psi = theorem_constant(par)
    e_phi = mode_energy_4(par, mode, 0.7, 0.0)
    e_psi = mode_energy_4(par, mode, 0.0, 1.3)
    assert e_phi == pytest.approx(c_phi * gjms_symbol(gamma, mode) * 0.7**2, rel=1e-10)
    assert e_psi == pytest.approx(
        -c_psi * gjms_symbol(2.0 - gamma, mode) * 1.3**2, rel=1e-10
    )
    # the explicit boundary term cancels the bulk cross pairing, so the
    # energy is exactly the sum of its two polarized pieces
    both = mode_energy_4(par, mode, 0.7, 1.3)
    assert abs(both - e_phi - e_psi) < 1e-10 * abs(both)


def test_both_energy_terms_are_positive():
    par = GammaParam(1.4)
    mode = ModeIndex(lam=2.0, k=0, n=2)
    assert mode_energy_4(par, mode, 1.0, 0.0) > 0.0
    assert mode_energy_4(par, mode, 0.0, 1.0) > 0.0
    assert mode_energy_2(GammaParam(0.4), mode) > 0.0


@pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75, 1.25, 1.5, 1.75])
def test_dirichlet_principle_excess(gamma):
    mode = ModeIndex(lam=0.5, k=0, n=1)
    gap, floor = dirichlet_principle_check(GammaParam(gamma), mode, seed=2, count=12)
    assert gap < 1e-10
    assert floor > 0.0


def test_dirichlet_principle_on_a_larger_mode():
    gap, floor = dirichlet_principle_check(
        GammaParam(1.75), ModeIndex(lam=2.0, k=2, n=2), seed=5, count=12
    )
    assert gap < 1e-10
    assert floor > 0.0


@pytest.mark.parametrize("gamma", [1.25, 1.5, 1.75])
@pytest.mark.parametrize("mode", MODES)
def test_q_symmetry_and_boundary_representation(gamma, mode):
    assert q_symmetry_check(GammaParam(gamma), mode, seed=3, count=20) < 1e-10


def test_q_symmetry_rejects_the_low_range():
    with pytest.raises(ValueError, match="gamma in"):
        q_symmetry_check(GammaParam(0.5), ModeIndex(lam=1.0, k=0, n=1))


def test_energy_functionals_reject_the_wrong_range():
    mode = ModeIndex(lam=1.0, k=0, n=1)
    with pytest.raises(ValueError, match="gamma in"):
        mode_energy_2(GammaParam(1.5), mode)
    with pytest.raises(ValueError, match="gamma in"):
        mode_energy_4(GammaParam(0.5), mode)


@pytest.mark.parametrize("gamma", [0.3, 0.6, 1.3, 1.7])
def test_perturbation_energy_closed_matches_quadrature(gamma):
    par = GammaParam(gamma)
    rng = random.Random(f"pq:{gamma}")
    for mode in MODES:
        pert = random_perturbation(rng, abs(mode.lam))
        closed = perturbation_energy_closed(pert, par, mode)
        quadrature = perturbation_energy_quadrature(pert, par, mode)
        assert quadrature == pytest.approx(closed, rel=1e-10)
        assert closed > 0.0


def test_perturbation_vanishes_at_the_boundary_with_no_singular_branch():
    pert = Perturbation((0.8, -0.3, 0.1), 0.9)
    assert pert.value(np.array([0.0]))[0] == 0.0
    u_pair, du_pair = pert.pair_series()
    assert set(u_pair) == {0} and set(du_pair) == {0}
    rho = np.array([0.17, 0.8])
    step = 1e-6
    fd = (pert.value(rho + step) - pert.value(rho - step)) / (2 * step)
    assert np.allclose(pert.deriv(rho), fd, rtol=1e-8)


def test_perturbation_operator_value_solves_its_defining_formula():
    pert = Perturbation((0.5, 0.2, -0.4), 0.7)
    alpha, lam_sq, nu = 0.35, 1.21, 6.6
    rho = np.array([0.3, 0.9, 1.6])
    step = 1e-5
    upp = (pert.value(rho + step) - 2 * pert.value(rho) + pert.value(rho - step)) / step**2
    lop_fd = (
        upp
        + (1.0 - 2.0 * alpha) / rho * pert.deriv(rho)
        - (lam_sq * rho**2 + nu) * pert.value(rho)
    )
    assert np.allclose(pert.lop_value(rho, alpha, lam_sq, nu), lop_fd, rtol=1e-5, atol=1e-7)


def test_random_perturbation_is_seed_deterministic():
    first = random_perturbation(random.Random("s:1"), 2.0)
    second = random_perturbation(random.Random("s:1"), 2.0)
    other = random_perturbation(random.Random("s:2"), 2.0)
    assert first == second
    assert first != other
    assert abs(first.r[0]) >= 0.2
    assert 0.4 * 2.0 <= first.decay <= 2.0 * 2.0


def test_closed_weighted_integral_against_adaptive_quadrature():
    poly = np.array([0.0, 1.5, -0.4])
    weight, two_c = 0.5, 1.8

    def integrand(rho):
        x = rho * rho
        return rho**weight * (1.5 * x - 0.4 * x * x) * math.exp(-two_c * x)

    reference, _ = quad(integrand, 0.0, 25.0, epsabs=1e-14, epsrel=1e-13, limit=200)
    assert _closed_weighted_integral(poly, weight, two_c) == pytest.approx(
        reference, rel=1e-11
    )


def test_tail_grid_covers_the_gaussian_window_with_capped_steps():
    lam, rho_c = 0.5, 0.4
    nodes, weights = _tail_grid(lam, rho_c)
    assert nodes[0] > rho_c
    assert nodes[-1] < math.sqrt(80.0 / lam)
    assert np.all(np.diff(nodes) > 0.0)
    assert np.all(weights > 0.0)
    # the panel sum reproduces a Gaussian moment on the window
    got = float(np.sum(weights * np.exp(-lam * nodes**2) * nodes))
    lo, hi = rho_c, math.sqrt(80.0 / lam)
    want = (math.exp(-lam * lo**2) - math.exp(-lam * hi**2)) / (2.0 * lam)
    assert got == pytest.approx(want, rel=1e-13)


def _clear_workspace_caches():
    for cached in (_mode_profile, _workspace):
        cached.cache_clear()


def test_low_and_high_workspaces_share_their_u_ladders(monkeypatch):
    # The high range at 1.5 needs W1 (order 1.5) and W2 (order 0.5), and W2
    # is the low-range solution at 0.5: two orders, two ladder rungs each.
    calls = []
    counted = extend.kummer_u_batch

    def counting(a, b, z):
        calls.append((a, b))
        return counted(a, b, z)

    mode = ModeIndex(lam=0.5, k=1, n=2)
    _clear_workspace_caches()
    monkeypatch.setattr(extend, "kummer_u_batch", counting)
    try:
        _workspace(0.5, mode)
        _workspace(1.5, mode)
    finally:
        _clear_workspace_caches()
    assert len(calls) == 4
    assert len(set(calls)) == 4


@pytest.mark.parametrize("gamma", [1.25, 1.7])
@pytest.mark.parametrize("mode", MODES)
def test_high_workspace_tail_matches_the_fourth_order_mode_bitwise(gamma, mode):
    param = GammaParam(gamma)
    ws = _workspace(gamma, mode)
    for (_, _, u_t, lop_t), data in zip(ws.basis, ((1.0, 0.0), (0.0, 1.0))):
        fourth = FourthOrderMode(param, mode, *data)
        assert np.array_equal(u_t, fourth.value(ws.rho_t))
        assert np.array_equal(lop_t, fourth.lop(ws.rho_t))


def test_cached_profiles_are_read_only():
    mode = ModeIndex(lam=2.0, k=2, n=1)
    _, _, *arrays = _mode_profile(0.25, mode)
    low = _workspace(0.25, mode)
    high = _workspace(1.75, mode)
    for ws in (low, high):
        arrays += [ws.rho_t, ws.wt_t, ws.m_t, ws.boundary]
        arrays += [br.coef for br in ws.m.values()]
        for u, a, u_t, a_t in ws.basis:
            arrays += [u_t, a_t] + [br.coef for br in (*u.values(), *a.values())]
    for arr in arrays:
        assert arr.flags.writeable is False
    with pytest.raises(ValueError):
        low.basis[0][2][0] = 0.0
    with pytest.raises(ValueError):
        high.basis[1][3][0] = 0.0


@pytest.mark.parametrize("gamma", [1.25, 1.7])
@pytest.mark.parametrize("mode", MODES)
def test_mode_energy_is_the_polarized_matrix_on_the_data(gamma, mode):
    ws = _workspace(gamma, mode)
    q = np.array([[_bulk(ws, p, r) for r in ws.basis] for p in ws.basis]) + ws.boundary
    rng = random.Random(f"qdata:{gamma}:{mode}")
    for _ in range(5):
        data = np.array([rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)])
        energy = mode_energy_4(GammaParam(gamma), mode, *data)
        assert energy == pytest.approx(float(data @ q @ data), rel=1e-12)
