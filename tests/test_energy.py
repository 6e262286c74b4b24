"""Energy quadrature against closed spectral values and variational identities."""

import math
import random

import numpy as np
import pytest
from scipy.integrate import quad

from crext import cli, extend
from crext.energy import (
    _GRAM_INDEX,
    _NP,
    _P_LO,
    Perturbation,
    _bulk,
    _closed_weighted_integral,
    _combine,
    _energy,
    _grams,
    _mode_profile,
    _perturbation_parts,
    _tail_grid,
    _w_deriv,
    _w_value,
    _workspace,
    dirichlet_principle_check,
    mode_energy,
    perturbation_energy_closed,
    perturbation_energy_quadrature,
    q_symmetry_check,
    random_perturbation,
    trace_equality_check,
)
from crext.extend import FourthOrderMode, ModeSolution
from crext.spectral import (
    GammaParam,
    ModeIndex,
    boundary_targets,
    gjms_symbol,
    theorem_constant,
)

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


@pytest.mark.parametrize("gamma", [0.1, 0.25, 0.5, 0.9, 1.1, 1.25, 1.5, 1.9])
@pytest.mark.parametrize("mode", MODES)
def test_boundary_targets_equal_the_graders_former_expressions_bitwise(gamma, mode):
    # Every grader reads the theorem's diagonal off boundary_targets; each
    # entry, its negation and its sum must be the float the grader formed itself.
    param = GammaParam(gamma)
    targets = boundary_targets(param, mode)
    if not param.is_high:
        assert param.orders == (gamma,)
        assert targets == (theorem_constant(param) * gjms_symbol(gamma, mode),)
        return
    assert param.orders == (gamma, 2.0 - gamma)
    c_phi, c_psi = theorem_constant(param)
    p_gamma, p_dual = gjms_symbol(gamma, mode), gjms_symbol(2.0 - gamma, mode)
    assert targets == (c_phi * p_gamma, -c_psi * p_dual)
    assert -targets[1] == c_psi * p_dual
    assert sum(targets) == c_phi * p_gamma - c_psi * p_dual


def test_minimum_energy_is_the_boundary_derivative_constant():
    mode = ModeIndex(lam=1.0, k=1, n=1)
    sol = ModeSolution(0.4, mode)
    assert mode_energy(GammaParam(0.4), mode, (1.0,)) == pytest.approx(sol.dtn, rel=1e-11)


@pytest.mark.parametrize("gamma", [1.3, 1.6])
def test_polarized_energy_is_diagonal_in_the_data(gamma):
    par = GammaParam(gamma)
    mode = ModeIndex(lam=0.5, k=1, n=1)
    c_phi, c_psi = theorem_constant(par)
    e_phi = mode_energy(par, mode, (0.7, 0.0))
    e_psi = mode_energy(par, mode, (0.0, 1.3))
    assert e_phi == pytest.approx(c_phi * gjms_symbol(gamma, mode) * 0.7**2, rel=1e-10)
    assert e_psi == pytest.approx(
        -c_psi * gjms_symbol(2.0 - gamma, mode) * 1.3**2, rel=1e-10
    )
    # the explicit boundary term cancels the bulk cross pairing, so the
    # energy is exactly the sum of its two polarized pieces
    both = mode_energy(par, mode, (0.7, 1.3))
    assert abs(both - e_phi - e_psi) < 1e-10 * abs(both)


def test_both_energy_terms_are_positive():
    par = GammaParam(1.4)
    mode = ModeIndex(lam=2.0, k=0, n=2)
    assert mode_energy(par, mode, (1.0, 0.0)) > 0.0
    assert mode_energy(par, mode, (0.0, 1.0)) > 0.0
    assert mode_energy(GammaParam(0.4), mode, (1.0,)) > 0.0


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
    # One boundary datum below order 1 and two above: data of the other
    # range's length is refused, not silently truncated or padded.
    mode = ModeIndex(lam=1.0, k=0, n=1)
    with pytest.raises(ValueError, match="takes 2 data, got 1"):
        mode_energy(GammaParam(1.5), mode, (1.0,))
    with pytest.raises(ValueError, match="takes 1 data, got 2"):
        mode_energy(GammaParam(0.5), mode, (1.0, 1.0))
    with pytest.raises(ValueError, match="takes 2 data, got 3"):
        mode_energy(GammaParam(1.5), mode, (1.0, 1.0, 1.0))


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

    def value(r):
        return _w_value(pert.h, pert.decay, r)

    assert value(np.array([0.0]))[0] == 0.0
    for gamma in (0.4, 1.4):
        parts = _perturbation_parts((pert,), _workspace(gamma, ModeIndex(lam=1.0, k=0, n=1)))
        for series in parts[:2]:
            assert series.shape == (1, 2 * _NP)
            assert np.all(series[0, _NP :] == 0.0)
    rho = np.array([0.17, 0.8])
    step = 1e-6
    fd = (value(rho + step) - value(rho - step)) / (2 * step)
    assert np.allclose(_w_deriv(pert.h, pert.decay, rho), fd, rtol=1e-8)


def test_perturbation_operator_value_solves_its_defining_formula():
    pert = Perturbation((0.5, 0.2, -0.4), 0.7)
    alpha, lam_sq, nu = 0.35, 1.21, 6.6
    rho = np.array([0.3, 0.9, 1.6])
    step = 1e-5

    def value(r):
        return _w_value(pert.h, pert.decay, r)

    upp = (value(rho + step) - 2 * value(rho) + value(rho - step)) / step**2
    lop_fd = (
        upp
        + (1.0 - 2.0 * alpha) / rho * _w_deriv(pert.h, pert.decay, rho)
        - (lam_sq * rho**2 + nu) * value(rho)
    )
    lop_value = _w_value(pert.lop_poly(alpha, lam_sq, nu), pert.decay, rho)
    assert np.allclose(lop_value, lop_fd, rtol=1e-5, atol=1e-7)


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
    # is the low-range solution at 0.5: two orders, one ladder of two rungs each.
    calls = []
    counted = extend.kummer_u_batch

    def counting(a, b, z):
        calls.append(tuple(zip(a, b)))
        return counted(a, b, z)

    mode = ModeIndex(lam=0.5, k=1, n=2)
    _clear_workspace_caches()
    monkeypatch.setattr(extend, "kummer_u_batch", counting)
    try:
        _workspace(0.5, mode)
        _workspace(1.5, mode)
    finally:
        _clear_workspace_caches()
    # one kummer_u_batch call per ladder, carrying both rungs
    assert len(calls) == 2
    assert len({rung for call in calls for rung in call}) == 4


@pytest.mark.parametrize("gamma", [1.25, 1.7])
@pytest.mark.parametrize("mode", MODES)
def test_high_workspace_tail_matches_the_fourth_order_mode_bitwise(gamma, mode):
    param = GammaParam(gamma)
    ws = _workspace(gamma, mode)
    for (_, _, u_t, lop_t), data in zip(ws.basis, ((1.0, 0.0), (0.0, 1.0))):
        fourth = FourthOrderMode(param, mode, *data)
        assert np.array_equal(u_t, fourth.derivatives(ws.rho_t, 0)[0])
        assert np.array_equal(lop_t, fourth.lop(ws.rho_t))


def test_cached_profiles_are_read_only():
    mode = ModeIndex(lam=2.0, k=2, n=1)
    _, _, *arrays = _mode_profile(0.25, mode)
    low = _workspace(0.25, mode)
    high = _workspace(1.75, mode)
    for ws in (low, high):
        arrays += [ws.rho_t, ws.wt_t, ws.m, ws.m_t, ws.boundary, ws.moments]
        for part in ws.basis:
            assert [x.shape for x in part[:2]] == [(2 * _NP,)] * 2
            arrays += list(part)
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
        energy = mode_energy(GammaParam(gamma), mode, data)
        assert energy == pytest.approx(float(data @ q @ data), rel=1e-12)


def _referee_bulk(ws, partsP, partsQ) -> float:
    """The bulk pairing by convolving the series and integrating term by term."""

    def product(x, y):
        # branch b1 + b2 of x * y, powers from 2 * _P_LO on
        out = np.zeros((3, 2 * _NP - 1))
        for b1, row1 in enumerate(x.reshape(2, _NP)):
            for b2, row2 in enumerate(y.reshape(2, _NP)):
                out[b1 + b2] += np.convolve(row1, row2)
        return out

    uP, aP, tP, atP = partsP
    uQ, aQ, tQ, atQ = partsQ
    uu = product(uP, uQ)
    series = np.zeros((3, uu.shape[1] + len(ws.m) - 1))
    series[:, : uu.shape[1]] += product(aP, aQ)
    for k, coef in enumerate(ws.m):
        series[:, k : k + uu.shape[1]] += coef * uu
    inner = 0.0
    for b, row in enumerate(series):
        for i in np.flatnonzero(row):
            e = 2 * _P_LO + i + 2.0 + (b - 1) * ws.beta
            assert abs(e) > 1e-9
            inner += row[i] * ws.rho_c**e / e
    integrand = (atP * atQ + ws.m_t * (tP * tQ)) * ws.rho_t ** (1.0 - ws.beta)
    return inner + float(np.sum(ws.wt_t * integrand))


@pytest.mark.parametrize("gamma", [0.25, 0.75, 1.25, 1.75])
@pytest.mark.parametrize("mode", MODES)
def test_gram_form_matches_the_convolved_series(gamma, mode):
    ws = _workspace(gamma, mode)
    rng = random.Random(f"gram:{gamma}:{mode}")
    perts = [random_perturbation(rng, abs(mode.lam)) for _ in range(3)]
    stacked = _perturbation_parts(perts, ws)
    others = list(ws.basis) + [tuple(x[i] for x in stacked) for i in range(len(perts))]
    for p in ws.basis:
        for q in others:
            want = _referee_bulk(ws, p, q)
            assert _bulk(ws, p, q) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("gamma", [0.25, 0.5, 1.5, 1.75])
@pytest.mark.parametrize("mode", MODES)
def test_degenerate_cells_are_the_nan_cells_of_the_gathered_grams(gamma, mode):
    # The workspace locates them once from its moment table; a scan of each
    # freshly gathered Gram must find the same cells and the same values.
    ws = _workspace(gamma, mode)
    for weights, (gram, rows, cols) in zip(((1.0,), ws.m), _grams(ws)):
        raw = sum(w * np.take(ws.moments, _GRAM_INDEX + k) for k, w in enumerate(weights) if w)
        bad = np.isnan(raw)
        assert bad.any()
        assert [rows.tolist(), cols.tolist()] == [x.tolist() for x in np.nonzero(bad)]
        assert np.array_equal(gram, np.where(bad, 0.0, raw))


@pytest.mark.parametrize("gamma", [0.25, 0.5, 1.5, 1.75])
def test_a_nonzero_pair_on_a_degenerate_exponent_raises(gamma):
    # e = p + 2 + (b - 1) beta vanishes at branch sum 1 and power sum -2 for
    # every beta, so A coefficients at (0, rho^0) and (1, rho^-2) pair there.
    ws = _workspace(gamma, ModeIndex(lam=1.0, k=1, n=1))
    cells = np.zeros((2, _NP))
    cells[0, 0 - _P_LO] = 0.7
    cells[1, -2 - _P_LO] = 1.3
    a = cells.reshape(-1)
    tail = np.zeros_like(ws.rho_t)
    part = (np.zeros_like(a), a, tail, tail)
    with pytest.raises(RuntimeError, match="lattice violated"):
        _bulk(ws, part, part)
    cells[1, -2 - _P_LO] = 0.0
    assert _bulk(ws, part, part) == pytest.approx(_referee_bulk(ws, part, part), rel=1e-12)


def _dirichlet_one_at_a_time(param, mode, seed, count):
    """The Dirichlet check with every perturbation evaluated on its own."""
    rng = random.Random(f"dirichlet:{seed}:{param.gamma}:{mode.lam}:{mode.k}:{mode.n}")
    ws = _workspace(param.gamma, mode)
    data = (1.0, 0.6) if param.is_high else (1.0,)
    base = _combine(data, ws.basis)
    e_base = _energy(ws, base, data)
    worst, floor = 0.0, math.inf
    for _ in range(count):
        pert = random_perturbation(rng, abs(mode.lam))
        t = rng.uniform(0.3, 1.0)
        e_w = perturbation_energy_closed(pert, param, mode)
        w = tuple(x[0] for x in _perturbation_parts((pert,), ws))
        e_shift = _energy(ws, _combine((1.0, t), (base, w)), data)
        worst = max(worst, abs(e_shift - e_base - t * t * e_w) / (abs(e_base) + t * t * abs(e_w)))
        floor = min(floor, e_w)
    return worst, floor


@pytest.mark.parametrize("gamma", [0.25, 0.75, 1.25, 1.75])
@pytest.mark.parametrize("mode", MODES[:2])
@pytest.mark.parametrize("count", [20, 70])
def test_batched_dirichlet_check_matches_one_at_a_time(gamma, mode, count):
    # count = 70 spans three blocks of at most 32 perturbations
    param = GammaParam(gamma)
    worst, floor = dirichlet_principle_check(param, mode, seed=4, count=count)
    want_worst, want_floor = _dirichlet_one_at_a_time(param, mode, 4, count)
    assert worst == pytest.approx(want_worst, abs=1e-12)
    assert floor == pytest.approx(want_floor, rel=1e-12)


@pytest.mark.parametrize(
    "fields",
    [
        {"gammas_low": (0.001, 0.999), "gammas_high": (1.001, 1.999)},
        {"spot_lambdas": (1e-4, 1e4)},
    ],
)
def test_energy_suite_passes_at_the_ends_of_its_envelope(fields):
    # gamma near 0, 1 and 2 puts lattice exponents e near 0, where the
    # moments rho_c^e / e are large; extreme lambdas move rho_c and the tail.
    report = cli.run_suites(cli.SuiteConfig(**fields), ["energy"])
    assert report.entries
    for entry in report.entries:
        assert entry.passed, (entry.check_id, entry.measured_error)
