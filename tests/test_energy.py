"""Energy quadrature against closed spectral values and variational identities."""

import math
import random

import numpy as np
import pytest
from scipy.integrate import quad

from crext import cli, energy, extend
from crext.energy import (
    _GRAM_INDEX,
    _NP,
    _P_LO,
    _closed_energies,
    _combine,
    _draw_perturbations,
    _grams,
    _lop_poly,
    _mode_profile,
    _pairing,
    _perturbation_parts,
    _tail_grid,
    _w_deriv,
    _w_value,
    _workspace,
    _xp_dx,
    dirichlet_principle_check,
    mode_derivatives,
    mode_energy,
    prepare_profiles,
    q_symmetry_check,
    trace_equality_check,
)
from crext.extend import FourthOrderMode, ModeSolution
from crext.spectral import (
    GammaParam,
    ModeIndex,
    boundary_targets,
    gjms_symbol,
    mode_eigenvalue,
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


def test_q_symmetry_fails_an_all_nan_form(monkeypatch):
    # A running max from 0.0 drops every NaN and would report a perfect pass.
    pairing = energy._pairing
    monkeypatch.setattr(energy, "_pairing", lambda *args: pairing(*args) * math.nan)
    assert math.isnan(q_symmetry_check(GammaParam(1.5), ModeIndex(lam=0.5, k=0, n=1)))


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


def _object_draw(rng, lam):
    """(h, decay) of one perturbation, drawn in the order of the former object path."""
    r0 = rng.uniform(0.2, 1.0) * rng.choice((-1.0, 1.0))
    r1 = rng.uniform(-1.0, 1.0)
    r2 = rng.uniform(-1.0, 1.0)
    return np.array([0.0, r0, r1, r2]), lam * rng.uniform(0.4, 2.0)


def _object_rows(rng, lam, count):
    """(h, c) rows of `count` object-path draws in a row, with no step drawn between them."""
    h, decay = zip(*(_object_draw(rng, lam) for _ in range(count)))
    return np.array(h), np.array(decay)[:, None]


def _referee_closed(h, decay, param, mode) -> float:
    """The closed energy of one perturbation by np.convolve and a scalar gamma sum."""
    lam = abs(mode.lam)
    nu = mode_eigenvalue(mode)
    two_c = 2.0 * decay

    def integral(poly, weight_exp):
        total = 0.0
        for j, coef in enumerate(poly):
            if coef:
                s = j + (weight_exp + 1.0) / 2.0
                total += 0.5 * coef * math.gamma(s) / two_c**s
        return total

    hh = np.convolve(h, h)
    if param.is_high:
        al = param.alpha
        g = _lop_poly(h, decay, al, lam * lam, nu)
        poly = np.convolve(g, g)
        poly[: len(hh)] -= 4.0 * lam * lam * hh
        return integral(poly, 1.0 - 2.0 * al)
    hp = _xp_dx(h)
    core = -decay * h
    core[: len(hp)] += hp
    grad = np.convolve(core, core)
    poly = np.zeros(2 * len(h) + 1)
    poly[1 : 1 + len(grad)] += 4.0 * grad
    poly[: len(hh)] += nu * hh
    poly[1 : 1 + len(hh)] += lam * lam * hh
    return integral(poly, 1.0 - 2.0 * param.gamma)


@pytest.mark.parametrize("gamma", [0.3, 0.6, 1.3, 1.7])
def test_perturbation_energy_closed_matches_quadrature(gamma):
    par = GammaParam(gamma)
    rng = random.Random(f"pq:{gamma}")
    for mode in MODES:
        ws = _workspace(gamma, mode)
        h, c = _object_rows(rng, abs(mode.lam), 1)
        closed = float(_closed_energies(h, c, ws)[0])
        parts = tuple(x[0] for x in _perturbation_parts(h, c, ws))
        quadrature = _pairing(ws, _grams(ws), parts, parts)
        assert quadrature == pytest.approx(closed, rel=1e-10)
        assert closed > 0.0
        assert closed == pytest.approx(_referee_closed(h[0], c[0, 0], par, mode), rel=1e-12)


@pytest.mark.parametrize("gamma", [0.001, 0.25, 0.75, 0.999, 1.001, 1.25, 1.75, 1.999])
@pytest.mark.parametrize("mode", MODES)
def test_closed_energies_match_the_convolved_referee(gamma, mode):
    param = GammaParam(gamma)
    h, c, _ = _draw_perturbations(random.Random(f"closed:{gamma}:{mode}"), abs(mode.lam), 20)
    got = _closed_energies(h, c, _workspace(gamma, mode))
    want = [_referee_closed(row, decay, param, mode) for row, decay in zip(h, c[:, 0])]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("gamma", [0.25, 0.75, 1.25, 1.75])
@pytest.mark.parametrize("mode", MODES)
def test_each_row_of_a_closed_energy_call_is_its_one_row_call_bitwise(gamma, mode):
    ws = _workspace(gamma, mode)
    h, c, _ = _draw_perturbations(random.Random(f"rows:{gamma}:{mode}"), abs(mode.lam), 70)
    rows = _closed_energies(h, c, ws)
    assert rows.shape == (70,)
    for i in range(70):
        one = _closed_energies(h[i : i + 1], c[i : i + 1], ws)
        assert float.hex(float(one[0])) == float.hex(float(rows[i]))


def test_closed_weighted_integral_against_adaptive_quadrature():
    # One row's energy density, formed pointwise from its profile and
    # integrated adaptively: an independent referee for the gamma-function sum.
    mode = ModeIndex(lam=1.0, k=1, n=1)
    for gamma in (0.3, 0.7, 1.3, 1.7):
        param = GammaParam(gamma)
        ws = _workspace(gamma, mode)
        h, c, _ = _draw_perturbations(random.Random(f"quad:{gamma}"), ws.lam, 1)
        row, decay = h[0], c[0, 0]
        g = _lop_poly(row, decay, param.alpha, ws.lam * ws.lam, ws.nu)

        def integrand(rho):
            r = np.array([rho])
            u2 = _w_value(row, decay, r)[0] ** 2
            if param.is_high:
                density = _w_value(g, decay, r)[0] ** 2 - 4.0 * ws.lam**2 * u2
            else:
                density = _w_deriv(row, decay, r)[0] ** 2 + (ws.nu + ws.lam**2 * rho * rho) * u2
            return density * rho ** (1.0 - ws.beta)

        reach = math.sqrt(60.0 / decay)
        reference, _ = quad(integrand, 0.0, reach, epsabs=0.0, epsrel=1e-13, limit=200)
        assert float(_closed_energies(h, c, ws)[0]) == pytest.approx(reference, rel=1e-11)


def test_drawn_perturbations_follow_the_object_path_draw_order():
    # Row by row: r0 magnitude, its sign, r1, r2, the decay, then the step t.
    for count in (1, 33):
        rng, ref = random.Random("order:1"), random.Random("order:1")
        h, c, t = _draw_perturbations(rng, 1.5, count)
        want = [(*_object_draw(ref, 1.5), ref.uniform(0.3, 1.0)) for _ in range(count)]
        assert h.shape == (count, 4) and c.shape == (count, 1) and t.shape == (count,)
        assert np.array_equal(h, np.array([w[0] for w in want]))
        assert np.array_equal(c[:, 0], np.array([w[1] for w in want]))
        assert np.array_equal(t, np.array([w[2] for w in want]))
        assert rng.random() == ref.random()


def test_dirichlet_check_runs_without_numpy_convolve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.convolve is off the energy path")

    monkeypatch.setattr(np, "convolve", refuse)
    mode = ModeIndex(lam=0.5, k=0, n=1)
    for gamma in (0.5, 1.5):
        gap, floor = dirichlet_principle_check(GammaParam(gamma), mode, seed=1, count=8)
        assert gap < 1e-10
        assert floor > 0.0


def test_perturbation_vanishes_at_the_boundary_with_no_singular_branch():
    h, c = np.array([[0.0, 0.8, -0.3, 0.1]]), np.array([[0.9]])

    def value(r):
        return _w_value(h[0], 0.9, r)

    assert value(np.array([0.0]))[0] == 0.0
    for gamma in (0.4, 1.4):
        parts = _perturbation_parts(h, c, _workspace(gamma, ModeIndex(lam=1.0, k=0, n=1)))
        for series in parts[:2]:
            assert series.shape == (1, 2 * _NP)
            assert np.all(series[0, _NP :] == 0.0)
    rho = np.array([0.17, 0.8])
    step = 1e-6
    fd = (value(rho + step) - value(rho - step)) / (2 * step)
    assert np.allclose(_w_deriv(h[0], 0.9, rho), fd, rtol=1e-8)


def test_perturbation_operator_value_solves_its_defining_formula():
    h, decay = np.array([0.0, 0.5, 0.2, -0.4]), 0.7
    alpha, lam_sq, nu = 0.35, 1.21, 6.6
    rho = np.array([0.3, 0.9, 1.6])
    step = 1e-5

    def value(r):
        return _w_value(h, decay, r)

    upp = (value(rho + step) - 2 * value(rho) + value(rho - step)) / step**2
    lop_fd = (
        upp
        + (1.0 - 2.0 * alpha) / rho * _w_deriv(h, decay, rho)
        - (lam_sq * rho**2 + nu) * value(rho)
    )
    lop_value = _w_value(_lop_poly(h, decay, alpha, lam_sq, nu), decay, rho)
    assert np.allclose(lop_value, lop_fd, rtol=1e-5, atol=1e-7)


def test_random_perturbation_is_seed_deterministic():
    first = _draw_perturbations(random.Random("s:1"), 2.0, 1)
    second = _draw_perturbations(random.Random("s:1"), 2.0, 1)
    other = _draw_perturbations(random.Random("s:2"), 2.0, 1)
    assert all(np.array_equal(x, y) for x, y in zip(first, second))
    assert not all(np.array_equal(x, y) for x, y in zip(first, other))
    h, c, _ = first
    assert h[0, 0] == 0.0
    assert abs(h[0, 1]) >= 0.2
    assert 0.4 * 2.0 <= c[0, 0] <= 2.0 * 2.0


def test_tail_grid_covers_the_gaussian_window_with_capped_steps():
    # In s = sqrt(lam) rho, from w_c = min(0.75^2, 2 / level) to w = 80.
    for level, w_c in ((1, 0.5625), (3, 0.5625), (4, 0.5), (64, 2.0 / 64)):
        got_c, nodes, weights = _tail_grid(level)
        assert got_c == w_c
        assert nodes[0] > math.sqrt(w_c)
        assert nodes[-1] < math.sqrt(80.0)
        assert np.all(np.diff(nodes) > 0.0)
        assert np.all(weights > 0.0)
        # 24 nodes per panel; each panel at most doubles w, by at most 8.
        edges, top = [w_c], w_c
        while top < 80.0:
            top = min(2.0 * top, top + 8.0, 80.0)
            edges.append(top)
        assert len(nodes) == 24 * (len(edges) - 1)
        # the panel sum reproduces a Gaussian moment on the window, in s and
        # in rho = s / sqrt(lam)
        got = float(np.sum(weights * np.exp(-(nodes**2)) * nodes))
        want = (math.exp(-w_c) - math.exp(-80.0)) / 2.0
        assert got == pytest.approx(want, rel=1e-13)
        lam = 0.5
        rho, wt = nodes / math.sqrt(lam), weights / math.sqrt(lam)
        got = float(np.sum(wt * np.exp(-lam * rho**2) * rho))
        assert got == pytest.approx(want / lam, rel=1e-13)


def _clear_workspace_caches():
    energy._profiles.clear()
    _workspace.cache_clear()


def _count_u_calls(monkeypatch) -> list:
    """Record the (a, b) rungs of every kummer_u_batch call the derivative ladders make."""
    calls = []
    counted = extend.kummer_u_batch

    def counting(a, b, z):
        calls.append(tuple(zip(a.tolist(), b.tolist())))
        return counted(a, b, z)

    monkeypatch.setattr(extend, "kummer_u_batch", counting)
    return calls


def test_low_and_high_workspaces_share_their_u_ladders(monkeypatch):
    # The high range at 1.5 needs W1 (order 1.5) and W2 (order 0.5), and W2
    # is the low-range solution at 0.5.  Prepared together, the two orders of
    # the mode take one call carrying their four rungs.
    mode = ModeIndex(lam=0.5, k=1, n=2)
    _clear_workspace_caches()
    calls = _count_u_calls(monkeypatch)
    try:
        prepare_profiles([(o, mode) for g in (0.5, 1.5) for o in GammaParam(g).orders])
        _workspace(0.5, mode)
        _workspace(1.5, mode)
    finally:
        _clear_workspace_caches()
    assert len(calls) == 1
    assert len(set(calls[0])) == 4


def test_an_unprepared_profile_is_built_as_a_batch_of_one(monkeypatch):
    mode = ModeIndex(lam=0.5, k=1, n=2)
    _clear_workspace_caches()
    calls = _count_u_calls(monkeypatch)
    try:
        _workspace(0.5, mode)
        _workspace(1.5, mode)
    finally:
        _clear_workspace_caches()
    # order 0.5 for the low workspace, then only order 1.5 is missing
    assert [len(call) for call in calls] == [2, 2]
    assert len({rung for call in calls for rung in call}) == 4


@pytest.mark.parametrize("mode", MODES)
def test_a_profile_built_with_its_mode_is_bitwise_the_one_built_alone(mode):
    # Built beside its lambda-siblings too: dilations of the mode and, on the
    # same level 2k + n, a mode with k one lower and n two higher.
    orders = (0.25, 0.5, 0.75, 1.25, 1.5, 1.75)
    siblings = [mode] + [ModeIndex(c * mode.lam, mode.k, mode.n) for c in (0.1, 3.0, 40.0)]
    if mode.k:
        siblings.append(ModeIndex(1.7, mode.k - 1, mode.n + 2))
    pairs = [(o, m) for m in siblings for o in orders]
    _clear_workspace_caches()
    try:
        prepare_profiles(pairs)
        together = [_mode_profile(*pair) for pair in pairs]
        for pair, batched in zip(pairs, together):
            energy._profiles.clear()
            alone = _mode_profile(*pair)
            assert batched[0].order == alone[0].order
            assert batched[1] == alone[1]
            for x, y in zip(batched[2:], alone[2:]):
                assert np.array_equal(x, y)
    finally:
        _clear_workspace_caches()


def test_one_level_at_two_lambdas_shares_its_tail_values_bitwise():
    # The tail grid lives in s = sqrt(lam) rho, so both frequencies read
    # their ladders at the same w = s^2: u = norm e^{-w/2} U is one array.
    orders = (0.25, 0.75, 1.25, 1.75)
    modes = [ModeIndex(lam=lam, k=1, n=3) for lam in (0.5, 7.3)]
    w_c, s_t, ws_t = _tail_grid(5)
    _clear_workspace_caches()
    try:
        prepare_profiles([(o, mode) for mode in modes for o in orders])
        for order in orders:
            low, high = [_mode_profile(order, mode) for mode in modes]
            assert np.array_equal(low[5], high[5])
            assert not np.array_equal(low[6], high[6])
            for sol, rho_c, _, rho_t, wt_t, *_ in (low, high):
                root = math.sqrt(sol.lam)
                assert rho_c == math.sqrt(w_c) / root
                assert np.array_equal(rho_t, s_t / root)
                assert np.array_equal(wt_t, ws_t / root)
                np.testing.assert_allclose(root * rho_t, s_t, rtol=2.3e-16, atol=0.0)
    finally:
        _clear_workspace_caches()


def test_the_profile_cache_keeps_the_most_recently_read(monkeypatch):
    mode = ModeIndex(lam=2.0, k=0, n=1)
    monkeypatch.setattr(energy, "_PROFILE_CACHE", 3)
    _clear_workspace_caches()
    try:
        prepare_profiles([(o, mode) for o in (0.2, 0.4, 0.6, 0.8, 1.2)])
        assert list(energy._profiles) == [(o, mode) for o in (0.6, 0.8, 1.2)]
        kept = _mode_profile(0.6, mode)
        for order in (0.2, 1.4):
            assert _mode_profile(order, mode)[0].order == order
            assert len(energy._profiles) == 3
        assert _mode_profile(0.6, mode) is kept
        assert list(energy._profiles) == [(o, mode) for o in (0.2, 1.4, 0.6)]
    finally:
        _clear_workspace_caches()


def test_the_default_energy_suite_makes_one_u_call_per_spot_level(monkeypatch):
    # Eight spot modes on four levels 2k + n, two frequencies each; six
    # distinct orders (0.25 .. 1.75) of two rungs each, shared by both.
    _clear_workspace_caches()
    calls = _count_u_calls(monkeypatch)
    try:
        cli._suite_energy(cli.SuiteConfig())
    finally:
        _clear_workspace_caches()
    assert [len(call) for call in calls] == [12] * 4
    assert all(len(set(call)) == 12 for call in calls)


def test_the_default_energy_suite_forms_each_pairs_series_once(monkeypatch):
    # Eight spot modes times six distinct orders: 48 pairs, each of whose
    # Frobenius branches the low and high workspaces read off its profile.
    calls = []
    counted = energy.frobenius_series

    def counting(*args):
        calls.append(args[:3])
        return counted(*args)

    monkeypatch.setattr(energy, "frobenius_series", counting)
    _clear_workspace_caches()
    try:
        cli._suite_energy(cli.SuiteConfig())
    finally:
        _clear_workspace_caches()
    assert len(calls) == 48
    assert len(set(calls)) == 48


def test_the_default_energy_suite_builds_each_workspaces_grams_once():
    # 48 workspaces (eight spot modes, six orders); the trace and Dirichlet
    # checks read each, and the symmetry check the 24 above order 1.
    _clear_workspace_caches()
    _grams.cache_clear()
    try:
        cli._suite_energy(cli.SuiteConfig())
        info = _grams.cache_info()
    finally:
        _clear_workspace_caches()
    assert (info.misses, info.hits) == (48, 72)


@pytest.mark.parametrize("gamma", [1.25, 1.7])
@pytest.mark.parametrize("mode", MODES)
def test_high_workspace_tail_matches_the_fourth_order_mode_bitwise(gamma, mode):
    # On the workspace's own grid: s from its level, rho = s / sqrt(lam).
    param = GammaParam(gamma)
    ws = _workspace(gamma, mode)
    _, s_t, _ = _tail_grid(2 * mode.k + mode.n)
    assert np.array_equal(ws.rho_t, s_t / math.sqrt(ws.lam))
    for (_, _, u_t, lop_t), data in zip(ws.basis, ((1.0, 0.0), (0.0, 1.0))):
        fourth = FourthOrderMode(param, mode, *data)
        d1, d2 = mode_derivatives([fourth.w1, fourth.w2], s_t, 1)
        (value,), lop = fourth.assemble(ws.rho_t, d1, d2, 0)
        assert np.array_equal(u_t, value)
        assert np.array_equal(lop_t, lop)
        # the rho-side entry points read s = sqrt(lam) rho, within an ulp of s_t
        np.testing.assert_allclose(fourth.derivatives(ws.rho_t, 0)[0], u_t, rtol=1e-13)
        np.testing.assert_allclose(fourth.lop(ws.rho_t), lop_t, rtol=1e-13)


def test_cached_profiles_are_read_only():
    mode = ModeIndex(lam=2.0, k=2, n=1)
    arrays = []
    for order in (0.25, 1.75):
        _, _, series, *tail = _mode_profile(order, mode)
        assert [x.shape for x in series] == [(energy._INNER_TERMS,)] * 2
        arrays += [*series, *tail]
    low = _workspace(0.25, mode)
    high = _workspace(1.75, mode)
    for ws in (low, high):
        arrays += [ws.rho_t, ws.wt_t, ws.m, ws.m_t, ws.boundary, ws.moments]
        arrays += [x for gram in _grams(ws) for x in gram]
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
    grams = _grams(ws)
    q = np.array([[_pairing(ws, grams, p, r) for r in ws.basis] for p in ws.basis]) + ws.boundary
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
    h, c = _object_rows(random.Random(f"gram:{gamma}:{mode}"), abs(mode.lam), 3)
    stacked = _perturbation_parts(h, c, ws)
    others = list(ws.basis) + [tuple(x[i] for x in stacked) for i in range(len(h))]
    for p in ws.basis:
        for q in others:
            want = _referee_bulk(ws, p, q)
            assert _pairing(ws, _grams(ws), p, q) == pytest.approx(want, rel=1e-12)


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
        _pairing(ws, _grams(ws), part, part)
    cells[1, -2 - _P_LO] = 0.0
    got = _pairing(ws, _grams(ws), part, part)
    assert got == pytest.approx(_referee_bulk(ws, part, part), rel=1e-12)


def _dirichlet_one_at_a_time(param, mode, seed, count):
    """The Dirichlet check with every perturbation drawn, graded and evaluated on its own."""
    rng = random.Random(f"dirichlet:{seed}:{param.gamma}:{mode.lam}:{mode.k}:{mode.n}")
    ws = _workspace(param.gamma, mode)
    data = (1.0, 0.6) if param.is_high else (1.0,)
    base = _combine(data, ws.basis)
    e_base = mode_energy(param, mode, data)
    edge = float(np.array(data) @ ws.boundary @ np.array(data))
    worst, floor = 0.0, math.inf
    for _ in range(count):
        h, decay = _object_draw(rng, abs(mode.lam))
        t = rng.uniform(0.3, 1.0)
        e_w = _referee_closed(h, decay, param, mode)
        w = tuple(x[0] for x in _perturbation_parts(h[None], np.array([[decay]]), ws))
        shifted = _combine((1.0, t), (base, w))
        e_shift = float(_pairing(ws, _grams(ws), shifted, shifted)) + edge
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
