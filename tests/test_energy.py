"""Energy quadrature against closed spectral values and variational identities."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from crext import cli, energy, extend, special
from crext.energy import (
    _GRAM_INDEX,
    _NP,
    _P_LO,
    _TAIL_NODES,
    _closed_energies,
    _combine,
    _draw_perturbations,
    _grams,
    _lop_poly,
    _mode_profile,
    _pairing,
    _perturbation_parts,
    _tail_grid,
    _unit_data,
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
from referees import w_deriv as _w_deriv
from referees import w_value as _w_value

MODES = (
    ModeIndex(lam=0.5, k=0, n=1),
    ModeIndex(lam=2.0, k=2, n=1),
    ModeIndex(lam=1.0, k=1, n=2),
)


def _level(mode) -> int:
    return 2 * mode.k + mode.n


def _ws(gamma, mode):
    """The unit-frequency workspace that `mode` reads at gamma."""
    return _workspace(gamma, _level(mode))


def _to_s(h, c, lam):
    """Perturbation rows (h, c) drawn in x = rho^2 at frequency lam, mapped into x = s^2."""
    return h * lam ** -np.arange(h.shape[-1]), c / lam


@pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("mode", MODES)
def test_trace_equality_low_range(gamma, mode):
    assert trace_equality_check(GammaParam(gamma), [mode])[0] < 1e-10


@pytest.mark.parametrize("gamma", [1.25, 1.5, 1.75])
@pytest.mark.parametrize("mode", MODES)
def test_trace_equality_high_range(gamma, mode):
    assert trace_equality_check(GammaParam(gamma), [mode])[0] < 1e-10


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
    ((gap, floor),) = dirichlet_principle_check(GammaParam(gamma), [mode], seed=2, count=12)
    assert gap < 1e-10
    assert floor > 0.0


def test_dirichlet_principle_on_a_larger_mode():
    ((gap, floor),) = dirichlet_principle_check(
        GammaParam(1.75), [ModeIndex(lam=2.0, k=2, n=2)], seed=5, count=12
    )
    assert gap < 1e-10
    assert floor > 0.0


@pytest.mark.parametrize("gamma", [1.25, 1.5, 1.75])
@pytest.mark.parametrize("mode", MODES)
def test_q_symmetry_and_boundary_representation(gamma, mode):
    assert q_symmetry_check(GammaParam(gamma), [mode], seed=3, count=20)[0] < 1e-10


def test_q_symmetry_fails_an_all_nan_form(monkeypatch):
    # A running max from 0.0 drops every NaN and would report a perfect pass.
    # Fresh workspaces, so that no basis form built before is read.
    _clear_workspace_caches()
    pairing = energy._pairing
    monkeypatch.setattr(energy, "_pairing", lambda *args: pairing(*args) * math.nan)
    assert math.isnan(q_symmetry_check(GammaParam(1.5), [ModeIndex(lam=0.5, k=0, n=1)])[0])


def test_q_symmetry_rejects_the_low_range():
    with pytest.raises(ValueError, match="gamma in"):
        q_symmetry_check(GammaParam(0.5), [ModeIndex(lam=1.0, k=0, n=1)])


def test_the_checks_take_the_modes_of_one_level():
    # One value per mode, none for no modes, and a call across levels is refused.
    same = [ModeIndex(0.5, 1, 1), ModeIndex(3.0, 0, 3)]
    mixed = [ModeIndex(0.5, 1, 1), ModeIndex(0.5, 0, 1)]
    param = GammaParam(1.5)
    assert len(trace_equality_check(param, same)) == 2
    assert len(dirichlet_principle_check(param, same, count=2)) == 2
    assert len(q_symmetry_check(param, same, count=2)) == 2
    for check in (trace_equality_check, dirichlet_principle_check, q_symmetry_check):
        assert check(param, []) == []
        with pytest.raises(ValueError, match=r"one level 2k \+ n, got \[1, 3\]"):
            check(param, mixed)


def test_one_level_at_two_lambdas_shares_its_tail_values_bitwise(monkeypatch):
    # Different frequencies and different (k, n) on level 3 read one
    # unit-frequency workspace object, built once, so every tail array is
    # shared; a third mode there gives the same bits.
    read = []
    built = energy._workspace

    def recording(gamma, level):
        read.append(built(gamma, level))
        return read[-1]

    monkeypatch.setattr(energy, "_workspace", recording)
    _clear_workspace_caches()
    try:
        for gamma in (0.4, 1.6):
            param = GammaParam(gamma)
            data = (1.0, 0.3)[: len(param.orders)]
            read.clear()
            first = mode_energy(param, ModeIndex(0.5, 1, 1), data)
            mode_energy(param, ModeIndex(7.0, 0, 3), data)
            assert len(read) == 2 and read[0] is read[1]
            assert read[0].level == 3
            assert first == mode_energy(param, ModeIndex(0.5, 0, 3), data)
            assert built.cache_info().currsize == (1 if gamma < 1 else 2)
    finally:
        _clear_workspace_caches()


@settings(max_examples=25, deadline=None)
@given(
    exponent=st.floats(-12.0, 12.0),
    gamma=st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9, 1.1, 1.25, 1.5, 1.75, 1.9]),
    kn=st.tuples(st.integers(0, 2), st.integers(1, 3)),
    data=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)
def test_mode_energy_follows_the_heisenberg_dilation(exponent, gamma, kn, data):
    # E_lam(phi, psi) = lam^gamma E_1(phi, lam^-alpha psi); at unit data the
    # energy still meets the closed value, whose symbol is formed at lam.
    lam = 10.0**exponent
    param = GammaParam(gamma)
    k, n = kn
    phi, psi = data
    got = mode_energy(param, ModeIndex(lam, k, n), (phi, psi)[: len(param.orders)])
    unit = (phi, lam**-param.alpha * psi)[: len(param.orders)]
    want = lam**gamma * mode_energy(param, ModeIndex(1.0, k, n), unit)
    assert abs(got - want) <= 1e-13 * abs(want)
    assert trace_equality_check(param, [ModeIndex(lam, k, n)])[0] < 1e-11


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
        ws = _ws(gamma, mode)
        lam = abs(mode.lam)
        h, c = _object_rows(rng, lam, 1)
        h_s, c_s = _to_s(h, c, lam)
        closed = float(_closed_energies(h_s, c_s, ws)[0])
        parts = tuple(x[0] for x in _perturbation_parts(h_s, c_s, ws))
        quadrature = _pairing(ws, _grams(ws), parts, parts)
        assert quadrature == pytest.approx(closed, rel=1e-10)
        assert closed > 0.0
        # the referee integrates the row in rho at lam: the dilation law
        want = _referee_closed(h[0], c[0, 0], par, mode)
        assert lam**gamma * closed == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("gamma", [0.001, 0.25, 0.75, 0.999, 1.001, 1.25, 1.75, 1.999])
@pytest.mark.parametrize("mode", MODES)
def test_closed_energies_match_the_convolved_referee(gamma, mode):
    param = GammaParam(gamma)
    lam = abs(mode.lam)
    h, c, _ = _draw_perturbations(random.Random(f"closed:{gamma}:{mode}"), lam, 20)
    got = lam**gamma * _closed_energies(*_to_s(h, c, lam), _ws(gamma, mode))
    want = [_referee_closed(row, decay, param, mode) for row, decay in zip(h, c[:, 0])]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("gamma", [0.25, 0.75, 1.25, 1.75])
@pytest.mark.parametrize("mode", MODES)
def test_each_row_of_a_closed_energy_call_is_its_one_row_call_bitwise(gamma, mode):
    ws = _ws(gamma, mode)
    h, c, _ = _draw_perturbations(random.Random(f"rows:{gamma}:{mode}"), 1.0, 70)
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
        ws = _ws(gamma, mode)
        h, c, _ = _draw_perturbations(random.Random(f"quad:{gamma}"), 1.0, 1)
        row, decay = h[0], c[0, 0]
        g = _lop_poly(row, decay, param.alpha, 1.0, ws.nu)

        def integrand(s):
            r = np.array([s])
            u2 = _w_value(row, decay, r)[0] ** 2
            if param.is_high:
                density = _w_value(g, decay, r)[0] ** 2 - 4.0 * u2
            else:
                density = _w_deriv(row, decay, r)[0] ** 2 + (ws.nu + s * s) * u2
            return density * s ** (1.0 - ws.beta)

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
        ((gap, floor),) = dirichlet_principle_check(GammaParam(gamma), [mode], seed=1, count=8)
        assert gap < 1e-10
        assert floor > 0.0


def test_perturbation_vanishes_at_the_boundary_with_no_singular_branch():
    h, c = np.array([[0.0, 0.8, -0.3, 0.1]]), np.array([[0.9]])

    def value(r):
        return _w_value(h[0], 0.9, r)

    assert value(np.array([0.0]))[0] == 0.0
    for gamma in (0.4, 1.4):
        parts = _perturbation_parts(h, c, _workspace(gamma, 1))
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
        got_c, nodes, weights = _tail_grid(level, _TAIL_NODES)
        assert got_c == w_c
        assert nodes[0] > math.sqrt(w_c)
        assert nodes[-1] < math.sqrt(80.0)
        assert np.all(np.diff(nodes) > 0.0)
        assert np.all(weights > 0.0)
        # _TAIL_NODES nodes per panel; each panel at most doubles w, by at most 8.
        edges, top = [w_c], w_c
        while top < 80.0:
            top = min(2.0 * top, top + 8.0, 80.0)
            edges.append(top)
        assert len(nodes) == _TAIL_NODES * (len(edges) - 1)
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
    # the level take one call carrying their four rungs.
    _clear_workspace_caches()
    calls = _count_u_calls(monkeypatch)
    try:
        prepare_profiles([(o, 4) for g in (0.5, 1.5) for o in GammaParam(g).orders])
        _workspace(0.5, 4)
        _workspace(1.5, 4)
    finally:
        _clear_workspace_caches()
    assert len(calls) == 1
    assert len(set(calls[0])) == 4


def test_an_unprepared_profile_is_built_as_a_batch_of_one(monkeypatch):
    _clear_workspace_caches()
    calls = _count_u_calls(monkeypatch)
    try:
        _workspace(0.5, 4)
        _workspace(1.5, 4)
    finally:
        _clear_workspace_caches()
    # order 0.5 for the low workspace, then only order 1.5 is missing
    assert [len(call) for call in calls] == [2, 2]
    assert len({rung for call in calls for rung in call}) == 4


@pytest.mark.parametrize("mode", MODES)
def test_a_profile_built_with_its_mode_is_bitwise_the_one_built_alone(mode):
    # The profile of the mode's level, built beside those of other levels
    # and every order.
    orders = (0.25, 0.5, 0.75, 1.25, 1.5, 1.75)
    pairs = [(o, lv) for lv in (_level(mode), 2, 7, 64) for o in orders]
    _clear_workspace_caches()
    try:
        prepare_profiles(pairs)
        together = [_mode_profile(*pair) for pair in pairs]
        for pair, batched in zip(pairs, together):
            energy._profiles.clear()
            alone = _mode_profile(*pair)
            assert batched[0].order == alone[0].order
            for x, y in zip((*batched[1], *batched[2:]), (*alone[1], *alone[2:])):
                assert np.array_equal(x, y)
    finally:
        _clear_workspace_caches()


def test_a_profile_is_the_unit_frequency_mode_solution_on_the_tail_grid():
    # Any (k, n) of the level gives the same solution; the tail values are
    # its derivatives at rho = s, and its series carry lam^2 = 1.
    _, s_t, _ = _tail_grid(5, _TAIL_NODES)
    _clear_workspace_caches()
    try:
        for order in (0.25, 1.75):
            sol, series, u_t, du_t = _mode_profile(order, 5)
            other = ModeSolution(order, ModeIndex(1.0, 2, 1))
            assert (sol.a, sol.nu, sol.c1, sol.norm) == (other.a, other.nu, other.c1, other.norm)
            ((u, du),) = mode_derivatives([other], s_t, upto=1)
            assert np.array_equal(u_t, u) and np.array_equal(du_t, du)
            want = extend.frobenius_series(order, 10.0, 1.0, energy._INNER_TERMS)
            assert all(np.array_equal(x, y) for x, y in zip(series, want))
    finally:
        _clear_workspace_caches()


def test_the_profile_cache_keeps_the_most_recently_read(monkeypatch):
    monkeypatch.setattr(energy, "_PROFILE_CACHE", 3)
    _clear_workspace_caches()
    try:
        prepare_profiles([(o, 1) for o in (0.2, 0.4, 0.6, 0.8, 1.2)])
        assert list(energy._profiles) == [(o, 1) for o in (0.6, 0.8, 1.2)]
        kept = _mode_profile(0.6, 1)
        for order in (0.2, 1.4):
            assert _mode_profile(order, 1)[0].order == order
            assert len(energy._profiles) == 3
        assert _mode_profile(0.6, 1) is kept
        assert list(energy._profiles) == [(o, 1) for o in (0.2, 1.4, 0.6)]
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


# numeric_wide of the benchmark: spot lam 0.25 and 4, eight levels 2k + n.
_WIDE = {
    "spot_lambdas": (0.25, 4.0),
    "spot_levels": (0, 3, 12, 32),
    "spot_dimensions": (1, 3),
    "perturbations": 4,
}


def _series_calls(monkeypatch, fields) -> list:
    """The (order, nu, lam^2) of every frobenius_series call an energy suite makes."""
    calls = []
    counted = energy.frobenius_series

    def counting(*args):
        calls.append(args[:3])
        return counted(*args)

    monkeypatch.setattr(energy, "frobenius_series", counting)
    _clear_workspace_caches()
    try:
        cli._suite_energy(cli.SuiteConfig(**fields))
    finally:
        _clear_workspace_caches()
    return calls


def test_the_default_energy_suite_forms_each_pairs_series_once(monkeypatch):
    # Four spot levels times six distinct orders: 24 (order, level) pairs,
    # whatever the number of spot frequencies, each of whose Frobenius
    # branches the low and high workspaces read off its profile.
    calls = _series_calls(monkeypatch, {})
    assert len(calls) == 24
    assert len(set(calls)) == 24


def test_the_numeric_wide_energy_suite_forms_each_pairs_series_once(monkeypatch):
    # Eight spot levels times six orders: 48 pairs for 16 spot modes.
    calls = _series_calls(monkeypatch, _WIDE)
    assert len(calls) == 48
    assert len(set(calls)) == 48


def _gram_builds(fields) -> tuple:
    _clear_workspace_caches()
    _grams.cache_clear()
    try:
        cli._suite_energy(cli.SuiteConfig(**fields))
        info = _grams.cache_info()
    finally:
        _clear_workspace_caches()
    return info.misses, info.hits


def test_the_default_energy_suite_builds_each_workspaces_grams_once():
    # One workspace per (gamma, level): six gammas on four levels, 24.  The
    # trace check's first mode builds the basis form, which gathers the
    # Grams (the miss); every later energy of the level reads that form,
    # and only the Dirichlet check's blocks read the Grams again (the hit):
    # one miss and one hit per workspace.
    assert _gram_builds({}) == (24, 24)


def test_the_numeric_wide_energy_suite_builds_each_workspaces_grams_once():
    # The same count on eight levels of two spot frequencies each.
    assert _gram_builds(_WIDE) == (48, 48)


def test_the_default_energy_profiles_build_at_most_twelve_jacobi_rules(monkeypatch):
    # The 24 rungs of the default spot pairs fall into at most 12 families
    # f = a - floor(a - 1), and a rule is built once per family.
    built = []
    counted = special._jacobi_rules

    def counting(a):
        built.extend(a.tolist())
        return counted(a)

    monkeypatch.setattr(special, "_jacobi_rules", counting)
    monkeypatch.setattr(special, "_rules", {})
    _clear_workspace_caches()
    try:
        prepare_profiles([(o, _level(m)) for o, m in cli._spot_pairs(cli.SuiteConfig())])
    finally:
        _clear_workspace_caches()
    assert 0 < len(built) <= 12
    assert len(set(built)) == len(built)
    assert max(built) < 2.0


def _energy_and_size(ws, parts, data):
    """The form on `parts` (one row per leading index) and the sum of its terms' magnitudes.

    The terms are the two Gram forms on [0, s_c], the two tail sums with
    every node's contribution taken in magnitude, and the boundary term.
    """
    u, a, t, at = parts
    (g_a, _, _), (g_m, _, _) = grams = _grams(ws)
    edge = float(data @ ws.boundary @ data)
    tail = ws.wt_t * ws.weight_t * (at * at + np.abs(ws.m_t) * (t * t))
    size = np.abs(np.sum((a @ g_a) * a, axis=-1)) + np.abs(np.sum((u @ g_m) * u, axis=-1))
    return _pairing(ws, grams, parts, parts) + edge, size + np.sum(tail, axis=-1) + abs(edge)


def _tail_energies(modes, gammas) -> list:
    """(energy, size) of each workspace's form at its data and of one block of shifted forms."""
    out = []
    for gamma in gammas:
        data = np.array((1.0, 0.6) if GammaParam(gamma).is_high else (1.0,))
        for mode in modes:
            ws = _ws(gamma, mode)
            lam = abs(mode.lam)
            d = _unit_data(GammaParam(gamma), lam, data)
            base = _combine(d, ws.basis)
            h, c, t = _draw_perturbations(random.Random(f"tail:{gamma}:{mode}"), lam, 32)
            parts = _perturbation_parts(*_to_s(h, c, lam), ws)
            shifted = tuple(b + t[:, None] * w for b, w in zip(base, parts))
            out += [_energy_and_size(ws, base, d), _energy_and_size(ws, shifted, d)]
    return out


def test_the_tail_rule_has_converged_to_rounding(monkeypatch):
    # Against twice its nodes, the tail rule moves mode_energy and shifted
    # energies by rounding only (about 7e-16 of the terms' magnitudes); ten
    # nodes per panel move them by 1.5e-13.  Default spot modes, one mode at
    # level 64 and the frequencies 0.001 and 1000.
    modes = [*cli.SuiteConfig().spot_modes(), ModeIndex(0.5, 31, 2)]
    modes += [ModeIndex(lam, 0, 1) for lam in (0.001, 1000.0)]
    gammas = (0.25, 0.5, 0.75, 1.25, 1.5, 1.75)
    runs = []
    for nodes in (energy._TAIL_NODES, 2 * energy._TAIL_NODES):
        monkeypatch.setattr(energy, "_TAIL_NODES", nodes)
        _clear_workspace_caches()
        try:
            runs.append(_tail_energies(modes, gammas))
        finally:
            _clear_workspace_caches()
    for (got, _), (want, size) in zip(*runs):
        assert np.all(np.abs(got - want) <= 1e-14 * size)


@pytest.mark.parametrize("gamma", [0.25, 0.75, 1.25, 1.75])
@pytest.mark.parametrize("mode", MODES)
def test_perturbation_tails_are_their_profiles_at_the_tail_nodes_bitwise(gamma, mode):
    # Both tail parts of a row share x = rho^2 and e^{-c x}; each is the
    # profile formula evaluated on its own.
    ws = _ws(gamma, mode)
    lam = abs(mode.lam)
    h, c, _ = _draw_perturbations(random.Random(f"tails:{gamma}:{mode}"), lam, 5)
    h, c = _to_s(h, c, lam)
    _, _, u_t, a_t = _perturbation_parts(h, c, ws)
    assert np.array_equal(u_t, _w_value(h, c, ws.s_t))
    if ws.param.is_high:
        g = _lop_poly(h, c, ws.param.alpha, 1.0, ws.nu)
        assert np.array_equal(a_t, _w_value(g, c, ws.s_t))
    else:
        assert np.array_equal(a_t, _w_deriv(h, c, ws.s_t))


@pytest.mark.parametrize("gamma", [1.25, 1.7])
@pytest.mark.parametrize("mode", MODES)
def test_high_workspace_tail_matches_the_fourth_order_mode_bitwise(gamma, mode):
    # On the workspace's own grid, s from its level, at unit frequency; the
    # mode's own (k, n) of that level gives the same bits.
    param = GammaParam(gamma)
    ws = _ws(gamma, mode)
    _, s_t, _ = _tail_grid(_level(mode), _TAIL_NODES)
    assert np.array_equal(ws.s_t, s_t)
    unit = ModeIndex(1.0, mode.k, mode.n)
    for (_, _, u_t, lop_t), data in zip(ws.basis, ((1.0, 0.0), (0.0, 1.0))):
        fourth = FourthOrderMode(param, unit, *data)
        d1, d2 = mode_derivatives([fourth.w1, fourth.w2], s_t, 1)
        (value,), lop = fourth.assemble(s_t, d1, d2, 0)
        assert np.array_equal(u_t, value)
        assert np.array_equal(lop_t, lop)
        # the rho-side entry points read rho = s at unit frequency
        np.testing.assert_allclose(fourth.derivatives(s_t, 0)[0], u_t, rtol=1e-13)
        np.testing.assert_allclose(fourth.lop(s_t), lop_t, rtol=1e-13)


def test_cached_profiles_are_read_only():
    arrays = []
    for order in (0.25, 1.75):
        _, series, *tail = _mode_profile(order, 5)
        assert [x.shape for x in series] == [(energy._INNER_TERMS,)] * 2
        arrays += [*series, *tail]
    low = _workspace(0.25, 5)
    high = _workspace(1.75, 5)
    for ws in (low, high):
        arrays += [ws.s_t, ws.wt_t, ws.m, ws.m_t, ws.boundary, ws.moments]
        arrays += [x for gram in _grams(ws) for x in gram] + [energy._basis_form(ws)]
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
    # At lam through the dilation: lam^gamma d Q d with d = (phi, lam^-alpha psi).
    ws = _ws(gamma, mode)
    grams = _grams(ws)
    q = np.array([[_pairing(ws, grams, p, r) for r in ws.basis] for p in ws.basis]) + ws.boundary
    rng = random.Random(f"qdata:{gamma}:{mode}")
    lam = abs(mode.lam)
    for _ in range(5):
        data = np.array([rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)])
        energy = mode_energy(GammaParam(gamma), mode, data)
        d = _unit_data(GammaParam(gamma), lam, data)
        assert energy == pytest.approx(lam**gamma * float(d @ q @ d), rel=1e-12)


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
            inner += row[i] * ws.s_c**e / e
    integrand = (atP * atQ + ws.m_t * (tP * tQ)) * ws.s_t ** (1.0 - ws.beta)
    return inner + float(np.sum(ws.wt_t * integrand))


@pytest.mark.parametrize("gamma", [0.25, 0.75, 1.25, 1.75])
@pytest.mark.parametrize("mode", MODES)
def test_gram_form_matches_the_convolved_series(gamma, mode):
    ws = _ws(gamma, mode)
    lam = abs(mode.lam)
    h, c = _object_rows(random.Random(f"gram:{gamma}:{mode}"), lam, 3)
    stacked = _perturbation_parts(*_to_s(h, c, lam), ws)
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
    ws = _ws(gamma, mode)
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
    ws = _workspace(gamma, 3)
    cells = np.zeros((2, _NP))
    cells[0, 0 - _P_LO] = 0.7
    cells[1, -2 - _P_LO] = 1.3
    a = cells.reshape(-1)
    tail = np.zeros_like(ws.s_t)
    part = (np.zeros_like(a), a, tail, tail)
    with pytest.raises(RuntimeError, match="lattice violated"):
        _pairing(ws, _grams(ws), part, part)
    cells[1, -2 - _P_LO] = 0.0
    got = _pairing(ws, _grams(ws), part, part)
    assert got == pytest.approx(_referee_bulk(ws, part, part), rel=1e-12)


def _dirichlet_one_at_a_time(param, mode, seed, count):
    """The Dirichlet check of one mode with every perturbation drawn, graded and evaluated on its own.

    The gap is graded at lam: E(U) by mode_energy, E(W) by the referee in
    rho, and E(U + tW) as lam^gamma times the pairing of the row mapped into
    s.  The floor is the smallest E(W) / lam^gamma, the unit-frequency energy.
    """
    rng = random.Random(f"dirichlet:{seed}:{param.gamma}:{mode.lam}:{mode.k}:{mode.n}")
    lam = abs(mode.lam)
    scale = lam**param.gamma
    ws = _ws(param.gamma, mode)
    data = (1.0, 0.6) if param.is_high else (1.0,)
    d = _unit_data(param, lam, data)
    base = _combine(d, ws.basis)
    e_base = mode_energy(param, mode, data)
    edge = float(d @ ws.boundary @ d)
    worst, floor = 0.0, math.inf
    for _ in range(count):
        h, decay = _object_draw(rng, lam)
        t = rng.uniform(0.3, 1.0)
        e_w = _referee_closed(h, decay, param, mode)
        w = tuple(x[0] for x in _perturbation_parts(*_to_s(h[None], np.array([[decay]]), lam), ws))
        shifted = _combine((1.0, t), (base, w))
        e_shift = scale * (float(_pairing(ws, _grams(ws), shifted, shifted)) + edge)
        worst = max(worst, abs(e_shift - e_base - t * t * e_w) / (abs(e_base) + t * t * abs(e_w)))
        floor = min(floor, e_w / scale)
    return worst, floor


@pytest.mark.parametrize("gamma", [0.25, 0.75, 1.25, 1.75])
@pytest.mark.parametrize(
    "modes",
    [[ModeIndex(0.5, 0, 1)], [ModeIndex(2.0, 2, 1), ModeIndex(0.7, 1, 3)]],
    ids=["mode0", "mode1"],
)
@pytest.mark.parametrize("count", [20, 70])
def test_batched_dirichlet_check_matches_one_at_a_time(gamma, modes, count):
    # The rows of a level's modes share blocks of at most 32: 70 rows of one
    # mode span three blocks, 140 rows of two modes five.
    param = GammaParam(gamma)
    got = dirichlet_principle_check(param, modes, seed=4, count=count)
    assert len(got) == len(modes)
    for (worst, floor), mode in zip(got, modes):
        want_worst, want_floor = _dirichlet_one_at_a_time(param, mode, 4, count)
        assert worst == pytest.approx(want_worst, abs=1e-12)
        assert floor == pytest.approx(want_floor, rel=1e-12)


@pytest.mark.parametrize(
    "fields",
    [
        {"gammas_low": (0.001, 0.999), "gammas_high": (1.001, 1.999)},
        {"spot_lambdas": (1e-4, 1e4)},
        {"spot_lambdas": (1e-12, 3e-6, 1e12)},
    ],
)
def test_energy_suite_passes_at_the_ends_of_its_envelope(fields):
    # gamma near 0, 1 and 2 puts lattice exponents e near 0, where the
    # moments s_c^e / e are large; extreme lambdas scale the data and the
    # perturbation rows that the unit-frequency workspace reads.
    report = cli.run_suites(cli.SuiteConfig(**fields), ["energy"])
    assert report.entries
    for entry in report.entries:
        assert entry.passed, (entry.check_id, entry.measured_error)
