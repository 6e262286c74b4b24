"""Accuracy tests for the confluent hypergeometric kernels.

Frozen reference values were produced with 30-digit arbitrary precision
arithmetic; the live mpmath oracle then sweeps a parameter grid that crosses
the internal branch switch, so both evaluation strategies are graded by an
independent implementation.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import roots_jacobi

from crext import special
from crext.special import (
    _PANEL_NODES,
    _exact_exponents,
    _finite,
    _heads,
    _jacobi_rules,
    _node_sum,
    _power,
    _validate_u_args,
    gamma_fn,
    kummer_u_batch,
    legendre_rule,
)


# The scalar referee: adaptive quadrature of the Laplace representation,
# splitting off the t^{a-1} endpoint singularity as an explicit weight.
# Slow, but free of tuning knobs, and it shares no rule with the batch path.
def kummer_u(a: float, b: float, z: float) -> float:
    """Reference evaluation of U(a, b, z) by adaptive quadrature (scalar)."""
    a, b, z = float(a), float(b), float(z)
    _validate_u_args(a, z)
    ga = math.gamma(a)

    def smooth_part(t: float) -> float:
        return math.exp(-z * t) * (1.0 + t) ** (b - a - 1.0) / ga

    head, _ = quad(smooth_part, 0.0, 1.0, weight="alg", wvar=(a - 1.0, 0.0), limit=200)
    tail, _ = quad(
        lambda t: smooth_part(t) * t ** (a - 1.0), 1.0, np.inf, limit=200
    )
    return head + tail


# 30-digit references, frozen.
FROZEN_U = [
    # (a, b, z, value)
    (1.0, 1.0, 1.0, 0.59634736232319407434),
    (1.0, 1.0, 100.0, 0.0099019422867330184064),
    (0.75, 0.5, 2.5, 0.38839011219702548829),
    (2.5, -0.5, 0.3, 0.07761064183048089188),
]


@pytest.mark.parametrize("a,b,z,ref", FROZEN_U)
def test_reference_quadrature_hits_frozen_values(a, b, z, ref):
    assert kummer_u(a, b, z) == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("a,b,z,ref", FROZEN_U)
def test_batch_path_hits_frozen_values(a, b, z, ref):
    got = kummer_u_batch(a, b, np.array([z]))[0]
    assert got == pytest.approx(ref, rel=1e-10)


GRID_A = [0.3, 1.2, 2.75, 5.5, 9.0, 13.75]
GRID_B = [-0.8, -0.25, 0.4, 0.9, 1.4, 2.6]
GRID_Z = [3e-4, 0.05, 0.3, 1.0, 3.0, 5.9, 6.5, 12.0, 40.0, 150.0]


@pytest.mark.parametrize("a", GRID_A)
@pytest.mark.parametrize("b", GRID_B)
def test_batch_against_mpmath_grid(a, b):
    z = np.array(GRID_Z)
    got = kummer_u_batch(a, b, z)
    want = np.array([float(mpmath.hyperu(a, b, zz)) for zz in GRID_Z])
    np.testing.assert_allclose(got, want, rtol=5e-10)


@pytest.mark.parametrize("a,b", [(0.6, -0.5), (2.75, 0.4)])
def test_reference_quadrature_against_mpmath(a, b):
    for z in (0.2, 1.7, 9.0):
        want = float(mpmath.hyperu(a, b, z))
        assert kummer_u(a, b, z) == pytest.approx(want, rel=1e-8)


def test_batch_and_reference_agree_across_the_switch():
    a, b = 1.85, 0.25
    z = np.array([0.5, 3.0, 5.99, 6.01, 20.0])
    batch = kummer_u_batch(a, b, z)
    ref = np.array([kummer_u(a, b, zz) for zz in z])
    np.testing.assert_allclose(batch, ref, rtol=1e-8)


def _contiguous_residual(a: float, b: float, z: np.ndarray) -> float:
    # U(a-1,b,z) + (b-2a-z) U(a,b,z) + a(a-b+1) U(a+1,b,z) = 0
    um = kummer_u_batch(a - 1.0, b, z)
    u0 = kummer_u_batch(a, b, z)
    up = kummer_u_batch(a + 1.0, b, z)
    t1, t2, t3 = um, (b - 2.0 * a - z) * u0, a * (a - b + 1.0) * up
    scale = np.maximum(np.abs(t1) + np.abs(t2) + np.abs(t3), 1e-300)
    return float(np.max(np.abs(t1 + t2 + t3) / scale))


def test_contiguous_relation_on_grid():
    z = np.array(GRID_Z)
    for a in (1.3, 2.75, 6.5):
        for b in (-0.6, 0.45):
            assert _contiguous_residual(a, b, z) < 1e-10


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(1.1, 5.0),
    b=st.floats(-0.85, 0.85),
    z=st.floats(0.1, 50.0),
)
def test_contiguous_relation_random(a, b, z):
    if abs(b - round(b)) < 0.05:
        b += 0.07
    assert _contiguous_residual(a, b, np.array([z])) < 1e-7


def test_defining_equation_residual():
    # z U'' + (b - z) U' - a U = 0 with the derivative ladder
    # U' = -a U(a+1, b+1, z), U'' = a(a+1) U(a+2, b+2, z).
    z = np.array([0.3, 1.0, 4.0, 8.0, 25.0])
    for a, b in [(0.75, 0.5), (1.6, -0.4), (3.2, 0.25)]:
        u = kummer_u_batch(a, b, z)
        du = -a * kummer_u_batch(a + 1.0, b + 1.0, z)
        d2u = a * (a + 1.0) * kummer_u_batch(a + 2.0, b + 2.0, z)
        res = z * d2u + (b - z) * du - a * u
        scale = np.abs(z * d2u) + np.abs((b - z) * du) + np.abs(a * u)
        assert float(np.max(np.abs(res) / scale)) < 1e-8


def test_gamma_reflection_identity():
    for x in (0.25, 0.5, 0.75, 1.3, -0.4):
        lhs = gamma_fn(x) * gamma_fn(1.0 - x)
        rhs = math.pi / math.sin(math.pi * x)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_gamma_pole_detected():
    for x in (0.0, -1.0, -7.0):
        with pytest.raises(ValueError, match="pole"):
            gamma_fn(x)


def test_input_validation():
    with pytest.raises(ValueError):
        kummer_u(-1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        kummer_u(1.0, 0.5, -1.0)
    with pytest.raises(ValueError):
        kummer_u_batch(1.0, 0.5, np.array([1.0, -2.0]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "a,b,z",
    [
        (75.75, 0.5, 0.0125),  # t^(a-1) overflows in the direct panels: was a silent inf
        (80.75, 0.5, 0.0125),  # inf times 0 in the direct panels: was NaN summed to t = 1.3e8
        (120.0, 0.5, 10.0),  # tau^(a-1) overflows in the scaled panels: was a silent inf
    ],
)
def test_overflow_is_a_named_error(a, b, z):
    # mpmath has each of these as a tiny positive number; the double-precision
    # quadrature cannot reach it and must say so instead of returning inf/NaN.
    assert 0.0 < float(mpmath.hyperu(a, b, z)) < 1e-100
    with pytest.raises(OverflowError, match=rf"U\({a:g}, {b:g}, z\).*min z = {z:g}"):
        kummer_u_batch(a, b, np.array([z, 2.0 * z]))


@pytest.mark.filterwarnings("error")
def test_largest_direct_panel_case_below_overflow_stays_accurate():
    got = kummer_u_batch(70.75, 0.5, np.array([0.0125]))[0]
    assert got == pytest.approx(float(mpmath.hyperu(70.75, 0.5, 0.0125)), rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "a,b,z",
    [
        (104.0, 0.5, 30.0),  # was off by 3.0e-7
        (100.0, 2.0, 45.0),  # was off by 4.8e-3
        (60.0, 0.5, 1e4),  # was off by 3.1e-4
        (104.0, 0.5, 60.0),  # was 0.0 for 1.29e-222
        (110.0, 1.5, 40.0),  # was 0.0 for 4.80e-227
    ],
)
def test_a_subnormal_scaled_prefactor_keeps_every_digit(a, b, z):
    # z^-a / Gamma(a) lies below double range here while U does not.
    got = kummer_u_batch(a, b, np.array([z]))[0]
    assert got == pytest.approx(float(mpmath.hyperu(a, b, z)), rel=3e-15)


def test_the_scaled_budget_keeps_a_large_a_in_range():
    # Past the budget max(2a + 60, 80) in tau the panels of this rung would
    # overflow (tau^(a-1) at tau = 1024); the budget stops the chain first.
    got = kummer_u_batch(104.0, 0.5, np.array([1e3]))[0]
    assert got == pytest.approx(float(mpmath.hyperu(104, 0.5, 1e3)), rel=1e-6)


@pytest.mark.parametrize("a,b", [(0.3, -0.8), (1.85, 0.25), (9.125, -0.375)])
def test_ladder_rows_are_bitwise_the_scalar_calls(a, b):
    z = np.array([3e-4, 0.05, 1.0, 5.9, 6.0, 6.01, 12.0, 150.0])
    rows = kummer_u_batch(np.array([a, a + 1, a + 2]), np.array([b, b + 1, b + 2]), z)
    assert rows.shape == (3, len(z))
    for i in range(3):
        assert np.array_equal(rows[i], kummer_u_batch(a + i, b + i, z))


@pytest.mark.filterwarnings("error")
def test_an_overflowing_rung_is_named_by_its_own_a():
    z = np.array([0.0125, 0.025])
    assert np.all(np.isfinite(kummer_u_batch(73.75, 1.5, z)))
    with pytest.raises(OverflowError, match=r"U\(74\.75, 2\.5, z\)"):
        kummer_u_batch(np.array([72.75, 73.75, 74.75]), np.array([0.5, 1.5, 2.5]), z)


def test_rung_arrays_must_match():
    with pytest.raises(ValueError, match="one length"):
        kummer_u_batch(np.array([1.0, 2.0]), np.array([0.5]), np.array([1.0]))
    with pytest.raises(ValueError, match="one length"):
        kummer_u_batch(np.array([1.0, 2.0]), 0.5, np.array([1.0]))


# Rungs of the probe family: b avoids the integers below 0.5.  The sampled
# values give exponents a - 1, b - a - 1 and -a that numpy can take by an
# exact operation instead of the general power.
_RUNG_B = st.sampled_from([2.0, 3.0, 4.0]) | st.floats(-0.9, 4.5).filter(
    lambda b: not (b < 0.5 and abs(b - round(b)) < 0.05)
)
_RUNG = st.tuples(st.sampled_from([1.0, 1.5, 2.0, 3.0]) | st.floats(0.3, 14.0), _RUNG_B)


def _single(a: float, b: float, z: float) -> float:
    return kummer_u_batch(a, b, np.array([z]))[0]


@settings(max_examples=25, deadline=None)
@given(
    rungs=st.lists(_RUNG, min_size=1, max_size=4),
    extra=st.lists(st.floats(1e-3, 60.0), max_size=3),
    data=st.data(),
)
def test_every_value_is_bitwise_its_single_point_call(rungs, extra, data):
    # Node sums run in node order for every block, so a value's bits do not
    # depend on the rungs or points that share its call.
    a = np.array([r[0] for r in rungs])
    b = np.array([r[1] for r in rungs])
    z = np.array([6.0, 6.01, *extra])
    ladder = kummer_u_batch(a, b, z)
    for i, (ai, bi) in enumerate(rungs):
        assert np.array_equal(ladder[i], [_single(ai, bi, zz) for zz in z])
    point = st.sampled_from([6.0, 6.01]) | st.floats(1e-3, 60.0)
    width = data.draw(st.integers(1, 4))
    rows = np.array(
        [data.draw(st.lists(point, min_size=width, max_size=width)) for _ in rungs]
    )
    own = kummer_u_batch(a, b, rows)
    assert own.shape == rows.shape
    for i, (ai, bi) in enumerate(rungs):
        assert np.array_equal(own[i], [_single(ai, bi, zz) for zz in rows[i]])


def test_exact_exponent_rungs_are_bitwise_their_single_point_calls():
    # a - 1, b - a - 1 or -a in {-1, 0, 0.5, 1, 2} on every rung.
    a = np.array([1.0, 1.5, 2.0, 3.0, 1.0])
    b = np.array([2.0, 3.0, 4.0, 3.0, 4.0])
    z = np.array([0.5, 6.0, 6.01, 7.0])
    ladder = kummer_u_batch(a, b, z)
    own = kummer_u_batch(a, b, z[:, None][[0, 1, 2, 3, 2]])
    for i, (ai, bi) in enumerate(zip(a, b)):
        singles = [_single(ai, bi, zz) for zz in z]
        assert np.array_equal(ladder[i], singles)
        assert np.array_equal(kummer_u_batch(ai, bi, z), singles)
        assert own[i, 0] == ladder[i, [0, 1, 2, 3, 2][i]]
    # U(1, 2, z) = 1/z and U(2, 4, z) = (z + 2)/z^3.
    np.testing.assert_allclose(ladder[0], 1.0 / z, rtol=1e-13)
    np.testing.assert_allclose(ladder[2], (z + 2.0) / z**3, rtol=1e-13)


def test_per_rung_rows_must_match_the_rung_count():
    with pytest.raises(ValueError, match="one row per rung: 2 rungs, z of shape \\(3, 2\\)"):
        kummer_u_batch(np.array([1.0, 2.0]), np.array([0.5, 0.5]), np.ones((3, 2)))
    with pytest.raises(ValueError, match="one row per rung"):
        kummer_u_batch(np.array([1.0, 2.0]), np.array([0.5, 0.5]), np.ones((2, 2, 1)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "a,b,z,named",
    [
        # Direct panels: the second rung overflows at its own smallest z.
        (
            (70.75, 75.75),
            (0.5, 1.5),
            [[0.0125, 0.5], [0.5, 0.02]],
            r"U\(75\.75, 1\.5, z\).*\(min z = 0\.02\)",
        ),
        # Scaled panels: the smallest z of the row's scaled points.
        (
            (2.0, 120.0),
            (0.5, 0.5),
            [[0.0125, 7.0], [25.0, 10.0]],
            r"U\(120, 0\.5, z\).*\(min z = 10\)",
        ),
    ],
)
def test_an_overflowing_row_is_named_by_its_own_rung_and_points(a, b, z, named):
    with pytest.raises(OverflowError, match=named):
        kummer_u_batch(np.array(a), np.array(b), np.array(z))


def _referee_direct(a: np.ndarray, b: np.ndarray, z: np.ndarray, quiet_below=1e-18) -> np.ndarray:
    """The direct form as a row-wide loop, one row per rung.

    A rung adds panels at every one of its points until all of them have
    been quiet (a contribution at most `quiet_below` of the total) for two
    panels; with `quiet_below` = 0 until the contributions underflow to 0.
    """
    power = b - a - 1.0
    exact = _exact_exponents(a - 1.0, power)
    t, wj = _heads(a)
    rise = _power(1.0 + t, power, exact)
    acc = _node_sum(wj[..., None] * np.exp(-t[..., None] * z) * rise[..., None])
    xl, wl = legendre_rule(_PANEL_NODES)
    out = np.empty_like(acc)
    live, zl, quiet = np.arange(len(a)), z, np.zeros(len(a), dtype=int)
    lo = 1.0
    while live.size:
        hi = 2.0 * lo
        t = (hi - lo) / 2.0 * xl + (hi + lo) / 2.0
        damp = ((hi - lo) / 2.0 * wl)[:, None, None] * np.exp(-t[:, None, None] * zl)
        lift = _power(t[:, None], a[live] - 1.0, exact)[..., None]
        rise = _power((1.0 + t)[:, None], power[live], exact)[..., None]
        contrib = _node_sum(damp * lift * rise)
        acc = _finite(acc + contrib, live, a, b, z)
        quiet = (quiet + 1) * np.all(contrib <= quiet_below * acc, axis=1)
        done = quiet >= 2
        out[live[done]] = acc[done]
        live, acc, quiet = live[~done], acc[~done], quiet[~done]
        zl = zl if len(zl) == 1 else zl[~done]
        lo = hi
    return out / np.array([gamma_fn(ai) for ai in a.tolist()])[:, None]


def _referee_scaled(a: np.ndarray, b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The scaled form as its own chain, one row per rung.

    After tau = z t, a rung adds panels at every one of its points until it
    reaches its budget `top`; no point leaves early.
    """
    power = b - a - 1.0
    exact = _exact_exponents(a - 1.0, power, -a)
    tau, wj = _heads(a)
    head_w = wj * np.exp(-tau)
    acc = _node_sum(head_w[..., None] * _power(1.0 + tau[..., None] / z, power[:, None], exact))

    xl, wl = legendre_rule(_PANEL_NODES)
    # On a shared z, (1 + tau/z)^(b - a - 1) is taken once per distinct exponent.
    exps, which = np.unique(power, return_inverse=True)
    top = np.maximum(2.0 * a + 60.0, 80.0)
    out = np.empty_like(acc)
    live, zl = np.arange(len(a)), z
    lo = 1.0
    while live.size:
        done = lo >= top[live]
        if done.any():
            out[live[done]] = acc[done]
            keep = ~done
            live, acc = live[keep], acc[keep]
            zl = zl if len(zl) == 1 else zl[keep]
            continue
        hi = 2.0 * lo
        tau = (hi - lo) / 2.0 * xl + (hi + lo) / 2.0
        wt = (hi - lo) / 2.0 * wl
        damp = wt * np.exp(-tau)
        base = 1.0 + tau[:, None, None] / zl
        if len(zl) > 1:
            rise = _power(base, power[live][:, None], exact)
        else:
            rise = _power(base, exps[:, None], exact)
            rise = rise if len(exps) == 1 else rise[:, which[live]]
        lift = (damp[:, None] * _power(tau[:, None], a[live] - 1.0, exact))[..., None]
        acc = acc + _node_sum(lift * rise)
        lo = hi
    gammas = np.array([gamma_fn(ai) for ai in a.tolist()])
    mantissa, exponent = np.frexp(_power(z, -a[:, None], exact))
    scaled = np.ldexp(mantissa / gammas[:, None] * out, exponent)
    return _finite(scaled, np.arange(len(a)), a, b, z)


_DIRECT_RUNG = st.tuples(st.floats(0.3, 40.0) | st.sampled_from([1.0, 2.0, 3.0]), _RUNG_B)
_DIRECT_POINT = st.floats(1e-3, 6.0) | st.sampled_from([6.0])
# Up to a = 100 the scaled panels stay in double range out to the budget.
_SCALED_RUNG = st.tuples(st.floats(0.3, 100.0) | st.sampled_from([1.0, 2.0, 99.5]), _RUNG_B)
_SCALED_POINT = st.floats(6.0, 60.0, exclude_min=True) | st.sampled_from([6.01])
_FORMS = (
    (_DIRECT_RUNG, _DIRECT_POINT, _referee_direct),
    (_SCALED_RUNG, _SCALED_POINT, _referee_scaled),
)


@settings(max_examples=25, deadline=None)
@given(form=st.sampled_from(_FORMS), data=st.data())
def test_direct_form_retires_points_without_moving_a_bit(form, data):
    # A point leaves the panel chain once quiet in every live rung; what it
    # would still have gathered is below half an ulp, so every value is its
    # row-wide loop's and its lone call's, on a shared z and on per-rung rows,
    # in the direct form and in the scaled one.
    rung, point, referee = form
    rungs = data.draw(st.lists(rung, min_size=1, max_size=5))
    a = np.array([r[0] for r in rungs])
    b = np.array([r[1] for r in rungs])
    shared = data.draw(st.lists(point, min_size=1, max_size=8))
    width = data.draw(st.integers(1, 5))
    rows = [data.draw(st.lists(point, min_size=width, max_size=width)) for _ in rungs]
    for z in (np.array(shared), np.array(rows)):
        got = kummer_u_batch(a, b, z)
        z2 = np.atleast_2d(z)
        assert np.array_equal(got, referee(a, b, z2))
        for i, (ai, bi) in enumerate(rungs):
            row = z2[i if len(z2) > 1 else 0]
            assert np.array_equal(got[i], [_single(ai, bi, zz) for zz in row])


@settings(max_examples=25, deadline=None)
@given(
    rungs=st.lists(_RUNG, min_size=1, max_size=4),
    direct=st.integers(0, 3),
    scaled=st.integers(0, 3),
    data=st.data(),
)
def test_the_one_panel_chain_is_bitwise_both_referees(rungs, direct, scaled, data):
    # Points on each side of the switch, interleaved: each form's points get
    # exactly their own referee's bits, on a shared z and on per-rung rows.
    a = np.array([r[0] for r in rungs])
    b = np.array([r[1] for r in rungs])
    order = data.draw(st.permutations(range(direct + scaled)))
    for count in (1, len(rungs)):
        blocks = [
            np.array(
                [data.draw(st.lists(point, min_size=width, max_size=width)) for _ in range(count)]
            ).reshape(count, width)
            for point, width in ((_DIRECT_POINT, direct), (_SCALED_POINT, scaled))
        ]
        want = np.hstack(
            [referee(a, b, z) for referee, z in zip((_referee_direct, _referee_scaled), blocks)]
        )
        z = np.hstack(blocks)[:, order]
        got = kummer_u_batch(a, b, z[0] if count == 1 else z)
        assert np.array_equal(got, want[:, order])


@pytest.mark.parametrize("b", [-0.9, 0.5, 2.0])
def test_the_quiet_rule_keeps_every_bit_of_a_slow_tail(b):
    # At b = -0.9 the tail decays slowly enough that retiring a point on a
    # looser threshold (1e-9 instead of 1e-18) moves values; the chain must
    # give every point the bits of panels run until they underflow.
    z = np.geomspace(1e-4, 6.0, 60)
    for a in (0.3, 0.9, 2.5, 7.0):
        want = _referee_direct(np.array([a]), np.array([b]), z[None, :], quiet_below=0.0)
        assert np.array_equal(kummer_u_batch(a, b, z), want[0])


# a - 1 across the range (-1, 171) the Gauss-Jacobi rules serve.
_RULE_A = [0.1, 0.5, 1.0, 1.375, 2.0, 8.5, 34.0, 101.0, 171.0]


def _family_of(a: float) -> float:
    return a if a < 2.0 else a - math.floor(a - 1.0)


def _beta_moments_error(s, w, a: float, degrees) -> float:
    """The worst relative error of sum w s^j against B(j + a, 1) = 1 / (j + a) over degrees."""
    nodes = [mpmath.mpf(float(v)) for v in s]
    weights = [mpmath.mpf(float(v)) for v in w]
    worst = mpmath.mpf(0)
    for j in degrees:
        got = mpmath.fsum(wi * si**j for wi, si in zip(weights, nodes))
        worst = max(worst, abs(got / mpmath.beta(j + a, 1) - 1))
    return worst


def test_jacobi_rules_integrate_monomials_to_their_beta_integrals():
    # The 40-node rule of each family f is exact for degree <= 79, and a
    # rung's head, its weights times s^(a - f), for degree <= 79 - (a - f).
    families = sorted({_family_of(a) for a in _RULE_A})
    s, w = _jacobi_rules(np.array(families))
    for r, f in enumerate(families):
        assert _beta_moments_error(s[:, r], w[:, r], f, range(80)) < 3e-14, f
    s, w = _heads(np.array(_RULE_A))
    for r, a in enumerate(_RULE_A):
        exact = range(80 - round(a - _family_of(a)))
        assert _beta_moments_error(s[:, r], w[:, r], a, exact) < 3e-14, a


@pytest.mark.parametrize("a", [0.05, 0.5, 1.0, 1.375, 1.999, 2.0, 2.75, 8.5, 34.0, 101.375])
def test_a_rungs_head_is_its_family_rule_with_lifted_weights(a):
    # Below 2 a rung keeps its own rule; from 2 on it reads the rule of
    # f = a - floor(a - 1) in [1, 2), with weights times s^(a - f).
    f = _family_of(a)
    assert 1.0 <= f < 2.0 or f == a < 1.0
    assert (a - f).is_integer()
    s, w = _heads(np.array([a, 0.3]))
    fs, fw = _jacobi_rules(np.array([f]))
    assert np.array_equal(s[:, 0], fs[:, 0])
    assert np.array_equal(w[:, 0], fw[:, 0] * fs[:, 0] ** (a - f))


def test_jacobi_nodes_agree_with_scipy():
    for a in np.geomspace(0.05, 172.0, 30):
        x, _ = roots_jacobi(_PANEL_NODES, 0.0, a - 1.0)
        s, _ = _jacobi_rules(np.array([a]))
        np.testing.assert_allclose(s[:, 0], (x + 1.0) / 2.0, rtol=0, atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0.05, 172.0) | st.sampled_from([0.5, 1.0, 2.0]), min_size=1, max_size=6))
def test_a_rule_built_in_a_batch_is_bitwise_the_rule_built_alone(a):
    nodes, weights = _jacobi_rules(np.array(a))
    for i, ai in enumerate(a):
        alone = _jacobi_rules(np.array([ai]))
        assert np.array_equal(nodes[:, i], alone[0][:, 0])
        assert np.array_equal(weights[:, i], alone[1][:, 0])


def test_the_rule_cache_stays_bounded(monkeypatch):
    # One rule per family, first seen first; rungs of a cached family add none.
    monkeypatch.setattr(special, "_rules", {})
    monkeypatch.setattr(special, "_RULE_CACHE", 4)
    a = np.array([0.5, 1.5, 2.25, 3.75, 4.125, 5.875, 1.5, 2.5, 9.25])
    families = [0.5, 1.5, 1.25, 1.75, 1.125, 1.875]
    nodes, weights = _heads(a)
    assert list(special._rules) == families[2:]
    built = _jacobi_rules(np.array(families))
    assert np.array_equal(nodes, built[0][:, [0, 1, 2, 3, 4, 5, 1, 1, 2]])
    assert np.array_equal(weights[:, [0, 1, 6]], built[1][:, [0, 1, 1]])
    assert np.array_equal(_heads(a[1:3])[1], weights[:, 1:3])
    assert list(special._rules) == [1.75, 1.125, 1.875, 1.5]


def test_u_with_b_twice_a_matches_mpmath_to_a_few_ulps():
    # a < 1 included: the endpoint weight s^(a-1) is singular there.
    beta = np.linspace(0.3, 6.0, 20)
    z = np.geomspace(1e-3, 60.0, 25)
    got = kummer_u_batch(beta, 2.0 * beta, z)
    want = np.array([[float(mpmath.hyperu(b, 2.0 * b, zz)) for zz in z] for b in beta])
    np.testing.assert_allclose(got, want, rtol=2e-14, atol=0)
