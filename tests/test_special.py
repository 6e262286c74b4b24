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

from crext.special import _validate_u_args, gamma_fn, kummer_u_batch


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
_RUNG = st.tuples(
    st.sampled_from([1.0, 1.5, 2.0, 3.0]) | st.floats(0.3, 14.0),
    st.sampled_from([2.0, 3.0, 4.0]) | st.floats(-0.9, 4.5),
).filter(lambda ab: not (ab[1] < 0.5 and abs(ab[1] - round(ab[1])) < 0.05))


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
