"""Confluent hypergeometric kernels used by the extension solver.

Only the decaying Kummer branch U(a, b, z) with a > 0, z > 0 is ever needed,
together with the real gamma function.

Everything funnels through the Laplace representation

    U(a, b, z) = 1/Gamma(a) * int_0^inf e^{-zt} t^{a-1} (1+t)^{b-a-1} dt,

whose integrand is strictly positive, so no evaluation strategy built on it
can suffer subtractive cancellation.  (The classical two-term connection
formula in M was measured to lose ten digits by z ~ 6 once a reaches the
range this package produces, and was dropped for that reason.)

`kummer_u_batch` evaluates it vectorized over z with fixed Gauss rules.
For z <= 6 it works in t directly: a Gauss-Jacobi head on [0, 1] carrying
the t^{a-1} weight, then dyadic Gauss-Legendre panels [1, 2], [2, 4], ...
until the (positive) contributions fall below 1e-18 of the running total.
For z > 6 the substitution tau = z t trades the stiff e^{-zt} for a fixed
e^{-tau} profile and the same head/panel split is applied in tau out to a
budget that scales with a.  Given equal-length arrays a and b it evaluates
a ladder of rungs (a[i], b[i]), one row each: rungs of one exponent
b - a - 1 share e^{-zt} on the direct panels and (1 + tau/z)^(b-a-1) on
the scaled ones, while each keeps its own head, panel count and checks, so
every row is bitwise its scalar call.

Both forms run in plain double precision, so for large a and small z the
factor t^(a-1) can overflow although U itself is representable (for
example U(75.75, 0.5, 0.0125) ~ 3.5e-111).  A quadrature that leaves double
range raises OverflowError naming a, b and the smallest z instead of
returning inf or NaN.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

__all__ = ["gamma_fn", "kummer_u_batch", "legendre_rule"]

_FORM_SWITCH = 6.0
_PANEL_NODES = 40
_PANEL_CAP = 2.0**26


def gamma_fn(x: float) -> float:
    """Real gamma with an explicit pole check."""
    x = float(x)
    if x <= 0 and x.is_integer():
        raise ValueError(f"gamma has a pole at {x:g}")
    return math.gamma(x)


def _validate_u_args(a: float, z_min: float) -> None:
    if not a > 0:
        raise ValueError(f"Laplace representation requires a > 0, got a = {a:g}")
    if not z_min > 0:
        raise ValueError("U(a, b, z) evaluation requires z > 0")


@lru_cache(maxsize=1024)
def _jacobi_rule(a: float):
    # Rule on [-1, 1] with weight (1+x)^(a-1); transformed below to t^(a-1) on [0, 1].
    x, w = roots_jacobi(_PANEL_NODES, 0.0, a - 1.0)
    return x, w


@lru_cache(maxsize=None)
def legendre_rule(nodes: int):
    """Gauss-Legendre nodes and weights on [-1, 1], one cached rule per node count."""
    return roots_legendre(nodes)


def _finite(values: np.ndarray, a: float, b: float, z: np.ndarray) -> np.ndarray:
    """`values` unchanged, or OverflowError if the quadrature left double range."""
    if not np.all(np.isfinite(values)):
        raise OverflowError(
            f"U({a:g}, {b:g}, z) quadrature left double range "
            f"(min z = {float(np.min(z)):g}); log-space evaluation is not implemented"
        )
    return values


def _u_panels_direct(a: list, b: list, z: np.ndarray) -> np.ndarray:
    """Laplace integral in t, for z <= 6 where e^{-zt} is mild on [0, 1]; one row per rung."""
    power = [bi - ai - 1.0 for ai, bi in zip(a, b)]
    zrow = z[None, :]

    acc = []
    for ai, pw in zip(a, power):
        xj, wj = _jacobi_rule(ai)
        t = ((xj + 1.0) / 2.0)[:, None]
        head_w = (wj * 2.0 ** (-ai))[:, None]
        acc.append(np.sum(head_w * np.exp(-t * zrow) * (1.0 + t) ** pw, axis=0))

    xl, wl = legendre_rule(_PANEL_NODES)
    lo = 1.0
    quiet = [0] * len(a)
    live = list(range(len(a)))
    while live:
        hi = 2.0 * lo
        t = ((hi - lo) / 2.0 * xl + (hi + lo) / 2.0)[:, None]
        wt = ((hi - lo) / 2.0 * wl)[:, None]
        damp = wt * np.exp(-t * zrow)
        rise = {}  # (1 + t)^(b - a - 1), shared by the rungs of one exponent
        for i in live:
            if power[i] not in rise:
                rise[power[i]] = (1.0 + t) ** power[i]
            contrib = np.sum(damp * t ** (a[i] - 1.0) * rise[power[i]], axis=0)
            # Checked per panel: a NaN would defeat the convergence test below.
            acc[i] = _finite(acc[i] + contrib, a[i], b[i], z)
            quiet[i] = quiet[i] + 1 if np.all(contrib <= 1e-18 * acc[i]) else 0
        live = [i for i in live if quiet[i] < 2]
        lo = hi
        if live and lo > _PANEL_CAP:
            i = live[0]
            raise RuntimeError(
                f"panel chain failed to converge by t = {lo:g} "
                f"(a = {a[i]:g}, b = {b[i]:g}, min z = {float(np.min(z)):g})"
            )
    return np.array([_finite(s / gamma_fn(ai), ai, bi, z) for s, ai, bi in zip(acc, a, b)])


def _u_panels_scaled(a: list, b: list, z: np.ndarray) -> np.ndarray:
    """Laplace integral after tau = z t, for z > 6 where e^{-zt} is stiff; one row per rung."""
    power = [bi - ai - 1.0 for ai, bi in zip(a, b)]
    zrow = z[None, :]

    acc = []
    for ai, pw in zip(a, power):
        xj, wj = _jacobi_rule(ai)
        tau = ((xj + 1.0) / 2.0)[:, None]
        head_w = (wj * np.exp(-(xj + 1.0) / 2.0) * 2.0 ** (-ai))[:, None]
        acc.append(np.sum(head_w * (1.0 + tau / zrow) ** pw, axis=0))

    xl, wl = legendre_rule(_PANEL_NODES)
    lo = 1.0
    top = [max(2.0 * ai + 60.0, 80.0) for ai in a]
    while lo < max(top):
        hi = 2.0 * lo
        tau = ((hi - lo) / 2.0 * xl + (hi + lo) / 2.0)[:, None]
        wt = ((hi - lo) / 2.0 * wl)[:, None]
        damp = wt * np.exp(-tau)
        rise = {}  # (1 + tau/z)^(b - a - 1), shared by the rungs of one exponent
        for i in range(len(a)):
            if lo < top[i]:
                if power[i] not in rise:
                    rise[power[i]] = (1.0 + tau / zrow) ** power[i]
                acc[i] = acc[i] + np.sum(damp * tau ** (a[i] - 1.0) * rise[power[i]], axis=0)
        lo = hi
    return np.array(
        [_finite(z ** (-ai) / gamma_fn(ai) * s, ai, bi, z) for s, ai, bi in zip(acc, a, b)]
    )


def kummer_u_batch(a, b, z) -> np.ndarray:
    """Vectorized U(a, b, z) over an array of positive z.

    With equal-length 1-D arrays `a` and `b` the result has one row per rung
    (a[i], b[i]); scalar `a` and `b` give one 1-D row.
    """
    if np.ndim(a) > 1 or np.shape(a) != np.shape(b):
        raise ValueError("a and b must be scalars or 1-D arrays of one length")
    rungs_a = [float(x) for x in np.atleast_1d(a)]
    rungs_b = [float(x) for x in np.atleast_1d(b)]
    z = np.atleast_1d(np.asarray(z, dtype=float))
    for ai in rungs_a:
        _validate_u_args(ai, float(np.min(z)) if z.size else 1.0)
    out = np.empty((len(rungs_a),) + z.shape)
    direct = z <= _FORM_SWITCH
    with np.errstate(over="ignore", invalid="ignore"):
        if np.any(direct):
            out[:, direct] = _u_panels_direct(rungs_a, rungs_b, z[direct])
        if np.any(~direct):
            out[:, ~direct] = _u_panels_scaled(rungs_a, rungs_b, z[~direct])
    return out if np.ndim(a) else out[0]
