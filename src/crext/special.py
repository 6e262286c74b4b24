"""Confluent hypergeometric kernels used by the extension solver.

Only the decaying Kummer branch U(a, b, z) with a > 0, z > 0 is ever needed,
together with the real gamma function.

Everything funnels through the Laplace representation

    U(a, b, z) = 1/Gamma(a) * int_0^inf e^{-zt} t^{a-1} (1+t)^{b-a-1} dt,

whose integrand is strictly positive, so no evaluation strategy built on it
can suffer subtractive cancellation.  (The classical two-term connection
formula in M was measured to lose ten digits by z ~ 6 once a reaches the
range this package produces, and was dropped for that reason.)

* `kummer_u` integrates the representation with adaptive quadrature,
  splitting off the t^{a-1} endpoint singularity as an explicit weight.
  Scalar and slow, but free of tuning knobs: a good referee.

* `kummer_u_batch` is the production path, vectorized over z with fixed
  Gauss rules.  For z <= 6 it works in t directly: a Gauss-Jacobi head on
  [0, 1] carrying the t^{a-1} weight, then dyadic Gauss-Legendre panels
  [1, 2], [2, 4], ... until the (positive) contributions fall below 1e-18
  of the running total.  For z > 6 the substitution tau = z t trades the
  stiff e^{-zt} for a fixed e^{-tau} profile and the same head/panel split
  is applied in tau out to a budget that scales with a.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import roots_jacobi, roots_legendre

__all__ = ["gamma_fn", "kummer_u", "kummer_u_batch"]

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


@lru_cache(maxsize=1024)
def _jacobi_rule(a: float):
    # Rule on [-1, 1] with weight (1+x)^(a-1); transformed below to t^(a-1) on [0, 1].
    x, w = roots_jacobi(_PANEL_NODES, 0.0, a - 1.0)
    return x, w


@lru_cache(maxsize=1)
def _legendre_rule():
    return roots_legendre(_PANEL_NODES)


def _u_panels_direct(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """Laplace integral in t, for z <= 6 where e^{-zt} is mild on [0, 1]."""
    power = b - a - 1.0
    zrow = z[None, :]

    xj, wj = _jacobi_rule(float(a))
    t = ((xj + 1.0) / 2.0)[:, None]
    head_w = (wj * 2.0 ** (-a))[:, None]
    acc = np.sum(head_w * np.exp(-t * zrow) * (1.0 + t) ** power, axis=0)

    xl, wl = _legendre_rule()
    lo = 1.0
    quiet = 0
    while True:
        hi = 2.0 * lo
        t = ((hi - lo) / 2.0 * xl + (hi + lo) / 2.0)[:, None]
        wt = ((hi - lo) / 2.0 * wl)[:, None]
        contrib = np.sum(
            wt * np.exp(-t * zrow) * t ** (a - 1.0) * (1.0 + t) ** power, axis=0
        )
        acc = acc + contrib
        if np.all(contrib <= 1e-18 * acc):
            quiet += 1
            if quiet >= 2:
                break
        else:
            quiet = 0
        lo = hi
        if lo > _PANEL_CAP:
            raise RuntimeError(
                f"panel chain failed to converge by t = {lo:g} "
                f"(a = {a:g}, b = {b:g}, min z = {float(np.min(z)):g})"
            )
    return acc / gamma_fn(a)


def _u_panels_scaled(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """Laplace integral after tau = z t, for z > 6 where e^{-zt} is stiff."""
    power = b - a - 1.0
    zrow = z[None, :]

    xj, wj = _jacobi_rule(float(a))
    tau = ((xj + 1.0) / 2.0)[:, None]
    head_w = (wj * np.exp(-(xj + 1.0) / 2.0) * 2.0 ** (-a))[:, None]
    acc = np.sum(head_w * (1.0 + tau / zrow) ** power, axis=0)

    xl, wl = _legendre_rule()
    lo = 1.0
    top = max(2.0 * a + 60.0, 80.0)
    while lo < top:
        hi = 2.0 * lo
        tau = ((hi - lo) / 2.0 * xl + (hi + lo) / 2.0)[:, None]
        wt = ((hi - lo) / 2.0 * wl)[:, None]
        body = wt * np.exp(-tau) * tau ** (a - 1.0)
        acc = acc + np.sum(body * (1.0 + tau / zrow) ** power, axis=0)
        lo = hi
    return z ** (-a) / gamma_fn(a) * acc


def kummer_u_batch(a: float, b: float, z) -> np.ndarray:
    """Vectorized U(a, b, z) over an array of positive z."""
    a, b = float(a), float(b)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    _validate_u_args(a, float(np.min(z)) if z.size else 1.0)
    out = np.empty_like(z)
    direct = z <= _FORM_SWITCH
    if np.any(direct):
        out[direct] = _u_panels_direct(a, b, z[direct])
    if np.any(~direct):
        out[~direct] = _u_panels_scaled(a, b, z[~direct])
    return out
