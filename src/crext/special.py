"""Confluent hypergeometric kernels used by the extension solver.

Only the decaying Kummer branch U(a, b, z) with a > 0, z > 0 is ever needed,
together with the real gamma function.

Everything funnels through the Laplace representation

    U(a, b, z) = 1/Gamma(a) * int_0^inf e^{-zt} t^{a-1} (1+t)^{b-a-1} dt,

whose integrand is strictly positive, so no evaluation strategy built on it
can suffer subtractive cancellation.  (The classical two-term connection
formula in M was measured to lose ten digits by z ~ 6 once a reaches the
range this package produces, and was dropped for that reason.)

`kummer_u_batch` evaluates it vectorized over z with fixed Gauss rules and
one panel chain for e^{-s c} s^{a-1} (1 + s/d)^{b-a-1}: a Gauss-Jacobi head
on [0, 1] carrying the s^{a-1} weight, then dyadic Gauss-Legendre panels
[1, 2], [2, 4], ...  For z <= 6 the chain works in t directly, (c, d) =
(z, 1).  For z > 6 the substitution tau = z t trades the stiff e^{-zt} for
a fixed e^{-tau} profile, (c, d) = (1, z), and the result carries z^{-a}.
Given equal-length arrays a and b it evaluates a ladder of rungs (a[i],
b[i]), one row each, either all at the points of a 1-D z or each at its
own row of a 2-D z.  Every panel is one array over (node, rung, point) for
the rungs still live, with (1 + s/d)^(b-a-1) taken once per distinct
exponent on a shared z.  Both forms track quiet panels (a contribution
below 1e-18 of the running total) per (rung, point): a point column leaves
once it has been quiet for two panels in every live rung, and a rung once
all its live points have or, in the scaled form, once it passes its budget
max(2a + 60, 80) in tau.  A later panel would add less than half an ulp to
a settled point, so retiring it changes no bits.  Node sums run in node
order for every block shape, including a single value, so every value is
bitwise its lone (rung, point) call.

Both forms run in plain double precision, so for large a and small z the
factor t^(a-1) can overflow although U itself is representable (for
example U(75.75, 0.5, 0.0125) ~ 3.5e-111).  A quadrature that leaves double
range raises OverflowError naming the rung's a and b and the smallest of its
points in that form instead of returning inf or NaN; both forms check
every panel, since a NaN would defeat the quiet test.
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
    return roots_jacobi(_PANEL_NODES, 0.0, a - 1.0)


@lru_cache(maxsize=None)
def legendre_rule(nodes: int):
    """Gauss-Legendre nodes and weights on [-1, 1], one cached rule per node count."""
    return roots_legendre(nodes)


def _heads(a: np.ndarray):
    """Jacobi nodes and weights of every rung as (node, rung) arrays, and 2^-a per rung."""
    rules = [_jacobi_rule(ai) for ai in a.tolist()]
    scale = np.array([2.0 ** (-ai) for ai in a.tolist()])
    return np.stack([x for x, _ in rules], axis=1), np.stack([w for _, w in rules], axis=1), scale


# numpy takes x ** e for e in {-1, 0, 0.5, 1, 2} by an exact operation (1/x,
# 1, sqrt, x, x*x) when e is one value across its inner loop, and by the
# general power otherwise, so with an array of exponents such a rung's bits
# would depend on its batch's layout.  `_power` applies these exponents as
# Python floats, as a scalar call does.
_EXACT_EXPONENTS = (-1.0, 0.0, 0.5, 1.0, 2.0)


def _exact_exponents(*exponents: np.ndarray) -> tuple:
    """The members of _EXACT_EXPONENTS that occur among the given exponents."""
    return tuple(set(_EXACT_EXPONENTS).intersection(np.concatenate(exponents).tolist()))


def _power(base: np.ndarray, exps: np.ndarray, exact: tuple) -> np.ndarray:
    """base ** exps, broadcast, with each exponent in `exact` applied as a Python float."""
    out = base**exps
    for e in exact:
        hit = np.broadcast_to(exps == e, out.shape)
        out[hit] = np.broadcast_to(base, out.shape)[hit] ** e
    return out


def _node_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the leading (node) axis in node order.

    numpy reduces a (node, M) block node by node but sums a lone column
    pairwise, so a block of one value goes through cumsum instead.
    """
    if x.size == x.shape[0]:
        return np.cumsum(x, axis=0)[-1]
    return np.sum(x, axis=0)


def _min_z(z: np.ndarray, i: int) -> float:
    """The smallest point of rung i: its own row of z, or the only row when z is shared."""
    return float(np.min(z[i if len(z) > 1 else 0]))


def _finite(values: np.ndarray, rungs: np.ndarray, a, b, z: np.ndarray) -> np.ndarray:
    """`values` unchanged, or OverflowError naming the first rung that left double range.

    Row j of `values` belongs to rung rungs[j] of a, b and z.
    """
    if np.isfinite(values).all():
        return values
    i = rungs[np.argmin(np.all(np.isfinite(values), axis=1))]
    raise OverflowError(
        f"U({a[i]:g}, {b[i]:g}, z) quadrature left double range "
        f"(min z = {_min_z(z, i):g}); log-space evaluation is not implemented"
    )


def _u_panels(a: np.ndarray, b: np.ndarray, z: np.ndarray, scaled: bool) -> np.ndarray:
    """The Laplace integral in the direct or the scaled form, one row per rung.

    Integrates e^{-s c} s^(a-1) (1 + s/d)^(b-a-1) with (c, d) = (z, 1), or
    (1, z) times z^-a when `scaled`.  z holds one row of points shared by
    every rung, or one row per rung.
    """
    power = b - a - 1.0
    exact = _exact_exponents(a - 1.0, power, -a)
    xj, wj, scale = _heads(a)
    s = (xj + 1.0) / 2.0
    c, d = (1.0, z) if scaled else (z, 1.0)
    w, damp = wj[..., None], np.exp(-s[..., None] * c)
    # Each form has its own head product order: one shared order moves the bits.
    head = w * damp * scale[:, None] if scaled else w * scale[:, None] * damp
    acc = _node_sum(head * _power(1.0 + s[..., None] / d, power[:, None], exact))

    xl, wl = legendre_rule(_PANEL_NODES)
    # A base that every rung shares at several points is raised once per distinct exponent.
    exps, which = np.unique(power, return_inverse=True)
    top = np.maximum(2.0 * a + 60.0, 80.0) if scaled else np.full(len(a), np.inf)
    out = np.empty_like(acc)
    live, cols, zl = np.arange(len(a)), np.arange(acc.shape[1]), z
    calm = np.zeros(acc.shape, dtype=bool)
    lo = 1.0
    while live.size:
        hi = 2.0 * lo
        s = (hi - lo) / 2.0 * xl + (hi + lo) / 2.0
        c, d = (1.0, zl) if scaled else (zl, 1.0)
        damp = ((hi - lo) / 2.0 * wl)[:, None, None] * np.exp(-s[:, None, None] * c)
        lift = _power(s[:, None], a[live] - 1.0, exact)[..., None]
        base = 1.0 + s[:, None, None] / d
        shared = base.shape[1] == 1 < base.shape[2]
        rise = _power(base, (exps if shared else power[live])[:, None], exact)
        rise = rise[:, which[live]] if shared and len(exps) > 1 else rise
        contrib = _node_sum(damp * lift * rise)
        # Checked per panel: a NaN would defeat the convergence test below.
        acc = _finite(acc + contrib, live, a, b, z)
        # A contribution below 1e-18 of the total is under half an ulp of it;
        # a point is settled after two such panels in a row.
        quiet = contrib <= 1e-18 * acc
        settled, calm = calm & quiet, quiet
        rungs_done = np.all(settled, axis=1) | (hi >= top[live])
        cols_done = np.all(settled, axis=0)
        if rungs_done.any() or cols_done.any():
            out[live[rungs_done, None], cols] = acc[rungs_done]
            out[live[:, None], cols[cols_done]] = acc[:, cols_done]
            keep = np.ix_(~rungs_done, ~cols_done)
            live, cols, acc, calm = live[~rungs_done], cols[~cols_done], acc[keep], calm[keep]
            zl = zl[:, ~cols_done] if len(zl) == 1 else zl[keep]
        lo = hi
        if live.size and lo > _PANEL_CAP:
            i = live[0]
            raise RuntimeError(
                f"panel chain failed to converge by t = {lo:g} "
                f"(a = {a[i]:g}, b = {b[i]:g}, min z = {_min_z(z, i):g})"
            )
    gammas = np.array([gamma_fn(ai) for ai in a.tolist()])[:, None]
    out = _power(z, -a[:, None], exact) / gammas * out if scaled else out / gammas
    return _finite(out, np.arange(len(a)), a, b, z)


def kummer_u_batch(a, b, z) -> np.ndarray:
    """Vectorized U(a, b, z) over an array of positive z.

    With equal-length 1-D arrays `a` and `b` the result has one row per rung
    (a[i], b[i]); scalar `a` and `b` give one 1-D row.  A 1-D `z` serves
    every rung; a 2-D `z` of shape (rungs, N) gives rung i the points z[i].
    """
    if np.ndim(a) > 1 or np.shape(a) != np.shape(b):
        raise ValueError("a and b must be scalars or 1-D arrays of one length")
    rungs_a = np.atleast_1d(np.asarray(a, dtype=float))
    rungs_b = np.atleast_1d(np.asarray(b, dtype=float))
    z = np.asarray(z, dtype=float)
    shared = z.ndim <= 1
    if shared:
        rows = np.atleast_1d(z)[None, :]
    elif z.ndim == 2 and len(z) == len(rungs_a):
        rows = z
    else:
        raise ValueError(
            f"z must be 1-D or hold one row per rung: {len(rungs_a)} rungs, z of shape {z.shape}"
        )
    z_min = [float(np.min(row)) if row.size else 1.0 for row in rows]
    for i, ai in enumerate(rungs_a.tolist()):
        _validate_u_args(ai, z_min[0 if shared else i])
    out = np.empty((len(rungs_a), rows.shape[1]))
    direct = rows <= _FORM_SWITCH
    with np.errstate(over="ignore", invalid="ignore"):
        for scaled, mask in ((False, direct), (True, ~direct)):
            if shared:
                if mask.any():
                    out[:, mask[0]] = _u_panels(rungs_a, rungs_b, rows[:, mask[0]], scaled)
                continue
            # Each row's points of this form, padded to one width with its first.
            counts = np.sum(mask, axis=1)
            keep = np.flatnonzero(counts)
            if not keep.size:
                continue
            width = int(np.max(counts))
            first = np.argsort(~mask[keep], axis=1, kind="stable")[:, :width]
            cols = np.where(np.arange(width) < counts[keep, None], first, first[:, :1])
            points = np.take_along_axis(rows[keep], cols, axis=1)
            out[keep[:, None], cols] = _u_panels(rungs_a[keep], rungs_b[keep], points, scaled)
    return out if np.ndim(a) else out[0]
