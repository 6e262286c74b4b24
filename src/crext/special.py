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

The Jacobi heads are built here, every rule a call lacks in one batch
(Golub-Welsch, Math. Comp. 23, 1969): the nodes start as the eigenvalues of
the Jacobi matrix of s^(a-1) on [0, 1] (LAPACK dsterf), so no node near 0 is
rounded through 1 + x on [-1, 1], and take two Newton steps on the
three-term recurrence; the weights are the Christoffel function scaled to
the mass 1/a.  A rule's bits do not depend on its batch.  U(b, 2b, z) over
b in [0.3, 6], z in [1e-3, 60] is within 4.2e-15 of mpmath (3.7e-13 with
scipy's `roots_jacobi` rule).

Heads are built by family.  A rung with a >= 2 reads the rule of
f = a - floor(a - 1) in [1, 2) with weights times s^(a - f), which is exact
for degree <= 79 - (a - f); both subtractions are exact, so a - f is an
integer.  A rung with a < 2 keeps its own rule, since its lift s^(a - f)
would be 1/s.  So a run builds one rule per family, 12 to 49 on the
benchmark workloads against 72 to 160 built per a.  Past that degree the
lifted rule is not exact, but its moments of s^(a-1+j), j < 80, stay within
2e-14 up to a = 101 and 5e-11 at a = 171, where the head's share of U has
fallen far below that.

Given equal-length arrays a and b it evaluates a ladder of rungs (a[i],
b[i]), one row each, either all at the points of a 1-D z or each at its own
row of a 2-D z.  Every panel is one array over (node, rung, point) for the
rungs still live; on a shared z its node sums are einsum contractions, with
(1 + s/d)^(b-a-1) taken once per distinct exponent.  On a shared z the rungs
of one family share their head nodes too: the head takes e^{-s z} once per
family (direct form) and (1 + s/z)^(b-a-1) once per (family, exponent)
(scaled form), and gathers them per rung in the product order
(w e^{-s c}) (1 + s/d)^(b-a-1), so a value's bits still depend on its own
(a, b, z) only.  The direct form tracks quiet panels (a contribution below
1e-18 of the running total) per (rung, point): a point column leaves once
it has been quiet for two panels in every live rung, and a rung once all
its live points have.  A later panel would add less than half an ulp to a
settled point, so retiring it changes no bits.  A scaled rung runs to its
budget max(2a + 60, 80) in tau, at every point: the budget always ends it
before two quiet panels would.  The budget also keeps tau^(a-1) in range:
U(104, 0.5, 1e3) would overflow at tau = 1024 without it.  Node sums run in
node order for every block shape, including a single value, so every value
is bitwise its lone (rung, point) call.

Both forms run in plain double precision, so for large a and small z the
factor t^(a-1) can overflow although U itself is representable (for
example U(75.75, 0.5, 0.0125) ~ 3.5e-111).  A quadrature that leaves double
range raises OverflowError naming the rung's a and b and the smallest of its
points in that form instead of returning inf or NaN; both forms check
every panel, since a NaN would defeat the quiet test of the direct form.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dsterf
from scipy.special import roots_legendre

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


_RULE_CACHE = 1024
_rules: dict[float, np.ndarray] = {}


@lru_cache(maxsize=None)
def legendre_rule(nodes: int):
    """Gauss-Legendre nodes and weights on [-1, 1], one cached rule per node count."""
    return roots_legendre(nodes)


def _orthonormal(s: np.ndarray, diag: np.ndarray, off: np.ndarray):
    """p_N(s), p_N'(s) and sum_{k<N} p_k(s)^2 for the orthonormal recurrence
    p_{k+1} = ((s - diag[k]) p_k - off[k] p_{k-1}) / off[k+1], p_0 = 1, off[0] = 0."""
    zero = np.zeros_like(s)
    p0, p1, d0, d1, total = zero, zero + 1.0, zero, zero, zero
    for k in range(_PANEL_NODES):
        total = total + p1 * p1
        t = s - diag[k]
        p0, p1 = p1, (t * p1 - off[k] * p0) / off[k + 1]
        d0, d1 = d1, (p0 + t * d1 - off[k] * d0) / off[k + 1]
    return p1, d1, total


def _jacobi_rules(a: np.ndarray):
    """Gauss rules for s^(a-1) on [0, 1], nodes and weights as (node, rule) arrays;
    only + - * / and sqrt run across rules, so a rule's bits do not depend on its batch."""
    k = np.arange(1, _PANEL_NODES + 1)[:, None]
    kb, twice = k + (a - 1.0), 2.0 * k + (a - 1.0)
    diag = np.vstack([a / (a + 1.0), (kb * (kb + 1.0) + k * (k + 1.0)) / (twice * (twice + 2.0))])
    off = np.sqrt(k * k * kb * kb / (twice * twice * (twice + 1.0) * (twice - 1.0)))
    off = np.vstack([np.zeros_like(a), off])
    starts = [dsterf(diag[:-1, r], off[1:-1, r]) for r in range(len(a))]
    if any(info for _, info in starts):
        raise RuntimeError("LAPACK dsterf failed on a Gauss-Jacobi matrix")
    s = np.stack([nodes for nodes, _ in starts], axis=1)
    for _ in range(2):
        # The second step only jitters at the 1e-16 level, so its sums give the weights.
        p, dp, total = _orthonormal(s, diag, off)
        s = s - p / dp
    weight = 1.0 / total  # the Christoffel function, scaled below to the mass 1/a
    return s, weight * ((1.0 / a) / _node_sum(weight))


def _family(a: np.ndarray) -> np.ndarray:
    """The rule each rung's head reads: a below 2, else f = a - floor(a - 1) in [1, 2).

    Both subtractions are exact, so a - f is an integer.
    """
    return np.where(a < 2.0, a, a - np.floor(a - 1.0))


def _heads(a: np.ndarray):
    """Gauss-Jacobi nodes and weights of every rung on [0, 1] as (node, rung) arrays.

    A rung reads the rule of its family f (`_family`), weights times s^(a - f).
    The rules not cached are built in one batch, and the oldest beyond
    _RULE_CACHE leave.
    """
    family = _family(a)
    keys = family.tolist()
    new = [key for key in dict.fromkeys(keys) if key not in _rules]
    if new:
        _rules.update(zip(new, np.stack(_jacobi_rules(np.array(new))).transpose(2, 0, 1)))
    s, w = np.stack([_rules[key] for key in keys], axis=2)
    for key in list(_rules)[: max(0, len(_rules) - _RULE_CACHE)]:
        del _rules[key]
    lift = a - family
    return s, w * _power(s, lift, _exact_exponents(lift))


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


def _groups(z: np.ndarray, *keys: np.ndarray) -> tuple:
    """(first, index): on a shared z, the first rung of each distinct key and each
    rung's key; on per-rung rows of z, every rung on its own."""
    if len(z) > 1:
        return slice(None), slice(None)
    _, first, index = np.unique(np.stack(keys), axis=1, return_index=True, return_inverse=True)
    return first, index.ravel()


def _u_panels(a: np.ndarray, b: np.ndarray, z: np.ndarray, scaled: bool) -> np.ndarray:
    """The Laplace integral in the direct or the scaled form, one row per rung.

    Integrates e^{-s c} s^(a-1) (1 + s/d)^(b-a-1) with (c, d) = (z, 1), or
    (1, z) times z^-a when `scaled`.  z holds one row of points shared by
    every rung, or one row per rung.
    """
    power = b - a - 1.0
    exact = _exact_exponents(a - 1.0, power, -a)
    s, w = _heads(a)
    c, d = (1.0, z) if scaled else (z, 1.0)
    # On a shared z the rungs of one family share their nodes: e^{-s c} is taken
    # once per family and (1 + s/d)^(b-a-1) once per (family, exponent).
    family = _family(a)
    f_first, f_of = _groups(z, family)
    e_first, e_of = _groups(z, family, power)
    damp = np.exp(-s[:, f_first, None] * c)[:, f_of]
    rise = _power(1.0 + s[:, e_first, None] / d, power[e_first, None], exact)[:, e_of]
    acc = _node_sum(w[..., None] * damp * rise)

    xl, wl = legendre_rule(_PANEL_NODES)
    exps, which = np.unique(power, return_inverse=True)
    top = np.maximum(2.0 * a + 60.0, 80.0)
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
        if len(zl) > 1:
            contrib = _node_sum(damp * lift * _power(base, power[live][:, None], exact))
        elif base.shape[2] == 1:
            # On a shared z each sum is a contraction over the nodes, in node order.
            rise = _power(base[:, 0], power[live], exact)
            contrib = np.einsum("np,nr,nr->rp", damp[:, 0], lift[..., 0], rise)
        else:
            # A base shared at several points is raised once per distinct exponent.
            weighed = (damp * lift)[..., 0]
            contrib = np.empty((live.size, base.shape[2]))
            for e in np.unique(which[live]):
                rows = which[live] == e
                rise = _power(base[:, 0], exps[e], exact)
                contrib[rows] = np.einsum("nr,np->rp", weighed[:, rows], rise)
        # Checked per panel: a NaN would defeat the convergence test below.
        acc = _finite(acc + contrib, live, a, b, z)
        if scaled:
            rungs_done, cols_done = hi >= top[live], np.zeros(cols.size, dtype=bool)
        else:
            # A contribution below 1e-18 of the total is under half an ulp of
            # it; a point is settled after two such panels in a row.
            quiet = contrib <= 1e-18 * acc
            settled, calm = calm & quiet, quiet
            rungs_done, cols_done = np.all(settled, axis=1), np.all(settled, axis=0)
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
    if scaled:
        # z^-a / Gamma(a) can fall below double range where U does not: the
        # mantissa of z^-a is carried through, and its exponent applied last.
        mantissa, exponent = np.frexp(_power(z, -a[:, None], exact))
        out = np.ldexp(mantissa / gammas * out, exponent)
    else:
        out = out / gammas
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
