"""Weighted energy functionals and their variational identities, per mode.

Both ranges of orders read one bilinear form.  With beta = 2 [gamma], twice
the fractional part of gamma, a solution part P pairs with Q as

    E(P, Q) = int_0^inf (A_P A_Q + m u_P u_Q) rho^(1-beta) drho + d_P . B . d_Q,

u the profile, A a first-order quantity of it, d the boundary data and B a
constant boundary matrix.

Low range (gamma in (0, 1)): A = u', m = nu + lam^2 rho^2 and B = 0 (1 x 1),
so E(u, u) is the quadratic form E1, minimized over decaying profiles with
boundary value 1 by the explicit mode solution; its minimum equals the
Dirichlet-to-Neumann constant times the fractional symbol.

High range (gamma in (1, 2), alpha = gamma - 1): A = Lop u with Lop the
weight-alpha second-order operator, m = -4 lam^2 and data (B_0, B_2alpha),
B = [[0, nu/alpha], [nu/alpha, 0]], so that

    E2(u) = int_0^inf ((Lop u)^2 - 4 lam^2 u^2) rho^(1-2 alpha) drho
            + (2 nu / alpha) B_0(u) B_2alpha(u).

Its polarization Q pairs two solutions through their boundary data only:
Q(U, V) = B_conormal(U) B_0(V) - B_second(U) B_2alpha(V) after integration
by parts, which is what `q_symmetry_check` verifies numerically.

A workspace holds, per (gamma, mode), the tail grid, m (as coefficients of
rho^0, rho^1, ... and as an array on the tail nodes), B, a moment table and
a basis of solution parts with unit data, one per boundary datum; every
part, basis or perturbation, is the tuple (u series, A series, u tail,
A tail), and a solution with data d is the d-combination of the basis.

Quadrature strategy, shared by every functional here: on [0, rho_c] a series
is one dense array over the two-branch Frobenius lattice, the coefficient of
rho^(p + b beta) at index b * 64 + p + 2 for branch b in {0, 1} and power p
in -2..61.  A pair of lattice terms integrates in closed form against the
weight, to the moment mu(b, p) = rho_c^e / e with e = p + 2 + (b - 1) beta at
the summed branch and power, so the inner integral is the Gram form

    a_P . G_A . a_Q + u_P . G_m . u_Q,   G_A[i, j] = mu(b_i + b_j, p_i + p_j),

and G_m folds in m's coefficients the same way.  The workspace caches the
1-D table of mu over (b, p); the Gram cells that gather its NaN entries
depend on beta and on which of m's coefficients are nonzero only, and are
found once per gamma.  Each 128 x 128 Gram is one gather from its
m-weighted row of moments, kept for the workspace last read.  A
degenerate exponent (|e| < 1e-9) leaves the lattice and raises if any
nonzero pair of coefficients lands on it.
On [rho_c, rho(80/lam)] the solutions are evaluated through the U-function
ladder on Gauss-Legendre panels in the dilation-free radius s = sqrt(lam) rho,
graded in w = lam rho^2 = s^2 from w_c = min(0.5625, 2 / (2k + n)) with
widths capped in w, riding the Gaussian decay.  The tail grid in s depends
on the level only, and one U batch serves every lam of the level: a mode's
ladder e^{-w/2} U(a, b, w) sees lam only through w, so `prepare_profiles`
builds every (order, mode) pair the checks will read on a level with one
U call, and each pair maps the shared nodes to its own rho = s / sqrt(lam).
Profiles are kept per (order, mode), each with its two Frobenius branches,
and shared between the ranges: the high range at gamma reads the profiles
of orders 1 + alpha and 1 - alpha = 2 - gamma, the second being the
low-range profile at 2 - gamma.

Perturbations are Laguerre-type profiles x (r0 + r1 x + r2 x^2) e^{-c x} in
x = rho^2, closed under every operation above.  They live as rows from the
seeded draw to the graded gap: h[:, k] the x^k coefficient (h[:, 0] = 0, so
each vanishes at the boundary), c[:, 0] the decay and t the step.  Their
exact energies are gamma-function sums, one row-wise call for all rows; the
quadrature side reads the same rows in blocks of at most 32, one row-wise
quadratic form per block.

`mode_energy` is the form on the solution with given boundary data; the
graders compare it with its closed diagonal, `spectral.boundary_targets`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .extend import FourthOrderMode, ModeSolution, frobenius_series, mode_derivatives
from .report import worst_error
from .special import gamma_fn, legendre_rule
from .spectral import GammaParam, ModeIndex, boundary_targets

__all__ = [
    "mode_energy",
    "prepare_profiles",
    "trace_equality_check",
    "dirichlet_principle_check",
    "q_symmetry_check",
]

_INNER_TERMS = 30
_TAIL_NODES = 24
_W_TOP = 80.0
_W_STEP_CAP = 8.0
_BLOCK = 32

# Dense lattice layout: powers rho^_P_LO .. rho^(_P_LO + _NP - 1) per branch.
_P_LO = -2
_NP = 64
_J = np.arange(_INNER_TERMS)
_FACT = np.array([float(math.factorial(j)) for j in _J])
# Moment table columns: every power sum of two parts, shifted by up to m's degree 2.
_NCOLS = 2 * _NP + 1
_BRANCH, _POWER = np.divmod(np.arange(2 * _NP), _NP)
_GRAM_INDEX = (_BRANCH[:, None] + _BRANCH) * _NCOLS + _POWER[:, None] + _POWER
_GRAM_SPAN = int(_GRAM_INDEX.max()) + 1


def _lattice(*terms) -> np.ndarray:
    """Dense parts from (branch, lowest power, coefficients of every second power).

    Leading axes of the coefficient arrays are kept, one dense row each.
    """
    lead = np.shape(terms[0][2])[:-1]
    out = np.zeros(lead + (2, _NP))
    for branch, power, coef in terms:
        k = power - _P_LO
        out[..., branch, k : k + 2 * np.shape(coef)[-1] : 2] += coef
    return out.reshape(lead + (2 * _NP,))


def _moments(beta: float, rho_c: float) -> np.ndarray:
    """mu(b, p) = rho_c^e / e, e = p + 2 + (b - 1) beta, NaN where e degenerates."""
    e = 2 * _P_LO + np.arange(_NCOLS) + 1.0 + (np.arange(3)[:, None] - 1) * beta + 1.0
    bad = np.abs(e) < 1e-9
    e[bad] = 1.0
    mu = rho_c**e / e
    mu[bad] = np.nan
    return mu


@lru_cache(maxsize=64)
def _degenerate_cells(beta: float, live: tuple) -> tuple:
    """(rows, columns) of the Gram cells that gather a NaN moment, per A A and m u u term.

    The NaN moments depend on beta only, so the cells depend on beta and on
    `live`, which of m's coefficients are nonzero.
    """
    nan = np.isnan(_moments(beta, 1.0)).ravel()
    out = []
    for weights in ((True,), live):
        bad = np.zeros(_GRAM_INDEX.shape, dtype=bool)
        for k, w in enumerate(weights):
            if w:
                bad |= nan[_GRAM_INDEX + k]
        out.append(np.nonzero(bad))
    return _read_only(tuple(out))


@lru_cache(maxsize=1)
def _grams(ws: _Workspace) -> tuple:
    """(Gram, degenerate rows, degenerate columns) of the A A and the m u u terms, read-only.

    Each Gram is one gather from its m-weighted row of moments.  The energy
    suite runs the checks of one workspace in a row, so only the last
    workspace's Grams are kept: the two Grams take 256 KB a workspace.
    """
    flat = ws.moments.ravel()
    out = []
    for weights, (rows, cols) in zip(((1.0,), ws.m), ws.degenerate):
        row = sum(w * flat[k : k + _GRAM_SPAN] for k, w in enumerate(weights) if w)
        gram = np.take(row, _GRAM_INDEX)
        gram[rows, cols] = 0.0
        out.append((gram, rows, cols))
    return _read_only(tuple(out))


def _tail_grid(level: int) -> tuple[float, np.ndarray, np.ndarray]:
    """(w_c, nodes, weights) of the tail panels in s = sqrt(lam) rho, up to s^2 = _W_TOP.

    The panels are graded in w = s^2 from w_c = min(0.75^2, 2 / level), the
    cut rho_c = min(0.75 / sqrt(lam), 2 / sqrt(nu)) in w units.  w_c is
    formed from the integer level 2k + n alone, so every lam of a level
    reads the same bits.
    """
    w_c = min(0.5625, 2.0 / level)
    edges = [w_c]
    while edges[-1] < _W_TOP:
        edges.append(min(2.0 * edges[-1], edges[-1] + _W_STEP_CAP, _W_TOP))
    x, w = legendre_rule(_TAIL_NODES)
    nodes, weights = [], []
    for lo, hi in zip(edges, edges[1:]):
        s_lo, s_hi = math.sqrt(lo), math.sqrt(hi)
        half = (s_hi - s_lo) / 2.0
        nodes.append(half * x + (s_hi + s_lo) / 2.0)
        weights.append(half * w)
    return w_c, np.concatenate(nodes), np.concatenate(weights)


# -- profiles ---------------------------------------------------------------
# x-polynomials are coefficient arrays along the last axis; leading axes,
# if any, stack one perturbation per row.


def _xp_dx(p: np.ndarray) -> np.ndarray:
    return p[..., 1:] * np.arange(1, np.shape(p)[-1])


def _xp_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The product p q, row by row, as shifted elementwise sums."""
    lead = np.broadcast_shapes(np.shape(p)[:-1], np.shape(q)[:-1])
    out = np.zeros(lead + (np.shape(p)[-1] + np.shape(q)[-1] - 1,))
    for i in range(np.shape(p)[-1]):
        out[..., i : i + np.shape(q)[-1]] += p[..., i, None] * q
    return out


def _xp_eval(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    acc = np.zeros(np.shape(p)[:-1] + np.shape(x))
    for k in reversed(range(np.shape(p)[-1])):
        acc = acc * x + p[..., k, None]
    return acc


def _w_value(p: np.ndarray, c, rho: np.ndarray) -> np.ndarray:
    """p(x) e^{-c x} at x = rho^2."""
    x = rho * rho
    return _xp_eval(p, x) * np.exp(-c * x)


def _w_deriv(h: np.ndarray, c, rho: np.ndarray) -> np.ndarray:
    """d/drho of h(x) e^{-c x} at x = rho^2."""
    x = rho * rho
    core = _xp_eval(_xp_dx(h), x) - c * _xp_eval(h, x)
    return 2.0 * rho * core * np.exp(-c * x)


def _lop_poly(h: np.ndarray, c, alpha: float, lam_sq: float, nu: float) -> np.ndarray:
    """x-polynomial g with Lop (h(x) e^{-c x}) = g(x) e^{-c x}, h of degree 3."""
    hp = _xp_dx(h)
    bend = np.zeros(np.shape(h))
    bend[..., :2] += _xp_dx(hp)
    bend[..., :3] -= 2.0 * c * hp
    bend += c * c * h
    g = np.zeros(np.shape(h)[:-1] + (6,))
    g[..., 1:5] += 4.0 * bend
    g[..., :3] += (4.0 - 4.0 * alpha) * hp
    g[..., :4] += -(4.0 - 4.0 * alpha) * c * h
    g[..., :4] -= nu * h
    g[..., 1:5] -= lam_sq * h
    return g


def _exp_series(p: np.ndarray, c) -> np.ndarray:
    """The first _INNER_TERMS x-coefficients of p(x) e^{-c x}."""
    return _xp_mul(p, (-c) ** _J / _FACT)[..., :_INNER_TERMS]


def _draw_perturbations(rng: random.Random, lam: float, count: int) -> tuple:
    """(h, c, t) of `count` seeded perturbations, one row each.

    Row i is the profile h[i](x) e^{-c[i, 0] x} = x (r0 + r1 x + r2 x^2)
    e^{-c x}: it vanishes at the boundary and carries no fractional branch,
    so it is an admissible variation in both ranges.  t[i] is its step.
    """
    rows = []
    for _ in range(count):
        r0 = rng.uniform(0.2, 1.0) * rng.choice((-1.0, 1.0))
        r1 = rng.uniform(-1.0, 1.0)
        r2 = rng.uniform(-1.0, 1.0)
        decay = lam * rng.uniform(0.4, 2.0)
        rows.append((0.0, r0, r1, r2, decay, rng.uniform(0.3, 1.0)))
    drawn = np.array(rows)
    return drawn[:, :4], drawn[:, 4:5], drawn[:, 5]


# -- workspaces -------------------------------------------------------------


def _mode_pair_series(sol: ModeSolution, series):
    """(value, derivative) dense series of the normalized decaying solution."""
    ca, cb = series
    j2 = 2.0 * np.arange(len(ca))
    u = _lattice((0, 0, ca), (1, 0, sol.c1 * cb))
    du = _lattice((0, -1, j2 * ca), (1, -1, sol.c1 * (j2 + 2.0 * sol.order) * cb))
    return u, du


def _read_only(x):
    """Mark every array in a nest of tuples read-only."""
    if isinstance(x, np.ndarray):
        x.flags.writeable = False
    elif isinstance(x, tuple):
        for item in x:
            _read_only(item)
    return x


_PROFILE_CACHE = 1024
_profiles: dict = {}  # (order, mode) -> profile, least recently read first


def prepare_profiles(pairs) -> None:
    """Build the tail profiles of the (order, mode) pairs that later checks read.

    The tail grid in s = sqrt(lam) rho depends on the level 2k + n only, and
    one U batch serves every lam of the level: the pairs are grouped by
    level, and each group's derivatives take one Kummer U call over its
    distinct rungs.  Each profile maps the shared nodes and weights to its
    own rho = s / sqrt(lam).  Pairs already built are skipped.  At most
    _PROFILE_CACHE profiles are kept, the least recently read leaving first.
    """
    by_level = {}
    for order, mode in pairs:
        key = (float(order), mode)
        if key not in _profiles:
            by_level.setdefault(2 * mode.k + mode.n, {})[key] = None
    for level, keys in by_level.items():
        w_c, s_t, ws_t = _tail_grid(level)
        sols = [ModeSolution(order, mode) for order, mode in keys]
        # (rho_c, rho nodes, rho weights), one set per lam, shared by its orders.
        roots = {sol.lam: math.sqrt(sol.lam) for sol in sols}
        grids = {lam: (math.sqrt(w_c) / r, s_t / r, ws_t / r) for lam, r in roots.items()}
        for key, sol, d in zip(keys, sols, mode_derivatives(sols, s_t, upto=1)):
            series = frobenius_series(sol.order, sol.nu, sol.lam**2, _INNER_TERMS)
            series = tuple(map(np.asarray, series))
            rho_c, rho_t, wt_t = grids[sol.lam]
            _profiles[key] = _read_only((sol, rho_c, series, rho_t, wt_t, *d))
    while len(_profiles) > _PROFILE_CACHE:
        del _profiles[next(iter(_profiles))]


def _mode_profile(order: float, mode: ModeIndex) -> tuple:
    """(solution, rho_c, Frobenius branches, tail nodes, tail weights, u, u'), read-only.

    Built once per (order, mode), as a batch of one if not prepared: the
    workspaces at gamma below 1 and at 1 +- alpha above it share the entries.
    """
    key = (float(order), mode)
    prepare_profiles([key])
    profile = _profiles[key] = _profiles.pop(key)
    return profile


def _fourth_pairs(fourth: FourthOrderMode, series1, series2):
    """(value, Lop value) dense series of the fourth-order solution, from its orders' branches."""
    al = fourth.alpha
    (a1c, b1c), (a2c, b2c) = series1, series2
    A, B = fourth.a0, fourth.b0
    c11, c12 = fourth.w1.c1, fourth.w2.c1
    j2 = 2.0 * np.arange(len(a1c))
    u = _lattice((0, 0, A * a1c), (0, 2, B * c12 * b2c), (1, 0, B * a2c), (1, 2, A * c11 * b1c))
    lop = _lattice(
        (0, -2, 2.0 * A * j2 * a1c),
        (0, 0, 2.0 * B * c12 * (j2 + 2.0 - 2.0 * al) * b2c),
        (1, -2, 2.0 * B * j2 * a2c),
        (1, 0, 2.0 * A * c11 * (j2 + 2.0 + 2.0 * al) * b1c),
    )
    return u, lop


@dataclass(frozen=True, eq=False)
class _Workspace:
    """Tail grid, potential m (coefficients and tail), unit-data basis, boundary, moments.

    `degenerate` holds the Gram cells that `_degenerate_cells` finds for beta and m.
    Workspaces compare by identity, which keys `_grams`.
    """

    param: GammaParam
    lam: float
    nu: float
    beta: float
    rho_c: float
    rho_t: np.ndarray
    wt_t: np.ndarray
    m: np.ndarray
    m_t: np.ndarray
    basis: tuple
    boundary: np.ndarray
    moments: np.ndarray
    degenerate: tuple


@lru_cache(maxsize=256)
def _workspace(gamma: float, mode: ModeIndex) -> _Workspace:
    """The form at gamma on one mode, with every array read-only."""
    param = GammaParam(gamma)
    al = param.alpha
    if param.is_high:
        w1, rho_c, s1, rho_t, wt_t, *d1 = _mode_profile(param.orders[0], mode)
        _, _, s2, _, _, *d2 = _mode_profile(param.orders[1], mode)
        lam, nu = w1.lam, w1.nu
        m_0 = -4.0 * (lam * lam)
        m, m_t = np.array([m_0]), np.full_like(rho_t, m_0)
        basis = []
        for data in ((1.0, 0.0), (0.0, 1.0)):
            fourth = FourthOrderMode(param, mode, *data)
            (value,), lop = fourth.assemble(rho_t, d1, d2, 0)
            basis.append((*_fourth_pairs(fourth, s1, s2), value, lop))
        boundary = np.array([[0.0, 1.0], [1.0, 0.0]]) * (nu / al)
    else:
        sol, rho_c, series, rho_t, wt_t, u_t, du_t = _mode_profile(gamma, mode)
        lam, nu = sol.lam, sol.nu
        m, m_t = np.array([nu, 0.0, lam * lam]), nu + lam * lam * rho_t * rho_t
        basis = [(*_mode_pair_series(sol, series), u_t, du_t)]
        boundary = np.zeros((1, 1))
    moments = _moments(2.0 * al, rho_c)
    degenerate = _degenerate_cells(2.0 * al, tuple(bool(w) for w in m))
    m, m_t, basis, boundary, moments = _read_only((m, m_t, tuple(basis), boundary, moments))
    return _Workspace(
        param, lam, nu, 2.0 * al, rho_c, rho_t, wt_t, m, m_t, basis, boundary, moments, degenerate
    )


def _combine(scales, parts_list) -> tuple:
    """The parts of sum_i scales[i] * parts_list[i], taken part by part."""
    return tuple(sum(s * x for s, x in zip(scales, field)) for field in zip(*parts_list))


def _pairing(ws: _Workspace, grams, partsP, partsQ):
    """The bulk pairing of P and Q, broadcast over the leading (row) axes of the parts."""
    uP, aP, tP, atP = partsP
    uQ, aQ, tQ, atQ = partsQ
    inner = 0.0
    for (gram, rows, cols), x, y in zip(grams, (aP, uP), (aQ, uQ)):
        if np.any((x[..., rows] != 0.0) & (y[..., cols] != 0.0)):
            raise RuntimeError("endpoint exponent degenerated to -1; lattice violated")
        inner = inner + np.sum((x @ gram) * y, axis=-1)
    integrand = (atP * atQ + ws.m_t * (tP * tQ)) * ws.rho_t ** (1.0 - ws.beta)
    return inner + np.sum(ws.wt_t * integrand, axis=-1)


# -- public functionals -----------------------------------------------------


def mode_energy(param: GammaParam, mode: ModeIndex, data) -> float:
    """Quadrature energy of the solution with boundary data `data`, one datum per order."""
    ws = _workspace(param.gamma, mode)
    if len(data) != len(ws.basis):
        raise ValueError(f"gamma = {param.gamma} takes {len(ws.basis)} data, got {len(data)}")
    parts = _combine(data, ws.basis)
    d = np.asarray(data)
    return float(_pairing(ws, _grams(ws), parts, parts)) + float(d @ ws.boundary @ d)


def _perturbation_parts(h: np.ndarray, c: np.ndarray, ws: _Workspace) -> tuple:
    """The perturbation rows (h, c) in the parts layout of the workspace `ws`."""
    w = _exp_series(h, c)
    u, u_t = _lattice((0, 0, w)), _w_value(h, c, ws.rho_t)
    if not ws.param.is_high:
        return u, _lattice((0, -1, 2.0 * _J * w)), u_t, _w_deriv(h, c, ws.rho_t)
    g = _lop_poly(h, c, ws.param.alpha, ws.lam * ws.lam, ws.nu)
    return u, _lattice((0, 0, _exp_series(g, c))), u_t, _w_value(g, c, ws.rho_t)


def _closed_energies(h: np.ndarray, c: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Exact gamma-function energies of the perturbation rows (h, c), one per row.

    The integrand of the form on row i is poly_i(x) e^{-2 c_i x} rho^(1 - beta),
    x = rho^2, so the energy is sum_j poly_i[j] Gamma(s_j) / (2 (2 c_i)^s_j)
    with s_j = j + 1 - beta / 2.
    """
    hh = _xp_mul(h, h)
    if ws.param.is_high:
        g = _lop_poly(h, c, ws.param.alpha, ws.lam * ws.lam, ws.nu)
        poly = _xp_mul(g, g)
        poly[..., : hh.shape[-1]] -= 4.0 * ws.lam * ws.lam * hh
    else:
        core = -c * h
        core[..., :3] += _xp_dx(h)
        poly = np.zeros(hh.shape[:-1] + (hh.shape[-1] + 2,))
        poly[..., 1:-1] += 4.0 * _xp_mul(core, core)
        poly[..., :-2] += ws.nu * hh
        poly[..., 1:-1] += ws.lam * ws.lam * hh
    two_c = 2.0 * c[..., 0]
    weight_exp = 1.0 - ws.beta
    total = np.zeros(hh.shape[:-1])
    for j in range(poly.shape[-1]):
        s = j + (weight_exp + 1.0) / 2.0
        total += 0.5 * poly[..., j] * gamma_fn(s) / two_c**s
    return total


def trace_equality_check(param: GammaParam, mode: ModeIndex) -> float:
    """Relative gap between the quadrature energy at unit data and its closed spectral value."""
    targets = boundary_targets(param, mode)
    got = mode_energy(param, mode, (1.0,) * len(targets))
    return abs(got / sum(targets) - 1.0)


def dirichlet_principle_check(
    param: GammaParam, mode: ModeIndex, seed: int = 0, count: int = 20
) -> tuple[float, float]:
    """Strict second-order excess for seeded admissible perturbations.

    Returns (worst relative error of E(U + tW) - E(U) = t^2 E(W), smallest
    perturbation energy); the principle requires the first to be numerical
    zero and the second to be strictly positive.  The shifted energies are
    evaluated in blocks of at most _BLOCK perturbations, one row each.
    """
    rng = random.Random(f"dirichlet:{seed}:{param.gamma}:{mode.lam}:{mode.k}:{mode.n}")
    ws = _workspace(param.gamma, mode)
    d = np.array((1.0, 0.6) if param.is_high else (1.0,))
    base = _combine(d, ws.basis)
    h, c, t = _draw_perturbations(rng, abs(mode.lam), count)
    e_w = _closed_energies(h, c, ws)
    grams = _grams(ws)
    edge = float(d @ ws.boundary @ d)
    e_base = float(_pairing(ws, grams, base, base)) + edge
    e_shift = []
    for start in range(0, count, _BLOCK):
        rows = slice(start, start + _BLOCK)
        parts = _perturbation_parts(h[rows], c[rows], ws)
        shifted = tuple(b + t[rows, None] * w for b, w in zip(base, parts))
        e_shift.append(_pairing(ws, grams, shifted, shifted) + edge)
    e_shift = np.concatenate(e_shift)
    gap = np.abs(e_shift - e_base - t * t * e_w) / (abs(e_base) + t * t * np.abs(e_w))
    return float(np.max(gap)), float(np.min(e_w))


def q_symmetry_check(
    param: GammaParam, mode: ModeIndex, seed: int = 0, count: int = 20
) -> float:
    """Symmetry and boundary representation of the polarized form Q.

    Builds the 2x2 matrix of Q over the boundary-data basis by quadrature,
    compares it against its transpose and against the diagonal closed form
    from the two constants, then sweeps seeded data pairs through all three.
    Returns the worst normalized discrepancy.
    """
    if not param.is_high:
        raise ValueError("the polarized form lives in the range gamma in (1, 2)")
    ws = _workspace(param.gamma, mode)
    rows = [np.stack(field) for field in zip(*ws.basis)]
    measured = (
        _pairing(ws, _grams(ws), [r[:, None] for r in rows], [r[None] for r in rows])
        + ws.boundary
    )
    closed = np.diag(boundary_targets(param, mode))
    rng = random.Random(f"qsym:{seed}:{param.gamma}:{mode.lam}:{mode.k}:{mode.n}")
    errors = []
    for _ in range(count):
        du = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)])
        dv = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)])
        scale = float(
            np.abs(du) @ (np.abs(measured) + np.abs(closed)) @ np.abs(dv)
        ) + 1e-300
        q_uv = float(du @ measured @ dv)
        q_vu = float(dv @ measured @ du)
        q_closed = float(du @ closed @ dv)
        errors += [abs(q_uv - q_vu) / scale, abs(q_uv - q_closed) / scale]
    return worst_error(errors)
