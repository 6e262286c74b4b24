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
1-D table of mu over (b, p) and the Gram cells that gather its NaN
entries; the two 128 x 128 Grams are gathered from it once per check.  A
degenerate exponent (|e| < 1e-9) leaves the lattice and raises if any
nonzero pair of coefficients lands on it.  On [rho_c, rho(80/lam)] the
solutions are evaluated through the U-function ladder on Gauss-Legendre
panels whose widths are capped in w = lam rho^2 units, riding the Gaussian
decay.  Each (order, mode) tail profile is
evaluated once per process and shared between the ranges: the high range at
gamma reads the profiles of orders 1 + alpha and 1 - alpha = 2 - gamma, the
second being the low-range profile at 2 - gamma.  Perturbations are
Laguerre-type profiles x (r0 + r1 x + r2 x^2) e^{-c x} in x = rho^2, closed
under every operation above, with exact gamma-function energies to grade the
quadrature against; the Dirichlet check stacks them as rows, at most 32 to a
block, and evaluates each block as one row-wise quadratic form.

`mode_energy` is the form on the solution with given boundary data; the
graders compare it with its closed diagonal, `spectral.boundary_targets`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .extend import FourthOrderMode, ModeSolution, frobenius_series
from .special import gamma_fn, legendre_rule
from .spectral import GammaParam, ModeIndex, boundary_targets, mode_eigenvalue

__all__ = [
    "Perturbation",
    "random_perturbation",
    "mode_energy",
    "perturbation_energy_closed",
    "perturbation_energy_quadrature",
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


def _degenerate_cells(moments: np.ndarray, m: np.ndarray) -> tuple:
    """(rows, columns) of the Gram cells that gather a NaN moment, per A A and m u u term."""
    nan = np.isnan(moments).ravel()
    out = []
    for weights in ((1.0,), m):
        bad = np.zeros(_GRAM_INDEX.shape, dtype=bool)
        for k, w in enumerate(weights):
            if w:
                bad |= nan[_GRAM_INDEX + k]
        out.append(np.nonzero(bad))
    return tuple(out)


def _grams(ws: _Workspace) -> tuple:
    """(Gram, degenerate rows, degenerate columns) of the A A and the m u u terms."""
    out = []
    for weights, (rows, cols) in zip(((1.0,), ws.m), ws.degenerate):
        gram = sum(w * np.take(ws.moments, _GRAM_INDEX + k) for k, w in enumerate(weights) if w)
        gram[rows, cols] = 0.0
        out.append((gram, rows, cols))
    return tuple(out)


def _tail_grid(lam: float, rho_c: float) -> tuple[np.ndarray, np.ndarray]:
    """Panel nodes and weights on [rho_c, sqrt(W_TOP/lam)], graded in w = lam rho^2."""
    edges = [lam * rho_c**2]
    while edges[-1] < _W_TOP:
        edges.append(min(2.0 * edges[-1], edges[-1] + _W_STEP_CAP, _W_TOP))
    x, w = legendre_rule(_TAIL_NODES)
    nodes, weights = [], []
    for lo, hi in zip(edges, edges[1:]):
        r_lo, r_hi = math.sqrt(lo / lam), math.sqrt(hi / lam)
        half = (r_hi - r_lo) / 2.0
        nodes.append(half * x + (r_hi + r_lo) / 2.0)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


# -- profiles ---------------------------------------------------------------
# x-polynomials are coefficient arrays along the last axis; leading axes,
# if any, stack one perturbation per row.


def _xp_dx(p: np.ndarray) -> np.ndarray:
    return p[..., 1:] * np.arange(1, np.shape(p)[-1])


def _xp_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.convolve(p, q)


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
    expc = (-c) ** _J / _FACT
    out = np.zeros(np.shape(expc))
    for i in range(np.shape(p)[-1]):
        out[..., i:] += p[..., i, None] * expc[..., : _INNER_TERMS - i]
    return out


@dataclass(frozen=True)
class Perturbation:
    """Profile x (r0 + r1 x + r2 x^2) e^{-c x} in x = rho^2.

    Vanishes at the boundary and carries no fractional branch, so it is an
    admissible variation for both energy functionals, and every quantity the
    functionals need has a closed polynomial-times-exponential form.
    """

    r: tuple[float, float, float]
    decay: float

    @property
    def h(self) -> np.ndarray:
        return np.array([0.0, self.r[0], self.r[1], self.r[2]])

    def lop_poly(self, alpha: float, lam_sq: float, nu: float) -> np.ndarray:
        """x-polynomial g with Lop W = g(x) e^{-c x}."""
        return _lop_poly(self.h, self.decay, alpha, lam_sq, nu)


def random_perturbation(rng: random.Random, lam: float) -> Perturbation:
    r0 = rng.uniform(0.2, 1.0) * rng.choice((-1.0, 1.0))
    r1 = rng.uniform(-1.0, 1.0)
    r2 = rng.uniform(-1.0, 1.0)
    return Perturbation((r0, r1, r2), lam * rng.uniform(0.4, 2.0))


def _closed_weighted_integral(poly: np.ndarray, weight_exp: float, two_c: float) -> float:
    """int_0^inf rho^weight_exp sum_j poly[j] x^j e^{-two_c x} drho, x = rho^2."""
    total = 0.0
    for j, coef in enumerate(poly):
        if coef:
            s = j + (weight_exp + 1.0) / 2.0
            total += 0.5 * coef * gamma_fn(s) / two_c**s
    return total


# -- workspaces -------------------------------------------------------------


def _mode_pair_series(sol: ModeSolution, nterms: int):
    """(value, derivative) dense series of the normalized decaying solution."""
    ca, cb = map(np.asarray, frobenius_series(sol.order, sol.nu, sol.lam**2, nterms))
    j2 = 2.0 * np.arange(nterms)
    u = _lattice((0, 0, ca), (1, 0, sol.c1 * cb))
    du = _lattice((0, -1, j2 * ca), (1, -1, sol.c1 * (j2 + 2.0 * sol.order) * cb))
    return u, du


def _rho_cut(lam: float, nu: float) -> float:
    return min(0.5, 0.75 / math.sqrt(lam), 2.0 / math.sqrt(nu))


def _read_only(x):
    """Mark every array in a nest of tuples read-only."""
    if isinstance(x, np.ndarray):
        x.flags.writeable = False
    elif isinstance(x, tuple):
        for item in x:
            _read_only(item)
    return x


@lru_cache(maxsize=1024)
def _mode_profile(order: float, mode: ModeIndex) -> tuple:
    """(solution, rho_c, tail nodes, tail weights, u, u') of one order, read-only.

    The tail grid depends on the mode only.  Built once per (order, mode): the
    workspaces at gamma below 1 and at 1 +- alpha above it share the entries.
    """
    sol = ModeSolution(order, mode)
    rho_c = _rho_cut(sol.lam, sol.nu)
    rho_t, wt_t = _tail_grid(sol.lam, rho_c)
    u_t, du_t = sol.derivatives(rho_t, upto=1)
    return _read_only((sol, rho_c, rho_t, wt_t, u_t, du_t))


def _fourth_pairs(fourth: FourthOrderMode, nterms: int):
    """(value, Lop value) dense series of the assembled fourth-order solution."""
    al = fourth.alpha
    lam, nu = fourth.lam, fourth.nu
    (a1c, b1c), (a2c, b2c) = (
        map(np.asarray, frobenius_series(o, nu, lam * lam, nterms)) for o in fourth.param.orders
    )
    A, B = fourth.coef_a, fourth.coef_b
    c11, c12 = fourth.w1.c1, fourth.w2.c1
    j2 = 2.0 * np.arange(nterms)
    u = _lattice((0, 0, A * a1c), (0, 2, B * c12 * b2c), (1, 0, B * a2c), (1, 2, A * c11 * b1c))
    lop = _lattice(
        (0, -2, 2.0 * A * j2 * a1c),
        (0, 0, 2.0 * B * c12 * (j2 + 2.0 - 2.0 * al) * b2c),
        (1, -2, 2.0 * B * j2 * a2c),
        (1, 0, 2.0 * A * c11 * (j2 + 2.0 + 2.0 * al) * b1c),
    )
    return u, lop


@dataclass(frozen=True)
class _Workspace:
    """Tail grid, potential m (coefficients and tail), unit-data basis, boundary, moments.

    `degenerate` holds the Gram cells that `_degenerate_cells` finds in the moments.
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
        w1, rho_c, rho_t, wt_t, *d1 = _mode_profile(param.orders[0], mode)
        d2 = _mode_profile(param.orders[1], mode)[4:]
        lam, nu = w1.lam, w1.nu
        m_0 = -4.0 * (lam * lam)
        m, m_t = np.array([m_0]), np.full_like(rho_t, m_0)
        basis = []
        for data in ((1.0, 0.0), (0.0, 1.0)):
            fourth = FourthOrderMode(param, mode, *data)
            (value,), lop = fourth.assemble(rho_t, d1, d2, 0)
            basis.append((*_fourth_pairs(fourth, _INNER_TERMS), value, lop))
        boundary = np.array([[0.0, 1.0], [1.0, 0.0]]) * (nu / al)
    else:
        sol, rho_c, rho_t, wt_t, u_t, du_t = _mode_profile(gamma, mode)
        lam, nu = sol.lam, sol.nu
        m, m_t = np.array([nu, 0.0, lam * lam]), nu + lam * lam * rho_t * rho_t
        basis = [(*_mode_pair_series(sol, _INNER_TERMS), u_t, du_t)]
        boundary = np.zeros((1, 1))
    moments = _moments(2.0 * al, rho_c)
    degenerate = _degenerate_cells(moments, m)
    m, m_t, basis, boundary, moments, degenerate = _read_only(
        (m, m_t, tuple(basis), boundary, moments, degenerate)
    )
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


def _bulk(ws: _Workspace, partsP, partsQ) -> float:
    """int_0^inf (A_P A_Q + m u_P u_Q) rho^(1 - beta) drho, inner series plus tail."""
    return float(_pairing(ws, _grams(ws), partsP, partsQ))


def _energy(ws: _Workspace, parts, data) -> float:
    """The form on the solution with boundary data `data`, given its parts."""
    d = np.asarray(data)
    return _bulk(ws, parts, parts) + float(d @ ws.boundary @ d)


# -- public functionals -----------------------------------------------------


def mode_energy(param: GammaParam, mode: ModeIndex, data) -> float:
    """Quadrature energy of the solution with boundary data `data`, one datum per order."""
    ws = _workspace(param.gamma, mode)
    if len(data) != len(ws.basis):
        raise ValueError(f"gamma = {param.gamma} takes {len(ws.basis)} data, got {len(data)}")
    return _energy(ws, _combine(data, ws.basis), data)


def perturbation_energy_closed(pert: Perturbation, param: GammaParam, mode: ModeIndex) -> float:
    """Exact gamma-function value of the energy of an admissible perturbation."""
    lam = abs(mode.lam)
    nu = mode_eigenvalue(mode)
    two_c = 2.0 * pert.decay
    if param.is_high:
        al = param.alpha
        g = pert.lop_poly(al, lam * lam, nu)
        poly = _xp_mul(g, g)
        hh = _xp_mul(pert.h, pert.h)
        poly[: len(hh)] -= 4.0 * lam * lam * hh
        return _closed_weighted_integral(poly, 1.0 - 2.0 * al, two_c)
    g = param.gamma
    hp = _xp_dx(pert.h)
    core = -pert.decay * pert.h
    core[: len(hp)] += hp
    grad = _xp_mul(core, core)
    poly = np.zeros(2 * len(pert.h) + 1)
    poly[1 : 1 + len(grad)] += 4.0 * grad
    hh = _xp_mul(pert.h, pert.h)
    poly[: len(hh)] += nu * hh
    poly[1 : 1 + len(hh)] += lam * lam * hh
    return _closed_weighted_integral(poly, 1.0 - 2.0 * g, two_c)


def _perturbation_parts(perts, ws: _Workspace) -> tuple:
    """The perturbations in the parts layout of the workspace `ws`, one row each."""
    h = np.array([p.h for p in perts])
    c = np.array([[p.decay] for p in perts])
    w = _exp_series(h, c)
    u, u_t = _lattice((0, 0, w)), _w_value(h, c, ws.rho_t)
    if not ws.param.is_high:
        return u, _lattice((0, -1, 2.0 * _J * w)), u_t, _w_deriv(h, c, ws.rho_t)
    g = _lop_poly(h, c, ws.param.alpha, ws.lam * ws.lam, ws.nu)
    return u, _lattice((0, 0, _exp_series(g, c))), u_t, _w_value(g, c, ws.rho_t)


def perturbation_energy_quadrature(
    pert: Perturbation, param: GammaParam, mode: ModeIndex
) -> float:
    """The same energy through the shared inner-series/tail-panel machinery."""
    ws = _workspace(param.gamma, mode)
    parts = tuple(x[0] for x in _perturbation_parts((pert,), ws))
    return _bulk(ws, parts, parts)


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
    lam = abs(mode.lam)
    draws = [(random_perturbation(rng, lam), rng.uniform(0.3, 1.0)) for _ in range(count)]
    grams = _grams(ws)
    edge = float(d @ ws.boundary @ d)
    e_base = float(_pairing(ws, grams, base, base)) + edge
    worst = 0.0
    floor = math.inf
    for start in range(0, count, _BLOCK):
        perts, t = zip(*draws[start : start + _BLOCK])
        e_w = np.array([perturbation_energy_closed(p, param, mode) for p in perts])
        t = np.array(t)
        shifted = tuple(
            b + t[:, None] * w for b, w in zip(base, _perturbation_parts(perts, ws))
        )
        e_shift = _pairing(ws, grams, shifted, shifted) + edge
        gap = np.abs(e_shift - e_base - t * t * e_w) / (abs(e_base) + t * t * np.abs(e_w))
        worst = max(worst, float(np.max(gap)))
        floor = min(floor, float(np.min(e_w)))
    return worst, floor


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
    worst = 0.0
    for _ in range(count):
        du = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)])
        dv = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)])
        scale = float(
            np.abs(du) @ (np.abs(measured) + np.abs(closed)) @ np.abs(dv)
        ) + 1e-300
        q_uv = float(du @ measured @ dv)
        q_vu = float(dv @ measured @ du)
        q_closed = float(du @ closed @ dv)
        worst = max(worst, abs(q_uv - q_vu) / scale, abs(q_uv - q_closed) / scale)
    return worst
