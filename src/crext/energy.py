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

A workspace holds, per (gamma, mode), the tail grid, m (as a lattice series
and as an array on the tail nodes), B, and a basis of solution parts with
unit data, one per boundary datum; every part, basis or perturbation, is the
tuple (u series, A series, u tail, A tail), and a solution with data d is
the d-combination of the basis.

Quadrature strategy, shared by every functional here: on [0, rho_c] the
integrand is assembled exactly on the two-branch Frobenius lattice
(exponents j + b * beta with integer j and branch index b), products are
coefficient convolutions, and each lattice term integrates in closed form.
On [rho_c, rho(80/lam)] the solutions are evaluated through the U-function
ladder on Gauss-Legendre panels whose widths are capped in w = lam rho^2
units, riding the Gaussian decay.  Each (order, mode) tail profile is
evaluated once per process and shared between the ranges: the high range at
gamma reads the profiles of orders 1 + alpha and 1 - alpha = 2 - gamma, the
second being the low-range profile at 2 - gamma.  Perturbations are
Laguerre-type profiles x (r0 + r1 x + r2 x^2) e^{-c x} in x = rho^2, closed
under every operation above, with exact gamma-function energies to grade the
quadrature against.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import roots_legendre

from .extend import FourthOrderMode, ModeSolution, frobenius_series
from .special import gamma_fn
from .spectral import GammaParam, ModeIndex, gjms_symbol, mode_eigenvalue, theorem_constant

__all__ = [
    "Perturbation",
    "random_perturbation",
    "mode_energy_2",
    "mode_energy_4",
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


class _Branch(NamedTuple):
    """Coefficients of rho^(off + i) within one lattice branch."""

    off: int
    coef: np.ndarray


def _b_mul(x: _Branch, y: _Branch) -> _Branch:
    return _Branch(x.off + y.off, np.convolve(x.coef, y.coef))


def _acc_add(acc: dict[int, _Branch], key: int, br: _Branch, scale: float = 1.0) -> None:
    cur = acc.get(key)
    if cur is None:
        acc[key] = _Branch(br.off, scale * br.coef)
        return
    off = min(cur.off, br.off)
    end = max(cur.off + len(cur.coef), br.off + len(br.coef))
    arr = np.zeros(end - off)
    arr[cur.off - off : cur.off - off + len(cur.coef)] += cur.coef
    arr[br.off - off : br.off - off + len(br.coef)] += scale * br.coef
    acc[key] = _Branch(off, arr)


def _series_mul(p: dict[int, _Branch], q: dict[int, _Branch]) -> dict[int, _Branch]:
    out: dict[int, _Branch] = {}
    for b1, x in p.items():
        for b2, y in q.items():
            _acc_add(out, b1 + b2, _b_mul(x, y))
    return out


def _series_lincomb(terms) -> dict[int, _Branch]:
    out: dict[int, _Branch] = {}
    for scale, series in terms:
        for bp, br in series.items():
            _acc_add(out, bp, br, scale)
    return out


def _inner_integral(series: dict[int, _Branch], beta: float, rho_c: float) -> float:
    """Integrate the lattice series times the weight rho^(1 - beta) over [0, rho_c]."""
    total = 0.0
    for bp, br in series.items():
        live = br.coef != 0.0
        if not np.any(live):
            continue
        exps = br.off + np.arange(len(br.coef))[live] + 1.0 + (bp - 1) * beta
        ep1 = exps + 1.0
        if np.any(np.abs(ep1) < 1e-9):
            raise RuntimeError("endpoint exponent degenerated to -1; lattice violated")
        total += float(np.sum(br.coef[live] * rho_c**ep1 / ep1))
    return total


@lru_cache(maxsize=1)
def _panel_rule():
    return roots_legendre(_TAIL_NODES)


def _tail_grid(lam: float, rho_c: float) -> tuple[np.ndarray, np.ndarray]:
    """Panel nodes and weights on [rho_c, sqrt(W_TOP/lam)], graded in w = lam rho^2."""
    edges = [lam * rho_c**2]
    while edges[-1] < _W_TOP:
        edges.append(min(2.0 * edges[-1], edges[-1] + _W_STEP_CAP, _W_TOP))
    x, w = _panel_rule()
    nodes, weights = [], []
    for lo, hi in zip(edges, edges[1:]):
        r_lo, r_hi = math.sqrt(lo / lam), math.sqrt(hi / lam)
        half = (r_hi - r_lo) / 2.0
        nodes.append(half * x + (r_hi + r_lo) / 2.0)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


# -- profiles ---------------------------------------------------------------


def _xp_dx(p: np.ndarray) -> np.ndarray:
    if len(p) <= 1:
        return np.zeros(1)
    return p[1:] * np.arange(1, len(p))


def _xp_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.convolve(p, q)


def _xp_eval(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(x)
    for c in reversed(p):
        acc = acc * x + c
    return acc


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

    def value(self, rho: np.ndarray) -> np.ndarray:
        x = rho * rho
        return _xp_eval(self.h, x) * np.exp(-self.decay * x)

    def deriv(self, rho: np.ndarray) -> np.ndarray:
        x = rho * rho
        core = _xp_eval(_xp_dx(self.h), x) - self.decay * _xp_eval(self.h, x)
        return 2.0 * rho * core * np.exp(-self.decay * x)

    def lop_poly(self, alpha: float, lam_sq: float, nu: float) -> np.ndarray:
        """x-polynomial g with Lop W = g(x) e^{-c x}."""
        c = self.decay
        h = self.h
        hp = _xp_dx(h)
        hpp = _xp_dx(hp)
        bend = np.zeros(max(len(hpp), len(hp), len(h)))
        bend[: len(hpp)] += hpp
        bend[: len(hp)] -= 2.0 * c * hp
        bend[: len(h)] += c * c * h
        g = np.zeros(len(h) + 2)
        g[1 : 1 + len(bend)] += 4.0 * bend
        g[: len(hp)] += (4.0 - 4.0 * alpha) * hp
        g[: len(h)] += -(4.0 - 4.0 * alpha) * c * h
        g[: len(h)] -= nu * h
        g[1 : 1 + len(h)] -= lam_sq * h
        return np.trim_zeros(g, "b") if np.any(g) else np.zeros(1)

    def lop_value(self, rho: np.ndarray, alpha: float, lam_sq: float, nu: float) -> np.ndarray:
        x = rho * rho
        return _xp_eval(self.lop_poly(alpha, lam_sq, nu), x) * np.exp(-self.decay * x)

    def pair_series(self, nterms: int = _INNER_TERMS):
        """(value, derivative) as integer-branch lattice series."""
        expc = np.array([(-self.decay) ** i / math.factorial(i) for i in range(nterms)])
        wc = _xp_mul(self.h, expc)[:nterms]
        u = np.zeros(2 * nterms)
        u[0::2] = wc
        du = np.zeros(2 * nterms)
        du[0::2] = 2.0 * np.arange(nterms) * wc
        return {0: _Branch(0, u)}, {0: _Branch(-1, du)}

    def lop_series(self, alpha: float, lam_sq: float, nu: float, nterms: int = _INNER_TERMS):
        expc = np.array([(-self.decay) ** i / math.factorial(i) for i in range(nterms)])
        gc = _xp_mul(self.lop_poly(alpha, lam_sq, nu), expc)[:nterms]
        g = np.zeros(2 * nterms)
        g[0::2] = gc
        return {0: _Branch(0, g)}


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
    """(value, derivative) lattice series of the normalized decaying solution."""
    ca, cb = frobenius_series(sol.order, sol.nu, sol.lam**2, nterms)
    beta = 2.0 * sol.order
    u0 = np.zeros(2 * nterms)
    u0[0::2] = ca
    u1 = np.zeros(2 * nterms)
    u1[0::2] = sol.c1 * np.asarray(cb)
    du0 = np.zeros(2 * nterms)
    du0[0::2] = 2.0 * np.arange(nterms) * np.asarray(ca)
    du1 = np.zeros(2 * nterms)
    du1[0::2] = sol.c1 * (2.0 * np.arange(nterms) + beta) * np.asarray(cb)
    u = {0: _Branch(0, u0), 1: _Branch(0, u1)}
    du = {0: _Branch(-1, du0), 1: _Branch(-1, du1)}
    return u, du


def _rho_cut(lam: float, nu: float) -> float:
    return min(0.5, 0.75 / math.sqrt(lam), 2.0 / math.sqrt(nu))



def _read_only(x):
    """Mark every array in a nest of tuples, dicts and branches read-only."""
    if isinstance(x, np.ndarray):
        x.flags.writeable = False
    elif isinstance(x, (tuple, dict)):
        for item in x.values() if isinstance(x, dict) else x:
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
    """(value, Lop value) lattice series of the assembled fourth-order solution."""
    al = fourth.alpha
    lam, nu = fourth.lam, fourth.nu
    a1c, b1c = frobenius_series(1.0 + al, nu, lam * lam, nterms)
    a2c, b2c = frobenius_series(1.0 - al, nu, lam * lam, nterms)
    a1c, b1c, a2c, b2c = map(np.asarray, (a1c, b1c, a2c, b2c))
    A, B = fourth.coef_a, fourth.coef_b
    c11, c12 = fourth.w1.c1, fourth.w2.c1
    j2 = 2.0 * np.arange(nterms)

    u0 = np.zeros(2 * nterms + 2)
    u0[0::2][:nterms] += A * a1c
    u0[2::2][:nterms] += B * c12 * b2c
    u1 = np.zeros(2 * nterms + 2)
    u1[0::2][:nterms] += B * a2c
    u1[2::2][:nterms] += A * c11 * b1c

    lop0 = np.zeros(2 * nterms + 4)
    lop0[0::2][:nterms] += 2.0 * A * j2 * a1c
    lop0[2::2][:nterms] += 2.0 * B * c12 * (j2 + 2.0 - 2.0 * al) * b2c
    lop1 = np.zeros(2 * nterms + 4)
    lop1[0::2][:nterms] += 2.0 * B * j2 * a2c
    lop1[2::2][:nterms] += 2.0 * A * c11 * (j2 + 2.0 + 2.0 * al) * b1c

    u = {0: _Branch(0, u0), 1: _Branch(0, u1)}
    lop = {0: _Branch(-2, lop0), 1: _Branch(-2, lop1)}
    return u, lop


@dataclass(frozen=True)
class _Workspace:
    """Tail grid, potential m (series and tail), unit-data basis and boundary matrix."""

    param: GammaParam
    lam: float
    nu: float
    beta: float
    rho_c: float
    rho_t: np.ndarray
    wt_t: np.ndarray
    m: dict
    m_t: np.ndarray
    basis: tuple
    boundary: np.ndarray


@lru_cache(maxsize=256)
def _workspace(gamma: float, mode: ModeIndex) -> _Workspace:
    """The form at gamma on one mode, with every array read-only."""
    param = GammaParam(gamma)
    al = param.alpha
    if param.is_high:
        w1, rho_c, rho_t, wt_t, *d1 = _mode_profile(1.0 + al, mode)
        d2 = _mode_profile(1.0 - al, mode)[4:]
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
    m, m_t, basis, boundary = _read_only(({0: _Branch(0, m)}, m_t, tuple(basis), boundary))
    return _Workspace(param, lam, nu, 2.0 * al, rho_c, rho_t, wt_t, m, m_t, basis, boundary)


def _combine(scales, parts_list) -> tuple:
    """The parts of sum_i scales[i] * parts_list[i], taken part by part."""
    u, a, u_t, a_t = zip(*parts_list)
    return (
        _series_lincomb(zip(scales, u)),
        _series_lincomb(zip(scales, a)),
        sum(s * t for s, t in zip(scales, u_t)),
        sum(s * t for s, t in zip(scales, a_t)),
    )


def _bulk(ws: _Workspace, partsP, partsQ) -> float:
    """int_0^inf (A_P A_Q + m u_P u_Q) rho^(1 - beta) drho, inner series plus tail."""
    uP, aP, tP, atP = partsP
    uQ, aQ, tQ, atQ = partsQ
    bulk = _series_lincomb(
        [(1.0, _series_mul(aP, aQ)), (1.0, _series_mul(ws.m, _series_mul(uP, uQ)))]
    )
    integrand = (atP * atQ + ws.m_t * (tP * tQ)) * ws.rho_t ** (1.0 - ws.beta)
    return _inner_integral(bulk, ws.beta, ws.rho_c) + float(np.sum(ws.wt_t * integrand))


def _energy(ws: _Workspace, parts, data) -> float:
    """The form on the solution with boundary data `data`, given its parts."""
    d = np.asarray(data)
    return _bulk(ws, parts, parts) + float(d @ ws.boundary @ d)


# -- public functionals -----------------------------------------------------


def mode_energy_2(param: GammaParam, mode: ModeIndex) -> float:
    """Quadrature value of E1 on the normalized decaying solution."""
    if param.is_high:
        raise ValueError("E1 is the functional for gamma in (0, 1)")
    ws = _workspace(param.gamma, mode)
    return _energy(ws, _combine((1.0,), ws.basis), (1.0,))


def mode_energy_4(param: GammaParam, mode: ModeIndex, phi: float = 1.0, psi: float = 1.0) -> float:
    """Quadrature value of E2 on the solution with boundary data (phi, psi)."""
    if not param.is_high:
        raise ValueError("E2 is the functional for gamma in (1, 2)")
    ws = _workspace(param.gamma, mode)
    return _energy(ws, _combine((phi, psi), ws.basis), (phi, psi))


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


def _perturbation_parts(pert: Perturbation, ws: _Workspace) -> tuple:
    """The perturbation in the parts layout of the workspace `ws`."""
    u_pair, du_pair = pert.pair_series()
    if not ws.param.is_high:
        return u_pair, du_pair, pert.value(ws.rho_t), pert.deriv(ws.rho_t)
    al, lam_sq = ws.param.alpha, ws.lam * ws.lam
    return (
        u_pair,
        pert.lop_series(al, lam_sq, ws.nu),
        pert.value(ws.rho_t),
        pert.lop_value(ws.rho_t, al, lam_sq, ws.nu),
    )


def perturbation_energy_quadrature(
    pert: Perturbation, param: GammaParam, mode: ModeIndex
) -> float:
    """The same energy through the shared inner-series/tail-panel machinery."""
    ws = _workspace(param.gamma, mode)
    parts = _perturbation_parts(pert, ws)
    return _bulk(ws, parts, parts)


def trace_equality_check(param: GammaParam, mode: ModeIndex) -> float:
    """Relative gap between the quadrature energy and its closed spectral value."""
    if param.is_high:
        c_phi, c_psi = theorem_constant(param)
        want = c_phi * gjms_symbol(param.gamma, mode) - c_psi * gjms_symbol(
            2.0 - param.gamma, mode
        )
        got = mode_energy_4(param, mode, 1.0, 1.0)
    else:
        want = theorem_constant(param) * gjms_symbol(param.gamma, mode)
        got = mode_energy_2(param, mode)
    return abs(got / want - 1.0)


def dirichlet_principle_check(
    param: GammaParam, mode: ModeIndex, seed: int = 0, count: int = 20
) -> tuple[float, float]:
    """Strict second-order excess for seeded admissible perturbations.

    Returns (worst relative error of E(U + tW) - E(U) = t^2 E(W), smallest
    perturbation energy); the principle requires the first to be numerical
    zero and the second to be strictly positive.
    """
    rng = random.Random(f"dirichlet:{seed}:{param.gamma}:{mode.lam}:{mode.k}:{mode.n}")
    ws = _workspace(param.gamma, mode)
    data = (1.0, 0.6) if param.is_high else (1.0,)
    base = _combine(data, ws.basis)
    lam = abs(mode.lam)
    e_base = _energy(ws, base, data)
    worst = 0.0
    floor = math.inf
    for _ in range(count):
        pert = random_perturbation(rng, lam)
        t = rng.uniform(0.3, 1.0)
        e_w = perturbation_energy_closed(pert, param, mode)
        shifted = _combine((1.0, t), (base, _perturbation_parts(pert, ws)))
        e_shift = _energy(ws, shifted, data)
        gap = abs(e_shift - e_base - t * t * e_w) / (abs(e_base) + t * t * abs(e_w))
        worst = max(worst, gap)
        floor = min(floor, e_w)
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
    measured = np.array([[_bulk(ws, p, q) for q in ws.basis] for p in ws.basis]) + ws.boundary
    c_phi, c_psi = theorem_constant(param)
    closed = np.diag(
        [
            c_phi * gjms_symbol(param.gamma, mode),
            -c_psi * gjms_symbol(2.0 - param.gamma, mode),
        ]
    )
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
