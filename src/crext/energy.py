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

A workspace holds, per (gamma, level 2k + n), the form on the mode of unit
frequency at that level: the tail grid, m (as coefficients of s^0, s^1, ...
and as an array on the tail nodes), B, a moment table and a basis of
solution parts with unit data, one per boundary datum; every part, basis or
perturbation, is the tuple (u series, A series, u tail, A tail), and a
solution with data d is the d-combination of the basis.  Every mode of the
level reads it through the Heisenberg dilation.  In s = sqrt(lam) rho the
mode equation divided by lam is the unit-frequency one at nu = 2 (2k + n),
and the form scales as

    E_lam(phi, psi) = lam^gamma E_1(phi, lam^-alpha psi),

alpha = gamma - 1 above order 1 and 0 below (there is no psi), since
rho^(2 alpha) = lam^-alpha s^(2 alpha).  So a mode's energies are lam^gamma
times quadratic forms in its unit-frequency data over one matrix per
workspace, its basis form.  Any (k, n) of a level gives the same bits.

Quadrature strategy, shared by every functional here: on [0, s_c] a series
is one dense array over the two-branch Frobenius lattice, the coefficient of
s^(p + b beta) at index b * 64 + p + 2 for branch b in {0, 1} and power p
in -2..61.  A pair of lattice terms integrates in closed form against the
weight, to the moment mu(b, p) = s_c^e / e with e = p + 2 + (b - 1) beta at
the summed branch and power, so the inner integral is the Gram form

    a_P . G_A . a_Q + u_P . G_m . u_Q,   G_A[i, j] = mu(b_i + b_j, p_i + p_j),

and G_m folds in m's coefficients the same way.  The workspace caches the
1-D table of mu over (b, p); s_c <= 0.75 at every level, so the table is
finite whatever the lam.  The Gram cells that gather its NaN entries
depend on beta and on which of m's coefficients are nonzero only, and are
found once per gamma.  Each 128 x 128 Gram is one gather from its
m-weighted row of moments, kept for the workspace last read.  A
degenerate exponent (|e| < 1e-9) leaves the lattice and raises if any
nonzero pair of coefficients lands on it.
On [s_c, sqrt(80)] the solutions are evaluated through the U-function
ladder on Gauss-Legendre panels in s, graded in w = s^2 from
w_c = min(0.5625, 2 / (2k + n)) with widths capped in w, riding the
Gaussian decay.  Each panel carries _TAIL_NODES = 14 nodes.  Against twice
as many, the mode and shifted perturbation energies of the default spot
modes, a mode at level 64 and modes at lam = 0.001 and 1000 move by 1.4e-10
of their terms' magnitudes at 8 nodes, 1.5e-13 at 10 and by rounding alone
(7e-16) from 12 on: each two nodes gain about three orders, and 14 keeps
two nodes of margin.  `prepare_profiles` builds every (order, level) pair
the checks will read on a level with one U call.  Profiles are kept per
(order, level), each with its two Frobenius branches, and shared between
the ranges: the high range at gamma reads the profiles of orders 1 + alpha
and 1 - alpha = 2 - gamma, the second being the low-range profile at
2 - gamma.

Perturbations are Laguerre-type profiles x (r0 + r1 x + r2 x^2) e^{-c x} in
x = s^2, closed under every operation above.  They live as rows from the
seeded draw to the graded gap: h[:, k] the x^k coefficient (h[:, 0] = 0, so
each vanishes at the boundary), c[:, 0] the decay and t the step, all drawn
at unit frequency.  Their exact energies are gamma-function sums and their
quadrature energies one quadratic form, each one row-wise call for all the
rows of a level.

The checks take the spot modes of one level and return one value per mode.
`mode_energy` is the form on the solution with given boundary data at the
mode's lam; the graders compare it with its closed diagonal,
`spectral.boundary_targets`, formed at lam.  lam enters only there and in
the dilation law, and a lam for which lam^gamma, lam^-alpha or a target
leaves the normal double range raises one OverflowError that states it.
"""

from __future__ import annotations

import math
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .extend import FourthOrderMode, ModeSolution, frobenius_series, mode_derivatives
from .report import worst_error
from .special import gamma_fn, legendre_rule
from .spectral import GammaParam, ModeIndex, boundary_targets, mode_eigenvalue

__all__ = [
    "mode_energy",
    "prepare_profiles",
    "trace_equality_check",
    "dirichlet_principle_check",
    "q_symmetry_check",
]

_INNER_TERMS = 30
_TAIL_NODES = 14
_W_TOP = 80.0
_W_STEP_CAP = 8.0

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


def _moments(beta: float, s_c: float) -> np.ndarray:
    """mu(b, p) = s_c^e / e, e = p + 2 + (b - 1) beta, NaN where e degenerates."""
    e = 2 * _P_LO + np.arange(_NCOLS) + 1.0 + (np.arange(3)[:, None] - 1) * beta + 1.0
    bad = np.abs(e) < 1e-9
    e[bad] = 1.0
    mu = s_c**e / e
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


@lru_cache(maxsize=64)
def _tail_grid(level: int, per_panel: int) -> tuple[float, np.ndarray, np.ndarray]:
    """(w_c, nodes, weights) of the tail panels in s, up to s^2 = _W_TOP, read-only.

    The panels are graded in w = s^2 from w_c = min(0.75^2, 2 / level), the
    series cut s_c = sqrt(w_c) <= 0.75 of the unit-frequency mode at that
    level, with `per_panel` Gauss-Legendre nodes each.
    """
    w_c = min(0.5625, 2.0 / level)
    edges = [w_c]
    while edges[-1] < _W_TOP:
        edges.append(min(2.0 * edges[-1], edges[-1] + _W_STEP_CAP, _W_TOP))
    x, w = legendre_rule(per_panel)
    nodes, weights = [], []
    for lo, hi in zip(edges, edges[1:]):
        s_lo, s_hi = math.sqrt(lo), math.sqrt(hi)
        half = (s_hi - s_lo) / 2.0
        nodes.append(half * x + (s_hi + s_lo) / 2.0)
        weights.append(half * w)
    return _read_only((w_c, np.concatenate(nodes), np.concatenate(weights)))


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


def _draw_perturbations(rng: random.Random, count: int) -> tuple:
    """(h, c, t) of `count` seeded perturbations in x = s^2, one row each.

    Row i is the profile h[i](x) e^{-c[i, 0] x} = x (r0 + r1 x + r2 x^2)
    e^{-c x}: it vanishes at the boundary and carries no fractional branch,
    so it is an admissible variation in both ranges.  t[i] is its step.
    The rows live at unit frequency.
    """
    rows = []
    for _ in range(count):
        r0 = rng.uniform(0.2, 1.0) * rng.choice((-1.0, 1.0))
        r1 = rng.uniform(-1.0, 1.0)
        r2 = rng.uniform(-1.0, 1.0)
        rows.append((0.0, r0, r1, r2, rng.uniform(0.4, 2.0), rng.uniform(0.3, 1.0)))
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
_profiles: dict = {}  # (order, level) -> profile, least recently read first


def _unit_mode(level: int) -> ModeIndex:
    """A mode of unit frequency at level 2k + n = `level`; every such mode reads the same bits."""
    return ModeIndex(1.0, 0, level)


def prepare_profiles(pairs) -> None:
    """Build the unit-frequency profiles of the (order, level) pairs that later checks read.

    The pairs are grouped by level, and each group's derivatives on the
    level's tail grid take one Kummer U call over its distinct rungs.  Pairs
    already built are skipped.  At most _PROFILE_CACHE profiles are kept,
    the least recently read leaving first.
    """
    by_level = {}
    for order, level in pairs:
        key = (float(order), level)
        if key not in _profiles:
            by_level.setdefault(level, {})[key] = None
    for level, keys in by_level.items():
        _, s_t, _ = _tail_grid(level, _TAIL_NODES)
        sols = [ModeSolution(order, _unit_mode(level)) for order, _ in keys]
        for key, sol, d in zip(keys, sols, mode_derivatives(sols, s_t, upto=1)):
            series = frobenius_series(sol.order, sol.nu, 1.0, _INNER_TERMS)
            _profiles[key] = _read_only((sol, tuple(map(np.asarray, series)), *d))
    while len(_profiles) > _PROFILE_CACHE:
        del _profiles[next(iter(_profiles))]


def _mode_profile(order: float, level: int) -> tuple:
    """(solution, Frobenius branches, u, u' on the tail nodes) at unit frequency, read-only.

    Built once per (order, level), as a batch of one if not prepared: the
    workspaces at gamma below 1 and at 1 +- alpha above it share the entries.
    """
    key = (float(order), level)
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

    Everything lives at unit frequency in s.  `wt_t` holds the tail
    quadrature weights and `weight_t` the form's weight s^(1 - beta) at the
    tail nodes.  `degenerate` holds the Gram cells that `_degenerate_cells`
    finds for beta and m.  Workspaces compare by identity, which keys `_grams`.
    """

    param: GammaParam
    level: int
    nu: float
    beta: float
    s_c: float
    s_t: np.ndarray
    wt_t: np.ndarray
    weight_t: np.ndarray
    m: np.ndarray
    m_t: np.ndarray
    basis: tuple
    boundary: np.ndarray
    moments: np.ndarray
    degenerate: tuple


@lru_cache(maxsize=256)
def _workspace(gamma: float, level: int) -> _Workspace:
    """The form at gamma on the unit-frequency mode of level 2k + n, with every array read-only."""
    param = GammaParam(gamma)
    al = param.alpha
    mode = _unit_mode(level)
    nu = mode_eigenvalue(mode)
    w_c, s_t, wt_t = _tail_grid(level, _TAIL_NODES)
    if param.is_high:
        _, s1, *d1 = _mode_profile(param.orders[0], level)
        _, s2, *d2 = _mode_profile(param.orders[1], level)
        m, m_t = np.array([-4.0]), np.full_like(s_t, -4.0)
        basis = []
        for data in ((1.0, 0.0), (0.0, 1.0)):
            fourth = FourthOrderMode(param, mode, *data)
            (value,), lop = fourth.assemble(s_t, d1, d2, 0)
            basis.append((*_fourth_pairs(fourth, s1, s2), value, lop))
        boundary = np.array([[0.0, 1.0], [1.0, 0.0]]) * (nu / al)
    else:
        sol, series, u_t, du_t = _mode_profile(gamma, level)
        m, m_t = np.array([nu, 0.0, 1.0]), nu + s_t * s_t
        basis = [(*_mode_pair_series(sol, series), u_t, du_t)]
        boundary = np.zeros((1, 1))
    beta = 2.0 * al
    s_c = math.sqrt(w_c)
    moments = _moments(beta, s_c)
    degenerate = _degenerate_cells(beta, tuple(bool(w) for w in m))
    weight_t = s_t ** (1.0 - beta)
    m, m_t, weight_t, basis, boundary, moments = _read_only(
        (m, m_t, weight_t, tuple(basis), boundary, moments)
    )
    return _Workspace(
        param, level, nu, beta, s_c, s_t, wt_t, weight_t, m, m_t, basis, boundary, moments,
        degenerate,
    )


@lru_cache(maxsize=1)
def _basis_form(ws: _Workspace) -> np.ndarray:
    """The form's matrix over the unit-data basis, boundary term included, read-only.

    Every check reads a mode's energies off it through the dilation law;
    like the Grams, only the last workspace's is kept.
    """
    rows = [np.stack(field) for field in zip(*ws.basis)]
    pairs = _pairing(ws, _grams(ws), [r[:, None] for r in rows], [r[None] for r in rows])
    return _read_only(pairs + ws.boundary)


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
    integrand = (atP * atQ + ws.m_t * (tP * tQ)) * ws.weight_t
    return inner + np.sum(ws.wt_t * integrand, axis=-1)


# -- public functionals -----------------------------------------------------


def _level_of(modes) -> int:
    """The one level 2k + n of `modes`; a call that mixes levels is refused."""
    levels = sorted({2 * mode.k + mode.n for mode in modes})
    if len(levels) != 1:
        raise ValueError(f"the modes of one call must share one level 2k + n, got {levels}")
    return levels[0]


@contextmanager
def _read_at(param: GammaParam, mode: ModeIndex):
    """Guard a block that reads `mode` off its level's unit-frequency workspace.

    The reading forms lam^gamma and lam^-alpha, and the graders the closed
    targets at lam.  Where one overflows, or underflows to a subnormal or
    zero and so loses its bits silently, the block raises one OverflowError
    stating lam instead of a NaN, a degraded error or an unnamed error.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, OverflowError) as exc:
        raise OverflowError(
            f"the energy reading at lambda = {mode.lam:g} (gamma = {param.gamma:g}, "
            f"level {2 * mode.k + mode.n}) leaves the normal double range"
        ) from exc


def _normal(*values: float) -> tuple:
    """`values`, or FloatingPointError if one is no normal double (inf, NaN, subnormal or 0)."""
    if not all(sys.float_info.min <= abs(v) <= sys.float_info.max for v in values):
        raise FloatingPointError(f"{values} leave the normal double range")
    return values


def _dilation(param: GammaParam, lam: float, data) -> tuple[float, np.ndarray]:
    """(lam^gamma, unit-frequency data (phi, lam^-alpha psi)) of the data (phi, psi) at lam."""
    powers = _normal(lam**param.gamma, *([lam**-param.alpha] if param.is_high else []))
    d = np.array(data, dtype=float)
    d[1:] *= powers[1:]
    return powers[0], d


def mode_energy(param: GammaParam, mode: ModeIndex, data) -> float:
    """Quadrature energy of the solution with boundary data `data`, one datum per order.

    Read off the unit-frequency workspace of the mode's level through the
    dilation law E_lam(phi, psi) = lam^gamma E_1(phi, lam^-alpha psi).
    """
    ws = _workspace(param.gamma, 2 * mode.k + mode.n)
    if len(data) != len(ws.basis):
        raise ValueError(f"gamma = {param.gamma} takes {len(ws.basis)} data, got {len(data)}")
    form = _basis_form(ws)
    with _read_at(param, mode):
        scale, d = _dilation(param, abs(mode.lam), data)
        return scale * float(d @ form @ d)


def _perturbation_parts(h: np.ndarray, c: np.ndarray, ws: _Workspace) -> tuple:
    """The perturbation rows (h, c), given in x = s^2, in the parts layout of the workspace `ws`.

    A row's value and its A part share e^{-c x}: its first _INNER_TERMS
    x-coefficients on the series side, its values at x = s^2 on the tail.
    """
    decay = (-c) ** _J / _FACT
    x = ws.s_t * ws.s_t
    damp = np.exp(-c * x)
    w = _xp_mul(h, decay)[..., :_INNER_TERMS]
    h_t = _xp_eval(h, x)
    u, u_t = _lattice((0, 0, w)), h_t * damp
    if not ws.param.is_high:
        # d/ds of h(x) e^{-c x} is 2 s (h'(x) - c h(x)) e^{-c x}.
        core = _xp_eval(_xp_dx(h), x) - c * h_t
        return u, _lattice((0, -1, 2.0 * _J * w)), u_t, 2.0 * ws.s_t * core * damp
    g = _lop_poly(h, c, ws.param.alpha, 1.0, ws.nu)
    lop = _lattice((0, 0, _xp_mul(g, decay)[..., :_INNER_TERMS]))
    return u, lop, u_t, _xp_eval(g, x) * damp


def _closed_energies(h: np.ndarray, c: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Exact gamma-function energies of the perturbation rows (h, c) in x = s^2, one per row.

    The integrand of the form on row i is poly_i(x) e^{-2 c_i x} s^(1 - beta),
    x = s^2, so the energy is sum_j poly_i[j] Gamma(s_j) / (2 (2 c_i)^s_j)
    with s_j = j + 1 - beta / 2.
    """
    hh = _xp_mul(h, h)
    if ws.param.is_high:
        g = _lop_poly(h, c, ws.param.alpha, 1.0, ws.nu)
        poly = _xp_mul(g, g)
        poly[..., : hh.shape[-1]] -= 4.0 * hh
    else:
        core = -c * h
        core[..., :3] += _xp_dx(h)
        poly = np.zeros(hh.shape[:-1] + (hh.shape[-1] + 2,))
        poly[..., 1:-1] += 4.0 * _xp_mul(core, core)
        poly[..., :-2] += ws.nu * hh
        poly[..., 1:-1] += hh
    two_c = 2.0 * c[..., 0]
    weight_exp = 1.0 - ws.beta
    total = np.zeros(hh.shape[:-1])
    for j in range(poly.shape[-1]):
        s = j + (weight_exp + 1.0) / 2.0
        total += 0.5 * poly[..., j] * gamma_fn(s) / two_c**s
    return total


def trace_equality_check(param: GammaParam, modes) -> list[float]:
    """Relative gap between the quadrature energy at unit data and its closed spectral value.

    `modes` share one level 2k + n; one gap comes back per mode.
    """
    if not modes:
        return []
    _level_of(modes)
    out = []
    for mode in modes:
        with _read_at(param, mode):
            targets = _normal(*boundary_targets(param, mode))
        got = mode_energy(param, mode, (1.0,) * len(targets))
        out.append(abs(got / sum(targets) - 1.0))
    return out


def dirichlet_principle_check(
    param: GammaParam, modes, seed: int = 0, count: int = 20
) -> list[tuple[float, float]]:
    """Strict second-order excess for seeded admissible perturbations.

    `modes` share one level 2k + n.  Returns, per mode, (worst relative
    error of E(U + tW) - E(U) = t^2 E(W), smallest perturbation energy); the
    principle requires the first to be numerical zero and the second to be
    strictly positive.  Both are homogeneous in the dilation (lam^gamma > 0
    leaves the sign of E(W)), so the check runs at unit frequency: each mode
    draws its rows in s under a seed that names it, U has the data (1, 0.6)
    above order 1 and (1,) below it, and the shifted energies of all the
    level's rows are one row-wise pairing.
    """
    if not modes:
        return []
    ws = _workspace(param.gamma, _level_of(modes))
    drawn = [
        _draw_perturbations(
            random.Random(f"dirichlet:{seed}:{param.gamma}:{mode.lam}:{mode.k}:{mode.n}"), count
        )
        for mode in modes
    ]
    h, c, t = (np.concatenate(field) for field in zip(*drawn))
    d = np.array((1.0, 0.6) if param.is_high else (1.0,))
    e_base = float(d @ _basis_form(ws) @ d)
    e_w = _closed_energies(h, c, ws)
    parts = _perturbation_parts(h, c, ws)
    shifted = tuple(b + t[:, None] * w for b, w in zip(_combine(d, ws.basis), parts))
    e_shift = _pairing(ws, _grams(ws), shifted, shifted) + float(d @ ws.boundary @ d)
    gap = np.abs(e_shift - e_base - t * t * e_w) / (np.abs(e_base) + t * t * np.abs(e_w))
    return [
        (float(np.max(g)), float(np.min(e)))
        for g, e in zip(np.split(gap, len(modes)), np.split(e_w, len(modes)))
    ]


def q_symmetry_check(param: GammaParam, modes, seed: int = 0, count: int = 20) -> list[float]:
    """Symmetry and boundary representation of the polarized form Q.

    `modes` share one level 2k + n.  The 2x2 matrix of Q over the
    boundary-data basis is built once by quadrature at unit frequency and
    read at each mode's lam through the dilation law, lam^gamma D Q D with
    D = diag(1, lam^-alpha).  Per mode it is compared against its transpose
    and against the diagonal closed form from the two constants, then
    seeded data pairs sweep all three.  Returns the worst normalized
    discrepancy per mode.
    """
    if not param.is_high:
        raise ValueError("the polarized form lives in the range gamma in (1, 2)")
    if not modes:
        return []
    unit = _basis_form(_workspace(param.gamma, _level_of(modes)))

    def form(matrix, x, y):
        return np.sum((x @ matrix) * y, axis=1)

    out = []
    for mode in modes:
        rng = random.Random(f"qsym:{seed}:{param.gamma}:{mode.lam}:{mode.k}:{mode.n}")
        # Pair by pair in draw order: du then dv, two components each.
        drawn = np.array([rng.uniform(-1, 1) for _ in range(4 * count)]).reshape(count, 4)
        du, dv = drawn[:, :2], drawn[:, 2:]
        with _read_at(param, mode):
            factor, d = _dilation(param, abs(mode.lam), (1.0, 1.0))
            measured = factor * (d[:, None] * unit * d)
            closed = np.diag(_normal(*boundary_targets(param, mode)))
            scale = form(np.abs(measured) + np.abs(closed), np.abs(du), np.abs(dv)) + 1e-300
            q_uv = form(measured, du, dv)
            errors = np.abs([q_uv - form(measured, dv, du), q_uv - form(closed, du, dv)]) / scale
        out.append(worst_error(errors.ravel()))
    return out
