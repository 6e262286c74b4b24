"""Mode-wise extension solver on the half-line rho > 0.

Separation of variables reduces the weighted extension problem, mode by
mode, to the second-order equation

    u'' + (1 - 2 gamma') rho^-1 u' - (lam^2 rho^2 + nu) u = 0

with indicial exponents 0 and 2 gamma' at rho = 0.  The substitution
w = |lam| rho^2, u = e^{-w/2} g(w) turns it into Kummer's equation with
a = (1 - gamma' + 2k + n)/2 and b = 1 - gamma', so the decaying solution is
an explicit U-function; `ModeSolution` wraps it, normalized to boundary
value 1, with derivatives of any order up to four through the contiguous
ladder U' = -a U(a+1, b+1, .).  Its rho^(2 gamma') expansion coefficient
c1, a pure gamma-ratio, carries the Dirichlet-to-Neumann datum -2 gamma' c1.

`fit_boundary_expansion` recovers the same number without touching the
closed form: an inward Riccati integration of r = u'/u from deep in the
decay region, followed by a least-squares split of the recovered profile
into the two Frobenius branches near the boundary.  It takes a whole batch
of (order, mode) pairs and integrates them as one stacked system in the
normalized variable x = rho / rho_max, so a batch costs one ODE solve
however many modes it holds; since the step size then follows the hardest
pair, a fit's last digits depend on its batch (and are deterministic for a
given batch).  Closed and numeric paths share no formulas past the ODE
itself, which is what makes the comparison a test; `verify_dtn_theorem` and
`verify_fourth_constants` grade the closed form by default and a fit when
one is passed.

Orders gamma in (1, 2) are handled by `FourthOrderMode`: the fourth-order
mode equation factors through the weight-alpha second-order operator
(alpha = gamma - 1), and its decaying solutions are the span of W1, the
order-(1+alpha) solution, and rho^(2 alpha) W2 with W2 the order-(1-alpha)
solution.  The four boundary functionals then act on the Frobenius data
(a0, a1, b0, b1), each seeing exactly one of the two boundary data, and the
closed forms of the resulting constants are checked against the spectral
symbol elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb
from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp

from .special import gamma_fn, kummer_u_batch
from .spectral import GammaParam, ModeIndex, gjms_symbol, mode_eigenvalue, theorem_constant

__all__ = [
    "frobenius_series",
    "ModeSolution",
    "FourthOrderMode",
    "NumericFit",
    "fit_boundary_expansion",
    "verify_dtn_theorem",
    "verify_fourth_constants",
    "exclusion_residuals",
    "eval_boundary_ops",
    "FIT_POINTS",
    "SERIES_TERMS",
]

FIT_POINTS = 12
SERIES_TERMS = 40


def _validate_order(order: float) -> None:
    if not (0.0 < float(order) < 2.0) or float(order).is_integer():
        raise ValueError(f"extension order must lie in (0, 2) minus {{1}}, got {order}")


def frobenius_series(order, nu, lam_sq, nterms: int = SERIES_TERMS):
    """Coefficients of the two boundary branches, in plain arithmetic.

    Returns (a, b) with u_reg = sum a_j rho^(2j) and the singular branch
    rho^(2 order) * sum b_j rho^(2j); a_0 = b_0 = 1 and

        a_j = (nu a_{j-1} + lam_sq a_{j-2}) / (4 j (j - order)),
        b_j = (nu b_{j-1} + lam_sq b_{j-2}) / (4 j (j + order)).

    The arithmetic follows the argument types, so Fraction inputs give exact
    rational coefficients.
    """
    _validate_order(float(order))
    a = [nu * 0 + 1]
    b = [nu * 0 + 1]
    for j in range(1, nterms):
        tail_a = a[j - 2] if j >= 2 else 0
        tail_b = b[j - 2] if j >= 2 else 0
        a.append((nu * a[j - 1] + lam_sq * tail_a) / (4 * j * (j - order)))
        b.append((nu * b[j - 1] + lam_sq * tail_b) / (4 * j * (j + order)))
    return a, b


def _u_ladder(a: float, b: float, w: np.ndarray, upto: int) -> list[np.ndarray]:
    """Derivatives of U(a, b, .) at w: U^(i) = (-1)^i (a)_i U(a+i, b+i, .).

    The rungs (a+i, b+i) go to one kummer_u_batch call, one row each.
    """
    rung = np.arange(upto + 1)
    values = kummer_u_batch(a + rung, b + rung, w)
    out = []
    poch = 1.0
    for i in range(upto + 1):
        if i:
            poch *= a + i - 1
        out.append((-1.0) ** i * poch * values[i])
    return out


class ModeSolution:
    """Decaying solution of the order-gamma' mode equation, boundary value 1."""

    def __init__(self, order: float, mode: ModeIndex):
        _validate_order(order)
        self.order = float(order)
        self.mode = mode
        self.lam = abs(mode.lam)
        self.nu = mode_eigenvalue(mode)
        self.a = (1.0 - self.order + 2 * mode.k + mode.n) / 2.0
        self.b = 1.0 - self.order
        self.norm = gamma_fn(self.a + self.order) / gamma_fn(self.order)
        # rho^(2 gamma') expansion coefficient of the normalized solution.
        self.c1 = (
            gamma_fn(-self.order)
            * gamma_fn(self.a + self.order)
            / (gamma_fn(self.a) * gamma_fn(self.order))
            * self.lam**self.order
        )

    @property
    def dtn(self) -> float:
        """Dirichlet-to-Neumann datum of the normalized solution."""
        return -2.0 * self.order * self.c1

    def derivatives(self, rho: np.ndarray, upto: int = 2) -> list[np.ndarray]:
        """[u, u', u'', ...] at the given positive radii, up to order four."""
        if upto > 4:
            raise ValueError("derivative ladder implemented through order four")
        rho = np.asarray(rho, dtype=float)
        w = self.lam * rho**2
        wp = 2.0 * self.lam * rho
        wpp = 2.0 * self.lam
        ladder = _u_ladder(self.a, self.b, w, upto)
        damp = np.exp(-w / 2.0)
        # f = e^{-w/2} U as a function of w; chain rule with w'' constant.
        f = [
            damp
            * sum(comb(m, i) * (-0.5) ** (m - i) * ladder[i] for i in range(m + 1))
            for m in range(upto + 1)
        ]
        out = [self.norm * f[0]]
        if upto >= 1:
            out.append(self.norm * f[1] * wp)
        if upto >= 2:
            out.append(self.norm * (f[2] * wp**2 + f[1] * wpp))
        if upto >= 3:
            out.append(self.norm * (f[3] * wp**3 + 3.0 * f[2] * wp * wpp))
        if upto >= 4:
            out.append(
                self.norm * (f[4] * wp**4 + 6.0 * f[3] * wp**2 * wpp + 3.0 * f[2] * wpp**2)
            )
        return out

    def value(self, rho) -> np.ndarray:
        return self.derivatives(rho, upto=0)[0]

    def deriv(self, rho) -> np.ndarray:
        return self.derivatives(rho, upto=1)[1]


class NumericFit(NamedTuple):
    c0: float
    c1: float
    dtn: float
    fit_residual: float


def _fit_grid(lam: float, nu: float) -> np.ndarray:
    top = min(0.75, 0.7 / math.sqrt(lam), 1.7 / math.sqrt(nu))
    return top * 2.0 ** (-np.arange(FIT_POINTS) / 2.0)


def fit_boundary_expansion(pairs, rtol: float = 1e-11) -> list[NumericFit]:
    """Recover (c0, c1) of each decaying solution by ODE integration alone.

    `pairs` is a sequence of (order, mode); one NumericFit comes back per
    pair, in order.  Each pair integrates the Riccati form
    r' = -r^2 + (2 gamma' - 1) r / rho + lam^2 rho^2 + nu, together with
    (log u)' = r, inward from deep inside its Gaussian decay region at
    rho_max, where r = u'/u = -lam rho - 2a/rho + o(1) is insensitive to the
    choice of solution (errors contract like the square of the decay
    factor).  In the normalized variable x = rho / rho_max every pair starts
    at x = 1, so all of them are stacked into one DOP853 system on the
    shared interval [x_end, 1], x_end the smallest scaled fit point.  The
    profiles are read off at the sorted union of the scaled dyadic grids,
    and each pair's log-profile is split over its two Frobenius branches by
    least squares on its own grid near the boundary.

    The step size is set by the hardest pair of the batch, so a fit's last
    digits depend on which pairs share its batch; for a given batch the
    result is deterministic.
    """
    setups = []
    for gam, mode in pairs:
        _validate_order(gam)
        lam = abs(mode.lam)
        nu = mode_eigenvalue(mode)
        a = (1.0 - gam + 2 * mode.k + mode.n) / 2.0
        w_max = max(50.0, 10.0 * (a + gam + 1.0))
        rho_max = math.sqrt(w_max / lam)
        setups.append((float(gam), lam, nu, a, rho_max, _fit_grid(lam, nu)))
    if not setups:
        return []
    count = len(setups)
    order, lam, nu, a, rho_max = map(np.array, list(zip(*setups))[:5])

    # d/dx of (r, log u) at rho = rho_max x is rho_max times d/drho.
    drift = 2.0 * order - 1.0
    well = lam * lam * rho_max**3
    shift = nu * rho_max

    def rhs(x, y):
        r = y[:count]
        return np.concatenate(
            (-rho_max * r * r + drift * r / x + well * x * x + shift, rho_max * r)
        )

    scaled = [grid / top for *_, top, grid in setups]
    ascending = np.unique(np.concatenate(scaled))
    start = np.concatenate((-lam * rho_max - 2.0 * a / rho_max, np.zeros(count)))
    sol = solve_ivp(
        rhs,
        (1.0, float(ascending[0])),
        start,
        t_eval=ascending[::-1],
        method="DOP853",
        rtol=rtol,
        atol=1e-13,
    )
    if not sol.success:
        raise RuntimeError(f"inward integration failed: {sol.message}")

    log_profiles = sol.y[count:, ::-1]  # columns follow `ascending`
    fits = []
    for i, (gam, lam_i, nu_i, _, _, grid) in enumerate(setups):
        log_u = log_profiles[i, np.searchsorted(ascending, scaled[i])]
        u = np.exp(log_u - np.max(log_u))

        coeff_a, coeff_b = frobenius_series(gam, nu_i, lam_i * lam_i)
        powers = grid[:, None] ** (2 * np.arange(SERIES_TERMS)[None, :])
        col_reg = powers @ np.asarray(coeff_a)
        col_sing = grid ** (2.0 * gam) * (powers @ np.asarray(coeff_b))
        design = np.stack([col_reg, col_sing], axis=1)
        (c0, c1), *_ = np.linalg.lstsq(design, u, rcond=None)
        resid = float(np.max(np.abs(design @ np.array([c0, c1]) - u)) / np.max(np.abs(u)))
        fits.append(NumericFit(float(c0), float(c1), -2.0 * gam * float(c1) / float(c0), resid))
    return fits


def verify_dtn_theorem(
    param: GammaParam, mode: ModeIndex, fit: NumericFit | None = None
) -> float:
    """Relative error of DtN = constant * symbol for gamma in (0, 1).

    Without `fit` the DtN datum comes from the closed form; given the
    NumericFit of (gamma, mode), that fit is graded instead.
    """
    if param.is_high:
        raise ValueError("the single-constant identity applies below order 1 only")
    g = param.gamma
    dtn = ModeSolution(g, mode).dtn if fit is None else fit.dtn
    target = theorem_constant(param) * gjms_symbol(g, mode)
    return abs(dtn / target - 1.0)


class FourthOrderMode:
    """Decaying solution at order gamma in (1, 2) with boundary data (phi, psi).

    Assembled as phi * W1 + (-psi / (2 alpha)) * rho^(2 alpha) W2 where W1 and
    W2 are the normalized second-order solutions at orders 1 + alpha and
    1 - alpha.  Applying the weight-alpha operator to either piece costs one
    derivative, not two:

        Lop W1 = 2 rho^-1 W1',    Lop(rho^(2 alpha) W2) = 2 rho^(2 alpha - 1) W2',

    which this class uses for stable evaluation; the honest second-derivative
    route is exercised in the tests instead.  `assemble` holds both formulas.
    """

    def __init__(self, param: GammaParam, mode: ModeIndex, phi: float = 1.0, psi: float = 0.0):
        if not param.is_high:
            raise ValueError("fourth-order assembly requires gamma in (1, 2)")
        self.param = param
        self.mode = mode
        self.alpha = param.alpha
        self.lam = abs(mode.lam)
        self.nu = mode_eigenvalue(mode)
        self.phi = float(phi)
        self.psi = float(psi)
        self.w1 = ModeSolution(1.0 + self.alpha, mode)
        self.w2 = ModeSolution(1.0 - self.alpha, mode)
        self.coef_a = self.phi
        self.coef_b = -self.psi / (2.0 * self.alpha)

    # Frobenius data of the assembled solution: the regular branch carries
    # (a0, a1) at rho^0, rho^2 and the singular branch (b0, b1) at
    # rho^(2 alpha), rho^(2 alpha + 2).  Each second-order factor feeds the
    # other branch through its own expansion coefficient.

    @property
    def a0(self) -> float:
        return self.coef_a

    @property
    def a1(self) -> float:
        return self.coef_a * (-self.nu / (4.0 * self.alpha)) + self.coef_b * self.w2.c1

    @property
    def b0(self) -> float:
        return self.coef_b

    @property
    def b1(self) -> float:
        return self.coef_a * self.w1.c1 + self.coef_b * (self.nu / (4.0 * self.alpha))

    def assemble(self, rho, d1, d2, upto: int):
        """([u, ..., u^(upto)], Lop u) from the lists [W, W', ...] of W1 and W2 at rho.

        Lop is None when the lists hold values only.  The energy workspaces
        pass cached lists here, so the formulas are written once.
        """
        al = self.alpha
        out = []
        for m in range(upto + 1):
            # Leibniz for rho^(2 alpha) W2.
            sing = sum(
                comb(m, i)
                * np.prod([2 * al - j for j in range(m - i)])
                * rho ** (2 * al - (m - i))
                * d2[i]
                for i in range(m + 1)
            )
            out.append(self.coef_a * d1[m] + self.coef_b * sing)
        if len(d1) < 2:
            return out, None
        lop = 2.0 * self.coef_a * d1[1] / rho + 2.0 * self.coef_b * rho ** (2.0 * al - 1.0) * d2[1]
        return out, lop

    def derivatives(self, rho, upto: int = 2) -> list[np.ndarray]:
        rho = np.asarray(rho, dtype=float)
        d1 = self.w1.derivatives(rho, upto)
        d2 = self.w2.derivatives(rho, upto)
        return self.assemble(rho, d1, d2, upto)[0]

    def value(self, rho) -> np.ndarray:
        return self.derivatives(rho, upto=0)[0]

    def lop(self, rho) -> np.ndarray:
        """Weight-alpha second-order operator applied to the solution."""
        rho = np.asarray(rho, dtype=float)
        return self.assemble(rho, self.w1.derivatives(rho, 1), self.w2.derivatives(rho, 1), 0)[1]


def eval_boundary_ops(fourth: FourthOrderMode) -> dict[str, float]:
    """The four boundary functionals, evaluated on the Frobenius data."""
    al = fourth.alpha
    nu = fourth.nu
    return {
        "dirichlet": fourth.a0,
        "second": -4.0 * (1.0 - al) * fourth.a1 - ((1.0 - al) / al) * nu * fourth.a0,
        "fractional": -2.0 * al * fourth.b0,
        "conormal": 8.0 * al * (1.0 + al) * fourth.b1 - 2.0 * (1.0 + al) * nu * fourth.b0,
    }


def exclusion_residuals(param: GammaParam, mode: ModeIndex) -> tuple[float, float]:
    """How blind each Neumann-type functional is to the other datum.

    Returns normalized magnitudes of (conormal on pure-psi data, second on
    pure-phi data); both vanish identically in exact arithmetic.
    """
    al = param.alpha
    nu = mode_eigenvalue(mode)

    pure_psi = FourthOrderMode(param, mode, phi=0.0, psi=1.0)
    ops = eval_boundary_ops(pure_psi)
    scale = 8.0 * al * (1.0 + al) * abs(pure_psi.b1) + 2.0 * (1.0 + al) * nu * abs(
        pure_psi.b0
    )
    res_conormal = abs(ops["conormal"]) / scale

    pure_phi = FourthOrderMode(param, mode, phi=1.0, psi=0.0)
    ops = eval_boundary_ops(pure_phi)
    scale = 4.0 * (1.0 - al) * abs(pure_phi.a1) + ((1.0 - al) / al) * nu * abs(pure_phi.a0)
    res_second = abs(ops["second"]) / scale
    return res_conormal, res_second


def verify_fourth_constants(
    param: GammaParam, mode: ModeIndex, fits: tuple[NumericFit, NumericFit] | None = None
) -> tuple[float, float]:
    """Relative errors of the two constant identities for gamma in (1, 2).

    The conormal functional on pure Dirichlet data must equal c_phi times
    the order-gamma symbol; the second-trace functional on pure fractional
    data must equal c_psi times the order-(2-gamma) symbol.  Without `fits`
    the expansion coefficients of W1 and W2 come from the closed form; given
    the NumericFits of (1 + alpha, mode) and (1 - alpha, mode), in that
    order, those fits are graded instead.
    """
    if not param.is_high:
        raise ValueError("the paired identity applies above order 1 only")
    al = param.alpha
    if fits is None:
        c1_w1 = ModeSolution(1.0 + al, mode).c1
        c1_w2 = ModeSolution(1.0 - al, mode).c1
    else:
        fit1, fit2 = fits
        c1_w1 = fit1.c1 / fit1.c0
        c1_w2 = fit2.c1 / fit2.c0

    c_phi, c_psi = theorem_constant(param)

    # conormal on (phi, psi) = (1, 0): 8 alpha (1 + alpha) c1_w1
    got_phi = 8.0 * al * (1.0 + al) * c1_w1
    want_phi = c_phi * gjms_symbol(param.gamma, mode)
    err_phi = abs(got_phi / want_phi - 1.0)

    # second trace on (phi, psi) = (0, 1): -4 (1 - alpha) c1_w2 * (-1 / (2 alpha))
    got_psi = 2.0 * (1.0 - al) / al * c1_w2
    want_psi = c_psi * gjms_symbol(2.0 - param.gamma, mode)
    err_psi = abs(got_psi / want_psi - 1.0)
    return err_phi, err_psi
