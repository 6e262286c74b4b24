"""Mode-wise extension solver on the half-line rho > 0.

Separation of variables reduces the weighted extension problem, mode by
mode, to the second-order equation

    u'' + (1 - 2 gamma') rho^-1 u' - (lam^2 rho^2 + nu) u = 0

with indicial exponents 0 and 2 gamma' at rho = 0.  The substitution
w = |lam| rho^2, u = e^{-w/2} g(w) turns it into Kummer's equation with
a = (1 - gamma' + 2k + n)/2 and b = 1 - gamma', so the decaying solution is
an explicit U-function; `ModeSolution` wraps it, normalized to boundary
value 1, with derivatives of any order up to four through the contiguous
ladder U' = -a U(a+1, b+1, .).  `mode_derivatives` evaluates several
solutions at the same dilation-free radii s = sqrt(|lam|) rho: w = s^2
whatever lam, so the distinct rungs of every ladder go to one U batch, and
each solution applies only its own norm and w' = 2 sqrt(|lam|) s.
`ModeSolution.derivatives` is its one-solution case.  Its rho^(2 gamma')
expansion coefficient c1, a pure gamma-ratio, carries the
Dirichlet-to-Neumann datum -2 gamma' c1.

`fit_boundary_expansion` recovers the same number without touching the
closed form: an inward Riccati integration of r = u'/u from deep in the
decay region down to one matching point near the boundary, where r alone
fixes the ratio of the two Frobenius branches.  Each pair starts at
w = |lam| rho^2 = max(50, 2a + 40), the turning point plus 40 e-folds, and
matches at w = min(1, 2.89 |lam| / nu), which depends on the level only.
Inward the Riccati flow contracts, damping an error in r by the squared
decay of u before it reaches the boundary, so a loose deep leg carries r
down to where the first pair reaches w = 10, and a tight fit leg carries it
from there to the matching points.  A whole batch of (order, mode) pairs
is one stacked system in a shared parameter tau in [0, 1], two ODE solves
however many modes it holds; since the step size follows the hardest pair,
a fit's last digits depend on its batch (and are deterministic for a given
batch).  Closed and numeric paths share no formulas past the ODE itself,
which is what makes the comparison a test; `verify_dtn_theorem` and
`verify_fourth_constants` grade the closed form by default and a fit when
one is passed.

Orders gamma in (1, 2) are handled by `FourthOrderMode`: the fourth-order
mode equation factors through the weight-alpha second-order operator
(alpha = gamma - 1), and its decaying solutions are the span of W1, the
order-(1+alpha) solution, and rho^(2 alpha) W2 with W2 the order-(1-alpha)
solution.  `fourth_order_data` reads the Frobenius data (a0, a1, b0, b1) of
the solution with boundary data (phi, psi) off the c1 of W1 and W2, and
`boundary_functionals` is the one statement of the four boundary functionals
on them, which the constant checks and the exclusion check both read.
"""

from __future__ import annotations

import math
from math import comb
from typing import NamedTuple, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .special import gamma_fn, kummer_u_batch
from .spectral import GammaParam, ModeIndex, boundary_targets, kummer_a, mode_eigenvalue

__all__ = [
    "frobenius_series",
    "ModeSolution",
    "mode_derivatives",
    "FourthOrderMode",
    "NumericFit",
    "fit_boundary_expansion",
    "verify_dtn_theorem",
    "verify_fourth_constants",
    "exclusion_residuals",
    "fourth_order_data",
    "boundary_functionals",
    "SERIES_TERMS",
]

SERIES_TERMS = 40
# w = lam rho^2 where the first pair of a boundary fit batch leaves the loose
# deep leg for the tight fit leg.
_SETTLED_W = 10.0


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


def mode_derivatives(solutions: Sequence[ModeSolution], s, upto: int = 2) -> list:
    """[u, u', ..., u^(upto)] in rho of each ModeSolution at rho = s / sqrt(lam).

    s = sqrt(lam) rho is the dilation-free radius: w = lam rho^2 = s^2 holds
    for every lam, so one kummer_u_batch call on w = s^2 over the distinct
    rungs (a + i, b + i), i <= upto, serves every solution, whatever its lam.
    Each distinct (a, b) then takes its derivatives in w through the
    contiguous ladder U^(i) = (-1)^i (a)_i U(a + i, b + i, .), and each
    solution its own norm and the chain rule with w' = 2 sqrt(lam) s,
    w'' = 2 lam; a list's bits do not depend on the other solutions of the
    batch.
    """
    if upto > 4:
        raise ValueError("derivative ladder implemented through order four")
    s = np.asarray(s, dtype=float)
    w = s * s
    keys = list(dict.fromkeys((sol.a, sol.b) for sol in solutions))
    rungs = np.array([(a + i, b + i) for a, b in keys for i in range(upto + 1)])
    values = kummer_u_batch(rungs[:, 0], rungs[:, 1], w)
    damp = np.exp(-w / 2.0)
    in_w = {}
    for (a, b), rows in zip(keys, np.split(values, len(keys))):
        ladder = []
        poch = 1.0
        for i in range(upto + 1):
            if i:
                poch *= a + i - 1
            ladder.append((-1.0) ** i * poch * rows[i])
        # f = e^{-w/2} U as a function of w.
        in_w[a, b] = [
            damp * sum(comb(m, i) * (-0.5) ** (m - i) * ladder[i] for i in range(m + 1))
            for m in range(upto + 1)
        ]
    out = []
    for sol in solutions:
        f = in_w[sol.a, sol.b]
        # Chain rule with w'' constant.
        wp = 2.0 * math.sqrt(sol.lam) * s
        wpp = 2.0 * sol.lam
        norm = sol.norm
        derivs = [norm * f[0]]
        if upto >= 1:
            derivs.append(norm * f[1] * wp)
        if upto >= 2:
            derivs.append(norm * (f[2] * wp**2 + f[1] * wpp))
        if upto >= 3:
            derivs.append(norm * (f[3] * wp**3 + 3.0 * f[2] * wp * wpp))
        if upto >= 4:
            derivs.append(norm * (f[4] * wp**4 + 6.0 * f[3] * wp**2 * wpp + 3.0 * f[2] * wpp**2))
        out.append(derivs)
    return out


class ModeSolution:
    """Decaying solution of the order-gamma' mode equation, boundary value 1.

    OverflowError names the mode where Gamma(a + gamma') overflows, past 171.6.
    """

    def __init__(self, order: float, mode: ModeIndex):
        _validate_order(order)
        self.order = float(order)
        self.mode = mode
        self.lam = abs(mode.lam)
        self.nu = mode_eigenvalue(mode)
        self.a = kummer_a(self.order, mode)
        self.b = 1.0 - self.order
        try:
            rise = gamma_fn(self.a + self.order)
        except OverflowError as exc:
            raise OverflowError(
                f"Gamma({self.a + self.order:g}) of the closed form of order {self.order:g} at "
                f"lambda = {mode.lam:g}, k = {mode.k}, n = {mode.n} leaves double range"
            ) from exc
        self.norm = rise / gamma_fn(self.order)
        # rho^(2 gamma') expansion coefficient of the normalized solution.
        self.c1 = (
            gamma_fn(-self.order) * rise / (gamma_fn(self.a) * gamma_fn(self.order))
            * self.lam**self.order
        )

    @property
    def dtn(self) -> float:
        """Dirichlet-to-Neumann datum of the normalized solution."""
        return -2.0 * self.order * self.c1

    def derivatives(self, rho: np.ndarray, upto: int = 2) -> list[np.ndarray]:
        """[u, u', u'', ...] at the given positive radii, up to order four."""
        return mode_derivatives([self], math.sqrt(self.lam) * np.asarray(rho, dtype=float), upto)[0]


class NumericFit(NamedTuple):
    c1: float
    dtn: float


def fit_boundary_expansion(pairs) -> list[NumericFit]:
    """Recover c1 of each decaying solution by ODE integration alone.

    `pairs` is a sequence of (order, mode); one NumericFit comes back per
    pair, in order.  Each pair integrates the Riccati form
    r' = -r^2 + (2 gamma' - 1) r / rho + lam^2 rho^2 + nu of r = u'/u
    inward from rho_max, where w = lam rho^2 is w_max = max(50, 2a + 40) and
    r starts at its asymptote -lam rho - 2a/rho, down to the matching point
    rho_m = min(1/sqrt(lam), 1.7/sqrt(nu)), where w_m = min(1, 2.89 lam/nu)
    depends on the level 2k + n only.  Inward the flow contracts: an error
    in r at w is damped by (u(w) / u(w'))^2 before it reaches w' < w, so
    neither the start nor the deep stretch need be tight.  Pair i runs
    rho = rho_max + tau (rho_m - rho_max) over tau in [0, 1], and the batch
    is one stacked DOP853 system in two legs, neither with output points:
    a deep leg at rtol 1e-7 up to the tau where the first pair reaches
    w = 10, and a fit leg at rtol 1e-12 on to tau = 1.

    With u = c0 f_reg + c1 f_sing over the two Frobenius branches, u'/u = r
    at rho_m gives c1 / c0 = (f_reg' - r f_reg) / (r f_sing - f_sing'); the
    fit reports that ratio as c1, normalized to c0 = 1 like ModeSolution.
    The branches are summed in rho before either leg runs; where a pair's
    leave double range (rho_m^(2j) at small lam, the coefficients, which
    grow with lam^2, at large lam), OverflowError names the first such pair.
    """
    setups = []
    for gam, mode in pairs:
        _validate_order(gam)
        lam = abs(mode.lam)
        nu = mode_eigenvalue(mode)
        a = kummer_a(gam, mode)
        rho_max = math.sqrt(max(50.0, 2.0 * a + 40.0) / lam)
        rho_m = min(1.0 / math.sqrt(lam), 1.7 / math.sqrt(nu))
        setups.append((float(gam), lam, nu, a, rho_max, rho_m))
    if not setups:
        return []
    order, lam, nu, a, rho_max, rho_m = map(np.array, zip(*setups))

    series = [frobenius_series(gam, nu_i, lam_i * lam_i) for gam, lam_i, nu_i, *_ in setups]
    coeff_a, coeff_b = (np.array(branch) for branch in zip(*series))
    at = rho_m[:, None]

    def branch(coeff, powers):
        """A Frobenius branch and its rho-derivative at rho_m."""
        value = np.sum(coeff * at**powers, axis=1)
        return value, np.sum(powers * coeff * at ** (powers - 1), axis=1)

    twice_j = 2.0 * np.arange(SERIES_TERMS)
    with np.errstate(over="ignore", invalid="ignore"):
        f_reg, f_reg_d = branch(coeff_a, twice_j)
        f_sing, f_sing_d = branch(coeff_b, twice_j + 2.0 * order[:, None])
    finite = np.isfinite([f_reg, f_reg_d, f_sing, f_sing_d]).all(axis=0)
    if not finite.all():
        gam, mode = pairs[int(np.argmin(finite))]
        raise OverflowError(
            f"the Frobenius branches of order {gam:g} at lambda = {mode.lam:g}, k = {mode.k}, "
            f"n = {mode.n} leave double range at the matching point"
        )

    # d/dtau of r at rho = rho_max + tau span is span times d/drho.
    span = rho_m - rho_max
    drift = 2.0 * order - 1.0
    well = lam * lam

    def riccati(tau, r):
        rho = rho_max + tau * span
        return span * (r * (drift / rho - r) + (well * (rho * rho) + nu))

    split = float(np.min((rho_max - np.sqrt(_SETTLED_W / lam)) / (rho_max - rho_m)))
    deep = solve_ivp(
        riccati,
        (0.0, split),
        -lam * rho_max - 2.0 * a / rho_max,
        method="DOP853",
        rtol=1e-7,
        atol=1e-13,
    )
    if not deep.success:
        raise RuntimeError(f"inward integration failed: {deep.message}")
    sol = solve_ivp(riccati, (split, 1.0), deep.y[:, -1], method="DOP853", rtol=1e-12, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"inward integration failed: {sol.message}")

    r = sol.y[:, -1]
    c1 = (f_reg_d - r * f_reg) / (r * f_sing - f_sing_d)
    dtn = -2.0 * order * c1
    return [NumericFit(*row) for row in zip(c1.tolist(), dtn.tolist())]


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
    (target,) = boundary_targets(param, mode)
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
        self.alpha = param.alpha
        self.nu = mode_eigenvalue(mode)
        self.w1, self.w2 = (ModeSolution(order, mode) for order in param.orders)
        c1s = (self.w1.c1, self.w2.c1)
        self.a0, self.a1, self.b0, self.b1 = fourth_order_data(self.alpha, self.nu, c1s, phi, psi)

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
            out.append(self.a0 * d1[m] + self.b0 * sing)
        if len(d1) < 2:
            return out, None
        lop = 2.0 * self.a0 * d1[1] / rho + 2.0 * self.b0 * rho ** (2.0 * al - 1.0) * d2[1]
        return out, lop

    def derivatives(self, rho, upto: int = 2) -> list[np.ndarray]:
        rho = np.asarray(rho, dtype=float)
        d1, d2 = mode_derivatives([self.w1, self.w2], math.sqrt(self.w1.lam) * rho, upto)
        return self.assemble(rho, d1, d2, upto)[0]

    def lop(self, rho) -> np.ndarray:
        """Weight-alpha second-order operator applied to the solution."""
        rho = np.asarray(rho, dtype=float)
        d1, d2 = mode_derivatives([self.w1, self.w2], math.sqrt(self.w1.lam) * rho, 1)
        return self.assemble(rho, d1, d2, 0)[1]


def fourth_order_data(alpha: float, nu: float, c1s, phi: float, psi: float) -> tuple:
    """Frobenius data (a0, a1, b0, b1) of phi W1 - (psi / (2 alpha)) rho^(2 alpha) W2.

    (a0, a1) sit at rho^0, rho^2 and (b0, b1) at rho^(2 alpha), rho^(2 alpha + 2);
    each of W1, W2 feeds the other branch through its c1, in `c1s`.
    """
    a0, b0 = float(phi), -float(psi) / (2.0 * alpha)
    c1_w1, c1_w2 = c1s
    return a0, a0 * (-nu / (4.0 * alpha)) + b0 * c1_w2, b0, a0 * c1_w1 + b0 * (nu / (4.0 * alpha))


def boundary_functionals(alpha: float, nu: float, data) -> dict[str, tuple[float, float]]:
    """The four boundary functionals on Frobenius data, each as two terms.

    A functional's value is the first term minus the second, and the sum of
    their magnitudes is the scale its cancellation is measured against.
    """
    a0, a1, b0, b1 = data
    return {
        "dirichlet": (a0, 0.0),
        "second": (-4.0 * (1.0 - alpha) * a1, (1.0 - alpha) / alpha * nu * a0),
        "fractional": (-2.0 * alpha * b0, 0.0),
        "conormal": (8.0 * alpha * (1.0 + alpha) * b1, 2.0 * (1.0 + alpha) * nu * b0),
    }


def _unit_data_functionals(param: GammaParam, mode: ModeIndex, fits=None) -> list[dict]:
    """`boundary_functionals` on data (phi, psi) = (1, 0), then (0, 1), from closed or fitted c1."""
    if not param.is_high:
        raise ValueError("the fourth-order functionals apply above order 1 only")
    if fits is None:
        c1s = [ModeSolution(order, mode).c1 for order in param.orders]
    else:
        c1s = [fit.c1 for fit in fits]
    al, nu = param.alpha, mode_eigenvalue(mode)
    units = ((1.0, 0.0), (0.0, 1.0))
    return [boundary_functionals(al, nu, fourth_order_data(al, nu, c1s, *d)) for d in units]


def exclusion_residuals(param: GammaParam, mode: ModeIndex) -> tuple[float, float]:
    """How blind each Neumann-type functional is to the other datum.

    Returns normalized magnitudes of (conormal on pure-psi data, second on
    pure-phi data); both vanish identically in exact arithmetic.
    """
    pure_phi, pure_psi = _unit_data_functionals(param, mode)
    terms = (pure_psi["conormal"], pure_phi["second"])
    return tuple(abs(x - y) / (abs(x) + abs(y)) for x, y in terms)


def verify_fourth_constants(
    param: GammaParam, mode: ModeIndex, fits: Sequence[NumericFit] | None = None
) -> tuple[float, float]:
    """Relative errors of the two constant identities for gamma in (1, 2).

    The conormal functional on pure Dirichlet data must equal c_phi times
    the order-gamma symbol; the second-trace functional on pure fractional
    data must equal c_psi times the order-(2-gamma) symbol.  Without `fits`
    the closed form is graded; given the NumericFits of the pairs
    (order, mode) over `param.orders`, in that order, those fits are.
    """
    pure_phi, pure_psi = _unit_data_functionals(param, mode, fits)
    # The diagonal holds c_phi P_gamma and -c_psi P_(2-gamma).
    t_phi, t_psi = boundary_targets(param, mode)
    graded = ((pure_phi["conormal"], t_phi), (pure_psi["second"], -t_psi))
    return tuple(abs((x - y) / target - 1.0) for (x, y), target in graded)
