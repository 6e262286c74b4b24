"""Joint spectrum bookkeeping and the fractional-order symbol.

A mode is the pair (lambda, k) of a nonzero Fourier frequency in the central
direction and a Landau level k >= 0, at dimension parameter n >= 1.  The
sublaplacian here is normalized as half the sum of squares of the standard
horizontal fields (X_j = d/dx_j + 2 y_j d/dt, Y_j = d/dy_j - 2 x_j d/dt), and
on a mode it acts by the scalar

    nu = 2 |lambda| (2k + n).

`mode_eigenvalue_symbolic` rebuilds that scalar from scratch by applying
the vector fields to an explicit eigenfunction, so the normalization is
pinned down by calculus rather than by convention.  The calculus runs on
`opalg.Poly` over the Gaussian integers, a dict from exponent tuples to
nonzero coefficients; since zero terms are never stored, the dict is a
canonical form and the identity holds exactly when the residual has no
terms.  No computer algebra system is involved.

The fractional symbol of order gamma' in (0, 2) on a mode is

    P_gamma'(lambda, k) = (4|lambda|)^gamma' * Gamma(a + gamma') / Gamma(a),
    a = (1 - gamma' + 2k + n) / 2,

with a = `kummer_a`, also the Kummer parameter of the order-gamma' profile.
The extension at gamma factors through the second-order problems of the
`GammaParam.orders`, (gamma,) below 1 and (1 + alpha, 1 - alpha) above, and
`theorem_constant` returns the closed-form ratio between the extension
Dirichlet-to-Neumann map and the symbol: a single positive number for
gamma in (0, 1), and for gamma in (1, 2) the pair attached to the two
boundary weights, the second negative.  `boundary_targets`, the diagonal of
the minimal energy in the boundary data, is what every grader compares with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .opalg import GaussRat, Poly
from .special import gamma_fn

__all__ = [
    "ModeIndex",
    "GammaParam",
    "mode_eigenvalue",
    "mode_eigenvalue_symbolic",
    "kummer_a",
    "gjms_symbol",
    "theorem_constant",
    "boundary_targets",
]


@dataclass(frozen=True)
class ModeIndex:
    """One point (lambda, k) of the joint spectrum at dimension n."""

    lam: float
    k: int
    n: int

    def __post_init__(self):
        if not self.lam or not math.isfinite(self.lam):
            raise ValueError(f"central frequency must be finite and nonzero, got {self.lam}")
        if not isinstance(self.k, int) or self.k < 0:
            raise ValueError(f"level index must be a nonnegative integer, got {self.k}")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"dimension parameter must be a positive integer, got {self.n}")


@dataclass(frozen=True)
class GammaParam:
    """Fractional order gamma in (0, 2) excluding the local value 1."""

    gamma: float

    def __post_init__(self):
        g = self.gamma
        if not (0.0 < g < 2.0) or g == 1.0:
            raise ValueError(
                f"order gamma = {g} is outside the admissible range (0, 2) minus {{1}}"
            )

    @property
    def is_high(self) -> bool:
        return self.gamma > 1.0

    @property
    def alpha(self) -> float:
        """Fractional part of gamma."""
        return self.gamma - 1.0 if self.is_high else self.gamma

    @property
    def orders(self) -> tuple[float, ...]:
        """Orders of the second-order factors: (gamma,), or (1 + alpha, 1 - alpha) above 1."""
        return (1.0 + self.alpha, 1.0 - self.alpha) if self.is_high else (self.gamma,)


def mode_eigenvalue(mode: ModeIndex) -> float:
    """Scalar action of minus the sublaplacian on the mode."""
    return 2.0 * abs(mode.lam) * (2 * mode.k + mode.n)


def _halved(poly: Poly) -> Poly:
    """Exactly half a Gaussian polynomial; an even part stays an int, an odd
    one becomes a Fraction (the prefactor residual only has even parts)."""
    return Poly({exps: GaussRat(_half(c.re), _half(c.im)) for exps, c in poly.items()})


def _half(v):
    return v // 2 if isinstance(v, int) and v % 2 == 0 else Fraction(v, 2)


def _claimed_eigenvalue(k: int, n: int, lam: Poly) -> Poly:
    """The scalar that minus the sublaplacian is claimed to act by, for lam > 0."""
    return 2 * (2 * k + n) * lam


def mode_eigenvalue_symbolic(k: int, n: int, sign: int = 1) -> Poly:
    """Residual of the eigenvalue identity, built from the fields by calculus.

    The eigenfunction is u = P e^E with P = (x_1 - sign*i*y_1)^k and
    E = sign*i*lam*t - lam*|z|^2.  A field V acts on it through the product
    rule, V(Q e^E) = (V Q + Q V E) e^E, so half the sum of squared horizontal
    fields is applied to the polynomial prefactor only, and 2*lam*(2k+n) P is
    added back.  Returns that prefactor residual as a Poly over Z[i] in the
    variables
    (x_1..x_n, y_1..y_n, t, lam); the identity holds exactly when it has no
    terms, i.e. when it compares equal to 0.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not isinstance(k, int) or k < 0 or not isinstance(n, int) or n < 1:
        raise ValueError("need integer k >= 0 and n >= 1")
    nvars = 2 * n + 2
    one = GaussRat(1)
    xs = [Poly.gen(j, nvars, one) for j in range(n)]
    ys = [Poly.gen(n + j, nvars, one) for j in range(n)]
    t_index = 2 * n
    t, lam = Poly.gen(t_index, nvars, one), Poly.gen(t_index + 1, nvars, one)
    i_sign = GaussRat(0, sign)
    exponent = lam * t * i_sign - lam * sum((x * x + y * y for x, y in zip(xs, ys)), Poly())
    base = xs[0] - ys[0] * i_sign
    prefactor = Poly({(0,) * nvars: one})
    for _ in range(k):
        prefactor = prefactor * base

    def field_x(j, f):
        return f.diff(j) + 2 * ys[j] * f.diff(t_index)

    def field_y(j, f):
        return f.diff(n + j) - 2 * xs[j] * f.diff(t_index)

    def twisted(field, j, q):
        """field(q e^E) / e^E, by the product rule."""
        return field(j, q) + q * field(j, exponent)

    twice_lap = sum(
        (
            twisted(field_x, j, twisted(field_x, j, prefactor))
            + twisted(field_y, j, twisted(field_y, j, prefactor))
            for j in range(n)
        ),
        Poly(),
    )
    return _halved(twice_lap) + _claimed_eigenvalue(k, n, lam) * prefactor


def kummer_a(order: float, mode: ModeIndex) -> float:
    """Kummer parameter a = (1 - order + 2k + n) / 2 of the mode at that order."""
    return (1.0 - order + 2 * mode.k + mode.n) / 2.0


def gjms_symbol(gamma_prime: float, mode: ModeIndex) -> float:
    """Spectral multiplier of the order-gamma' operator on the mode.

    Both gamma arguments are positive for gamma' < 2, so the ratio is safe to
    form in log space; that keeps high levels from overflowing.
    """
    if not 0.0 < gamma_prime < 2.0:
        raise ValueError(f"symbol order must lie in (0, 2), got {gamma_prime}")
    a = kummer_a(gamma_prime, mode)
    log_ratio = math.lgamma(a + gamma_prime) - math.lgamma(a)
    return (4.0 * abs(mode.lam)) ** gamma_prime * math.exp(log_ratio)


def theorem_constant(param: GammaParam):
    """DtN-to-symbol ratio: a scalar below order 1, an ordered pair above.

    For gamma in (1, 2) the first entry multiplies the order-gamma symbol and
    the second (negative) entry multiplies the order-(2-gamma) symbol.
    """
    g = param.gamma
    if not param.is_high:
        return 2.0 ** (1.0 - 2.0 * g) * gamma_fn(1.0 - g) / gamma_fn(g)
    tilde = param.orders[1]
    c_phi = 2.0 ** (3.0 - 2.0 * g) * gamma_fn(2.0 - g) / gamma_fn(g)
    c_psi = (
        2.0 ** (1.0 - 2.0 * tilde)
        * (tilde / (1.0 - tilde))
        * gamma_fn(-tilde)
        / gamma_fn(tilde)
    )
    return c_phi, c_psi


def boundary_targets(param: GammaParam, mode: ModeIndex) -> tuple[float, ...]:
    """Diagonal of the minimal energy in the boundary data, one entry per datum.

    (c P_gamma,) below order 1 and (c_phi P_gamma, -c_psi P_(2-gamma)) above,
    both entries of the pair positive.
    """
    g = param.gamma
    if not param.is_high:
        return (theorem_constant(param) * gjms_symbol(g, mode),)
    c_phi, c_psi = theorem_constant(param)
    return c_phi * gjms_symbol(g, mode), -c_psi * gjms_symbol(2.0 - g, mode)
