"""Exact operator algebra on the half-space rho > 0.

Words in the generators rho, d_rho, d_t, Db are reduced to the normal form
rho^a d_rho^b d_t^c Db^d with integer a (negative powers allowed) and
nonnegative b, c, d.  d_t and Db are central, so the only nontrivial rewrite
is pulling rho-powers through d_rho-powers:

    d_rho^b rho^a = sum_i C(b, i) * a(a-1)...(a-i+1) * rho^(a-i) d_rho^(b-i),

which holds for negative a too (the binomial factor stops the sum at i = b).

Coefficients are polynomials in a formal weight g over the Gaussian
rationals.  Each part is an exact number that stays a Python int while it is
an integer and is a Fraction only when a rational scalar brings one in, so
the operators built here, all of them in Z[i][g], run on integer
arithmetic.  The imaginary unit is needed because the factored products
below carry shifts 2ic*d_t, while every assembled identity has to come out
with real coefficients; that reality is itself one of the checks.  The dense
polynomial class behind them, `DensePoly`, also carries the polynomials in s
of `scatter` (SPoly), whose recurrence polynomials lie in Z[s].

The weighted operator family is

    L_{g+s} = d_rho^2 + (1 - 2(g+s)) rho^-1 d_rho + rho^2 d_t^2 + Db

and the two headline checks are `check_factorization` (the iterated product
of weight-shifted operators equals a product of commuting d_t-shifts of L_g)
and `check_commutator_chain` (the first-order reduction built from
Y = rho^-1 d_rho).  Both return the difference operator, which must be zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator, NamedTuple

__all__ = [
    "GaussRat",
    "DensePoly",
    "GPoly",
    "SPoly",
    "Monomial",
    "Operator",
    "IDENTITY_MONOMIAL",
    "weighted_laplacian",
    "factored_product",
    "build_poly_sublaplacian",
    "check_factorization",
    "check_commutator_chain",
    "commutator",
]


Exact = int | Fraction


def _exact(x) -> Exact:
    """An exact rational as given: an int stays an int, a Fraction a Fraction."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class GaussRat:
    """Gaussian rational re + i*im with exact (int or Fraction) parts."""

    re: Exact = 0
    im: Exact = 0

    @staticmethod
    def of(x) -> "GaussRat":
        if isinstance(x, GaussRat):
            return x
        return GaussRat(_exact(x), 0)

    def __add__(self, other) -> "GaussRat":
        other = GaussRat.of(other)
        return GaussRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other) -> "GaussRat":
        other = GaussRat.of(other)
        return GaussRat(self.re - other.re, self.im - other.im)

    def __mul__(self, other) -> "GaussRat":
        other = GaussRat.of(other)
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussRat":
        return GaussRat(-self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)


I_UNIT = GaussRat(0, 1)


@dataclass(frozen=True)
class DensePoly:
    """Dense polynomial in one variable over the coefficient ring of a subclass.

    coeffs[k] multiplies the k-th power of the variable; trailing zeros are
    stripped on construction so equality is structural.  A subclass fixes
    the ring through `ring`, which coerces an int or a ring element, and
    `zero`, the ring's zero.
    """

    coeffs: tuple = ()

    def __post_init__(self):
        cs = tuple(self.ring(c) for c in self.coeffs)
        while cs and not cs[-1]:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def of(cls, x):
        if isinstance(x, cls):
            return x
        return cls((cls.ring(x),))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        other = self.of(other)
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        a += (self.zero,) * (n - len(a))
        b += (self.zero,) * (n - len(b))
        return type(self)(tuple(x + y for x, y in zip(a, b)))

    def __neg__(self):
        return type(self)(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-self.of(other))

    def __mul__(self, other):
        other = self.of(other)
        if self.is_zero or other.is_zero:
            return type(self)()
        out = [self.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return type(self)(tuple(out))

    __rmul__ = __mul__

    def eval(self, x):
        """Substitute a concrete ring element for the variable."""
        x = self.ring(x)
        acc = self.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose_affine(self, a, b):
        """The polynomial p(a + b*x)."""
        lin = type(self)((a, b))
        acc = type(self)()
        for c in reversed(self.coeffs):
            acc = acc * lin + c
        return acc


class SPoly(DensePoly):
    """Polynomial in the spectral parameter s with exact rational coefficients."""

    ring = staticmethod(_exact)
    zero = 0


class GPoly(DensePoly):
    """Polynomial in the formal weight g with GaussRat coefficients."""

    ring = staticmethod(GaussRat.of)
    zero = GaussRat()


def g_linear(const, slope) -> GPoly:
    """The polynomial const + slope*g."""
    return GPoly((GaussRat.of(const), GaussRat.of(slope)))


class Monomial(NamedTuple):
    rho: int
    dr: int
    dt: int
    db: int


IDENTITY_MONOMIAL = Monomial(0, 0, 0, 0)


def _falling(a: int, i: int) -> int:
    p = 1
    for t in range(i):
        p *= a - t
    return p


def _compose_monomials(m1: Monomial, m2: Monomial) -> Iterator[tuple[Monomial, int]]:
    """Normal-ordered expansion of m1 * m2 (integer coefficients)."""
    for i in range(m1.dr + 1):
        c = comb(m1.dr, i) * _falling(m2.rho, i)
        if c == 0:
            continue
        yield (
            Monomial(m1.rho + m2.rho - i, m1.dr - i + m2.dr, m1.dt + m2.dt, m1.db + m2.db),
            c,
        )


class Operator:
    """Finite GPoly-linear combination of normal-ordered monomials."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        clean: dict[Monomial, GPoly] = {}
        for m, p in (terms or {}).items():
            p = GPoly.of(p)
            if not p.is_zero:
                clean[m] = p
        self._terms = clean

    @classmethod
    def zero(cls) -> "Operator":
        return cls()

    @classmethod
    def identity(cls) -> "Operator":
        return cls({IDENTITY_MONOMIAL: GPoly.of(1)})

    @classmethod
    def from_monomial(cls, m: Monomial, coeff=1) -> "Operator":
        return cls({m: GPoly.of(coeff)})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list[tuple[Monomial, GPoly]]:
        return sorted(self._terms.items(), key=lambda kv: _mono_key(kv[0]), reverse=True)

    def __eq__(self, other) -> bool:
        return isinstance(other, Operator) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "Operator") -> "Operator":
        out = dict(self._terms)
        for m, p in other._terms.items():
            q = out.get(m)
            out[m] = p if q is None else q + p
        return Operator(out)

    def __neg__(self) -> "Operator":
        return Operator({m: -p for m, p in self._terms.items()})

    def __sub__(self, other: "Operator") -> "Operator":
        return self + (-other)

    def _scaled(self, scalar) -> "Operator":
        s = GPoly.of(scalar)
        return Operator({m: p * s for m, p in self._terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Operator):
            return self._scaled(other)
        out: dict[Monomial, GPoly] = {}
        for m1, p1 in self._terms.items():
            for m2, p2 in other._terms.items():
                p = p1 * p2
                for m, c in _compose_monomials(m1, m2):
                    q = p * c
                    acc = out.get(m)
                    out[m] = q if acc is None else acc + q
        return Operator(out)

    def __rmul__(self, scalar):
        return self._scaled(scalar)

    def subs_g(self, g_value) -> "Operator":
        """Operator with the formal weight g replaced by a concrete rational."""
        return Operator(
            {m: GPoly((p.eval(g_value),)) for m, p in self._terms.items()}
        )

    def max_abs_coeff(self) -> Exact:
        """Largest |re| + |im| over all coefficients; 0 for the zero operator."""
        best = 0
        for p in self._terms.values():
            for c in p.coeffs:
                mag = abs(c.re) + abs(c.im)
                if mag > best:
                    best = mag
        return best

    def render(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for m, p in self.terms():
            ms = _mono_str(m)
            ps = _gpoly_str(p)
            if ms == "1":
                parts.append(ps)
            elif ps == "1":
                parts.append(ms)
            elif ps == "-1":
                parts.append(f"-{ms}")
            else:
                parts.append(f"({ps})*{ms}")
        out = parts[0]
        for t in parts[1:]:
            if t.startswith("-"):
                out += " - " + t[1:]
            else:
                out += " + " + t
        return out

    def __repr__(self):
        return f"Operator<{self.render()}>"


def _mono_key(m: Monomial):
    return (m.db, m.dt, m.dr, m.rho)


def _mono_str(m: Monomial) -> str:
    parts = []
    if m.rho:
        parts.append("rho" if m.rho == 1 else f"rho^{m.rho}")
    for sym, e in (("dr", m.dr), ("dt", m.dt), ("Db", m.db)):
        if e:
            parts.append(sym if e == 1 else f"{sym}^{e}")
    return "*".join(parts) if parts else "1"


def _gauss_str(c: GaussRat) -> str:
    if not c.im:
        return str(c.re)
    if not c.re:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        return f"{c.im}i"
    sign = "+" if c.im > 0 else "-"
    mag = "i" if abs(c.im) == 1 else f"{abs(c.im)}i"
    return f"({c.re}{sign}{mag})"


def _gpoly_str(p: GPoly) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if not c:
            continue
        base = "" if k == 0 else ("g" if k == 1 else f"g^{k}")
        cs = _gauss_str(c)
        if not base:
            parts.append(cs)
        elif cs == "1":
            parts.append(base)
        elif cs == "-1":
            parts.append(f"-{base}")
        else:
            parts.append(f"{cs}*{base}")
    out = parts[0]
    for t in parts[1:]:
        if t.startswith("-"):
            out += " - " + t[1:]
        else:
            out += " + " + t
    return out


# Convenience generators.

D_RHO = Monomial(0, 1, 0, 0)
D_T = Monomial(0, 0, 1, 0)
DELTA_B = Monomial(0, 0, 0, 1)


def weighted_laplacian(shift=0) -> Operator:
    """L_{g+shift} with the weight kept symbolic in g.

    shift is an exact rational; the rho^-1 d_rho coefficient is the linear
    polynomial (1 - 2*shift) - 2g.
    """
    s = _exact(shift)
    return Operator(
        {
            Monomial(0, 2, 0, 0): GPoly.of(1),
            Monomial(-1, 1, 0, 0): g_linear(1 - 2 * s, -2),
            Monomial(2, 0, 2, 0): GPoly.of(1),
            DELTA_B: GPoly.of(1),
        }
    )


def _dt_shift_factor(c: int) -> Operator:
    """L_g + 2*i*c*d_t."""
    return weighted_laplacian(0) + Operator.from_monomial(D_T, I_UNIT * GaussRat.of(2 * c))


def build_poly_sublaplacian(k: int) -> Operator:
    """Product of the k weight-shifted operators L_{gamma - 2j}, gamma = g + (k-1).

    The j = 0 factor (weight gamma) sits rightmost, i.e. it is applied first;
    successive factors drop the weight by 2 down to g - (k-1).
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("order k must be an integer >= 1")
    acc = None
    for j in range(k):
        factor = weighted_laplacian(k - 1 - 2 * j)
        acc = factor if acc is None else factor * acc
    return acc


def factored_product(k: int) -> Operator:
    """Product of the commuting factors L_g + 2i(k-1-2j) d_t, j = 0..k-1."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("order k must be an integer >= 1")
    acc = None
    for j in range(k):
        factor = _dt_shift_factor(k - 1 - 2 * j)
        acc = factor if acc is None else factor * acc
    return acc


def commutator(a: Operator, b: Operator) -> Operator:
    return a * b - b * a


def check_factorization(k: int) -> Operator:
    """Difference between the weight-shifted product and its factored form.

    Exact; the result must be the zero operator for every 1 <= k <= 6.
    """
    if not isinstance(k, int) or not 1 <= k <= 6:
        raise ValueError("factorization check is defined for integer 1 <= k <= 6")
    return build_poly_sublaplacian(k) - factored_product(k)


def check_commutator_chain(k: int) -> Operator:
    """Chain identity residual at order k (must be the zero operator).

    With Y = rho^-1 d_rho and Lt the factored product of order k-2:

        [Y, Lt L_g] - 2(k-1) Y Lt Y - 2(k-1) Lt d_t^2.

    The k = 2 case degenerates (Lt is empty) and is rejected.
    """
    if not isinstance(k, int) or k < 3:
        raise ValueError("commutator chain requires integer k >= 3")
    y = Operator.from_monomial(Monomial(-1, 1, 0, 0))
    lt = factored_product(k - 2)
    lg = weighted_laplacian(0)
    dt2 = Operator.from_monomial(Monomial(0, 0, 2, 0))
    chain = commutator(y, lt * lg)
    chain = chain - (2 * (k - 1)) * (y * lt * y)
    chain = chain - (2 * (k - 1)) * (lt * dt2)
    return chain
