"""Exact operator algebra on the half-space rho > 0.

Words in the generators rho, d_rho, d_t, Db are reduced to the normal form
rho^a d_rho^b d_t^c Db^d with integer a (negative powers allowed) and
nonnegative b, c, d.  d_t and Db are central, so the only nontrivial rewrite
is pulling rho-powers through d_rho-powers:

    d_rho^b rho^a = sum_i C(b, i) * a(a-1)...(a-i+1) * rho^(a-i) d_rho^(b-i),

which holds for negative a too (the binomial factor stops the sum at i = b).

An operator is a sparse polynomial (`Poly`, the one exact polynomial of
the package) in the formal weight g and the four generators, keyed by the
exponent tuple (g, rho, dr, dt, db) of g^a rho^b d_rho^c d_t^d Db^e; its
coefficients are Gaussian rationals whose parts stay Python ints while they
are integers and become Fractions only when a rational scalar brings one
in, so the operators built here, all of them in Z[i][g], run on integer
arithmetic.  Composition works on those parts directly: it sums the real and
imaginary parts of each output term apart and builds one GaussRat per term
at the end.  The imaginary unit is needed because the factored products
below carry shifts 2ic*d_t, while every assembled identity has to come out
with real coefficients; that reality is itself one of the checks.  Zero
coefficients are never stored, so a difference operator is zero exactly
when it has no terms.  `Poly` also carries the recurrence polynomials in
(x, s) of `scatter` and the eigenfunction calculus of `spectral`.

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
from functools import lru_cache
from math import comb
from operator import add

__all__ = [
    "GaussRat",
    "Poly",
    "Operator",
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


def _operand(x) -> "GaussRat | None":
    """x as a GaussRat, or None for a type the Gaussian rationals do not know."""
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRat(x, 0)
    return None


@dataclass(frozen=True)
class GaussRat:
    """Gaussian rational re + i*im with exact (int or Fraction) parts.

    An operand of another type gets NotImplemented, so Python can try the
    reflected operation on it (a polynomial scaled by a GaussRat, say).
    Equality and hash are the frozen dataclass's, field by field: `Poly`
    compares with 0 itself and subtracts as `+` of a negation.
    """

    re: Exact = 0
    im: Exact = 0

    def __add__(self, other) -> "GaussRat":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __mul__(self, other) -> "GaussRat":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "GaussRat":
        return GaussRat(-self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)


I_UNIT = GaussRat(0, 1)


class Poly(dict):
    """Sparse polynomial: exponent tuple -> nonzero exact coefficient.

    Coefficients are ints, Fractions or GaussRats, one ring per polynomial.
    Zero coefficients are never stored, so the dict is a canonical form: two
    polynomials are equal exactly when their dicts are, and a polynomial is
    zero exactly when it has no terms, which is what `poly == 0` decides.
    Anything that is not a Poly is a scalar to `*`.
    """

    def __init__(self, terms=()):
        super().__init__(terms)
        for exps in [exps for exps, c in self.items() if not c]:
            del self[exps]

    @classmethod
    def gen(cls, index: int, nvars: int, one=1) -> "Poly":
        """The variable with the given index among nvars; `one` is the ring's unit."""
        return cls({tuple(int(j == index) for j in range(nvars)): one})

    def __eq__(self, other):
        if isinstance(other, int) and other == 0:
            return not self
        return dict.__eq__(self, other)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __add__(self, other: "Poly") -> "Poly":
        out = type(self)(self)
        for exps, c in other.items():
            if exps in out:
                c = out[exps] + c
                if not c:
                    del out[exps]
                    continue
            out[exps] = c
        return out

    def __neg__(self) -> "Poly":
        return type(self)({exps: -c for exps, c in self.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return type(self)({exps: c * other for exps, c in self.items()})
        out = {}
        for e1, c1 in self.items():
            for e2, c2 in other.items():
                exps = tuple(map(add, e1, e2))
                c = c1 * c2
                out[exps] = out[exps] + c if exps in out else c
        return type(self)(out)

    def __rmul__(self, scalar) -> "Poly":
        return type(self)({exps: scalar * c for exps, c in self.items()})

    def diff(self, index: int) -> "Poly":
        """Partial derivative in the variable with the given index."""
        out = {}
        for exps, c in self.items():
            if exps[index]:
                lowered = exps[:index] + (exps[index] - 1,) + exps[index + 1 :]
                out[lowered] = c * exps[index]
        return type(self)(out)


def _parts(c) -> tuple:
    """The real and imaginary parts of an exact coefficient."""
    return (c.re, c.im) if isinstance(c, GaussRat) else (c, 0)


@lru_cache(maxsize=None)
def _rewrite(b: int, a: int) -> tuple:
    """The nonzero (i, C(b, i) * a(a-1)...(a-i+1)) of d_rho^b rho^a, i = 0..b."""
    out = []
    for i in range(b + 1):
        k = comb(b, i)
        for t in range(i):
            k *= a - t
        if k:
            out.append((i, k))
    return tuple(out)


class Operator(Poly):
    """Normal-ordered operator with GaussRat coefficients.

    A Poly keyed by the exponents (g, rho, dr, dt, db) of the term
    g^a rho^b d_rho^c d_t^d Db^e.  `*` between operators is composition by
    the rewrite rule above; every other operation is the polynomial one.
    """

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly.__mul__(self, other)
        right = [(exps, *_parts(c)) for exps, c in other.items()]
        re: dict[tuple, Exact] = {}
        im: dict[tuple, Exact] = {}
        for (g1, r1, d1, t1, b1), c1 in self.items():
            x1, y1 = _parts(c1)
            for (g2, r2, d2, t2, b2), x2, y2 in right:
                x, y = x1 * x2 - y1 * y2, x1 * y2 + y1 * x2
                for i, k in _rewrite(d1, r2):
                    key = (g1 + g2, r1 + r2 - i, d1 - i + d2, t1 + t2, b1 + b2)
                    re[key] = re.get(key, 0) + x * k
                    im[key] = im.get(key, 0) + y * k
        return Operator({key: GaussRat(x, im[key]) for key, x in re.items() if x or im[key]})

    def max_abs_coeff(self) -> Exact:
        """Largest |re| + |im| over all coefficients; 0 for the zero operator."""
        return max((abs(c.re) + abs(c.im) for c in self.values()), default=0)


_ONE = GaussRat(1)


def weighted_laplacian(shift=0) -> Operator:
    """L_{g+shift} with the weight kept symbolic in g.

    shift is an exact rational; the rho^-1 d_rho coefficient is the linear
    polynomial (1 - 2*shift) - 2g.
    """
    s = _exact(shift)
    return Operator(
        {
            (0, 0, 2, 0, 0): _ONE,
            (0, -1, 1, 0, 0): GaussRat(1 - 2 * s),
            (1, -1, 1, 0, 0): GaussRat(-2),
            (0, 2, 0, 2, 0): _ONE,
            (0, 0, 0, 0, 1): _ONE,
        }
    )


def _dt_shift_factor(c: int) -> Operator:
    """L_g + 2*i*c*d_t."""
    return weighted_laplacian(0) + Operator({(0, 0, 0, 1, 0): I_UNIT * (2 * c)})


def _ordered_product(k: int, factor) -> Operator:
    """factor(k-1-2j) over j = 0..k-1, the j = 0 factor rightmost (applied first)."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("order k must be an integer >= 1")
    acc = factor(k - 1)
    for j in range(1, k):
        acc = factor(k - 1 - 2 * j) * acc
    return acc


def build_poly_sublaplacian(k: int) -> Operator:
    """Product of the k weight-shifted operators L_{gamma - 2j}, gamma = g + (k-1).

    The j = 0 factor (weight gamma) sits rightmost, i.e. it is applied first;
    successive factors drop the weight by 2 down to g - (k-1).
    """
    return _ordered_product(k, weighted_laplacian)


def factored_product(k: int) -> Operator:
    """Product of the commuting factors L_g + 2i(k-1-2j) d_t, j = 0..k-1."""
    return _ordered_product(k, _dt_shift_factor)


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
    y = Operator({(0, -1, 1, 0, 0): _ONE})
    lt = factored_product(k - 2)
    lg = weighted_laplacian(0)
    dt2 = Operator({(0, 0, 0, 2, 0): _ONE})
    chain = commutator(y, lt * lg)
    chain = chain - (2 * (k - 1)) * (y * lt * y)
    chain = chain - (2 * (k - 1)) * (lt * dt2)
    return chain
