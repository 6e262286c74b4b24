"""Exact expansion coefficients for the two-symbol boundary recursion.

The object of interest is a formal series sum_l f_l whose terms live in two
commuting symbols L1 (degree 1) and L2 (degree 2), generated by

    f_0 = 1,    f_l = -(L1 f_{l-1} + L2 f_{l-2}) / (l (m - 2s + l)),

with m an integer dimension parameter and s a rational spectral parameter.
Each term collapses to a closed form

    f_l = c_l(s) * sum_i p_{l,i}(s) L1^i L2^((l-i)/2),
    c_l(s) = (-1)^l / (l! * prod_{j=1..l} (m - 2s + j)),

where p_l is the monic degree-l polynomial from the three-term recurrence

    p_0 = 1,  p_1 = x,  p_l = x p_{l-1} - (l-1)(m - 2s + l - 1) p_{l-2}.

A companion family g_l uses the reversed linear factor (2s - m + l - 1) and
matches p_l under the reflection s -> m - s.  All arithmetic is exact over
the rationals; the recursion denominators vanish exactly when 2s - m is a
positive integer <= l, and those poles raise instead of degrading silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .opalg import SPoly, _frac

__all__ = [
    "SPoly",
    "UniPoly",
    "BiTerm",
    "recurrence_p",
    "recurrence_g",
    "substitute_dual",
    "lift_operator",
    "ExpansionCoefficient",
    "expansion_coefficient",
    "raw_recursion",
    "closed_term",
    "check_expansion",
    "check_duality",
]


# A univariate operator polynomial: index i holds the SPoly coefficient of x^i.
UniPoly = list[SPoly]

# A lifted bivariate term index: (i, j) stands for L1^i L2^j.
BiTerm = tuple[int, int]


def _validate_order(l: int, m: int) -> None:
    if not isinstance(l, int) or l < 0:
        raise ValueError("expansion order must be a nonnegative integer")
    if not isinstance(m, int) or m < 2:
        raise ValueError("dimension parameter m must be an integer >= 2")


# q_l does not depend on s, so each (l, factor) is built once however many
# spectral values are checked; the bound sits far above any verify grid.
@lru_cache(maxsize=1024)
def _three_term(l: int, factor: SPoly) -> tuple[SPoly, ...]:
    """Coefficients (in x) of q_0 = 1, q_1 = x, q_l = x q_{l-1} - (l-1)(factor + l-1) q_{l-2}."""
    prev: UniPoly = [SPoly.of(1)]
    if l == 0:
        return tuple(prev)
    cur: UniPoly = [SPoly(), SPoly.of(1)]
    for ell in range(2, l + 1):
        drop = (factor + (ell - 1)) * (ell - 1)
        nxt: UniPoly = [SPoly()] + cur
        for i, c in enumerate(prev):
            nxt[i] = nxt[i] - c * drop
        prev, cur = cur, nxt
    return tuple(cur)


def recurrence_p(l: int, m: int) -> UniPoly:
    """Coefficients (in x) of the monic polynomial p_l, as a fresh list."""
    _validate_order(l, m)
    return list(_three_term(l, SPoly((m, -2))))


def recurrence_g(l: int, m: int) -> UniPoly:
    """Same recurrence with the reflected linear factor (2s - m + l - 1)."""
    _validate_order(l, m)
    return list(_three_term(l, SPoly((-m, 2))))


def substitute_dual(poly: UniPoly, m: int) -> UniPoly:
    """Apply the reflection s -> m - s to every coefficient."""
    return [c.compose_affine(m, -1) for c in poly]


def lift_operator(poly: UniPoly, l: int) -> dict[BiTerm, SPoly]:
    """Lift x^i to L1^i L2^((l-i)/2); a nonzero term of bad parity is an error."""
    out: dict[BiTerm, SPoly] = {}
    for i, c in enumerate(poly):
        if c.is_zero:
            continue
        if (l - i) % 2:
            raise ValueError(f"term x^{i} breaks the parity of an order-{l} expansion")
        out[(i, (l - i) // 2)] = c
    return out


@dataclass(frozen=True)
class ExpansionCoefficient:
    """The scalar prefactor c_l(s), kept in factored form so poles stay exact."""

    l: int
    m: int

    def poles(self) -> list[Fraction]:
        return [Fraction(self.m + j, 2) for j in range(1, self.l + 1)]

    def eval(self, s) -> Fraction:
        # With s = p/q, m - 2s + j = ((m + j)q - 2p)/q, so the product stays
        # in integers and the result is normalized once.
        s = _frac(s)
        p, q = s.numerator, s.denominator
        den = factorial(self.l)
        for j in range(1, self.l + 1):
            lin = (self.m + j) * q - 2 * p
            if lin == 0:
                raise ValueError(
                    f"expansion coefficient of order {self.l} has a pole at s = {s}"
                )
            den *= lin
        return Fraction((-1) ** self.l * q**self.l, den)


def expansion_coefficient(l: int, m: int) -> ExpansionCoefficient:
    _validate_order(l, m)
    return ExpansionCoefficient(l, m)


def raw_recursion(l: int, m: int, s) -> list[dict[BiTerm, Fraction]]:
    """Terms f_0 .. f_l straight from the two-step recursion at rational s.

    Returned dicts map (i, j) -> coefficient of L1^i L2^j.  Raises at the
    exact parameter values where a recursion denominator vanishes.
    """
    _validate_order(l, m)
    s = _frac(s)
    out: list[dict[BiTerm, Fraction]] = [{(0, 0): Fraction(1)}]
    for ell in range(1, l + 1):
        den = ell * (m - 2 * s + ell)
        if den == 0:
            raise ValueError(f"recursion denominator vanishes at order {ell} for s = {s}")
        cur: dict[BiTerm, Fraction] = {}
        for (i, j), c in out[ell - 1].items():
            key = (i + 1, j)
            cur[key] = cur.get(key, Fraction(0)) + c
        if ell >= 2:
            for (i, j), c in out[ell - 2].items():
                key = (i, j + 1)
                cur[key] = cur.get(key, Fraction(0)) + c
        scale = Fraction(-1, 1) / den
        out.append({k: v * scale for k, v in cur.items() if v})
    return out


def closed_term(l: int, m: int, s) -> dict[BiTerm, Fraction]:
    """The closed form c_l(s) * p_l lifted to the two symbols, at rational s."""
    c = expansion_coefficient(l, m).eval(s)
    out: dict[BiTerm, Fraction] = {}
    for key, sp in lift_operator(recurrence_p(l, m), l).items():
        v = sp.eval(s) * c
        if v:
            out[key] = v
    return out


def check_expansion(l_max: int, m: int, s) -> Fraction:
    """Largest absolute mismatch between closed form and raw recursion.

    Exact rational arithmetic, so anything other than 0 is a real failure.
    """
    terms = raw_recursion(l_max, m, s)
    worst = Fraction(0)
    for ell in range(l_max + 1):
        closed = closed_term(ell, m, s)
        for key in set(closed) | set(terms[ell]):
            gap = abs(closed.get(key, Fraction(0)) - terms[ell].get(key, Fraction(0)))
            if gap > worst:
                worst = gap
    return worst


def check_duality(l_max: int, m: int) -> bool:
    """Structural identity p_l = g_l o (s -> m - s) for every l <= l_max."""
    for ell in range(l_max + 1):
        if recurrence_p(ell, m) != substitute_dual(recurrence_g(ell, m), m):
            return False
    return True
