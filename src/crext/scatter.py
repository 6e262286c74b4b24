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
matches p_l under the reflection s -> m - s.  Both families are built once
per (l, m) as integer `opalg.Poly`s in (x, s); the closed form substitutes
a sampled s into p_l, and the duality check substitutes the polynomial
m - s into g_l.  The raw recursion that grades the closed form runs on
plain dicts of Fractions.  All arithmetic is exact over the rationals; the
recursion denominators vanish exactly when 2s - m is a positive integer
<= l, and those poles raise instead of degrading silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .opalg import Poly, _exact

__all__ = [
    "recurrence_p",
    "recurrence_g",
    "ExpansionCoefficient",
    "expansion_coefficient",
    "raw_recursion",
    "closed_term",
    "check_expansion",
    "check_duality",
]


def _validate_order(l: int, m: int) -> None:
    if not isinstance(l, int) or l < 0:
        raise ValueError("expansion order must be a nonnegative integer")
    if not isinstance(m, int) or m < 2:
        raise ValueError("dimension parameter m must be an integer >= 2")


_X = Poly.gen(0, 2)


# q_l does not depend on s, so each (l, m, reflected) is built once however
# many spectral values are checked; the bound sits far above any verify grid.
# The coefficients lie in Z and stay Python ints.
@lru_cache(maxsize=1024)
def _three_term(l: int, m: int, reflected: bool) -> Poly:
    """q_l in (x, s): q_0 = 1, q_1 = x, q_l = x q_{l-1} - (l-1)(f + l-1) q_{l-2},
    with the linear factor f = m - 2s, or 2s - m when reflected."""
    sign = -1 if reflected else 1
    prev, cur = Poly(), Poly({(0, 0): 1})
    for ell in range(1, l + 1):
        drop = Poly({(0, 0): (ell - 1) * (sign * m + ell - 1), (0, 1): -2 * sign * (ell - 1)})
        prev, cur = cur, _X * cur - drop * prev
    return cur


def recurrence_p(l: int, m: int) -> Poly:
    """The monic polynomial p_l in (x, s), as a fresh Poly."""
    _validate_order(l, m)
    return Poly(_three_term(l, m, False))


def recurrence_g(l: int, m: int) -> Poly:
    """Same recurrence with the reflected linear factor (2s - m + l - 1)."""
    _validate_order(l, m)
    return Poly(_three_term(l, m, True))


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
        s = _exact(s)
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


def raw_recursion(l: int, m: int, s) -> list[dict[tuple[int, int], Fraction]]:
    """Terms f_0 .. f_l straight from the two-step recursion at rational s.

    Returned dicts map (i, j) -> coefficient of L1^i L2^j.  Raises at the
    exact parameter values where a recursion denominator vanishes.  This is
    the oracle for the closed form, so it shares no arithmetic with it.
    """
    _validate_order(l, m)
    s = _exact(s)
    out: list[dict[tuple[int, int], Fraction]] = [{(0, 0): Fraction(1)}]
    for ell in range(1, l + 1):
        den = ell * (m - 2 * s + ell)
        if den == 0:
            raise ValueError(f"recursion denominator vanishes at order {ell} for s = {s}")
        cur: dict[tuple[int, int], Fraction] = {}
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


def closed_term(l: int, m: int, s) -> dict[tuple[int, int], Fraction]:
    """The closed form c_l(s) * p_l lifted to the two symbols, at rational s.

    x^i becomes L1^i L2^((l-i)/2); p_l has the parity of l, so the power of
    L2 is whole.
    """
    c = expansion_coefficient(l, m).eval(s)
    at_s = _three_term(l, m, False).subs(1, s)
    return {(i, (l - i) // 2): v * c for (i, _), v in at_s.items()}


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
    reflection = Poly({(0, 0): m, (0, 1): -1})
    for ell in range(l_max + 1):
        if recurrence_p(ell, m) != recurrence_g(ell, m).subs(1, reflection):
            return False
    return True
