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
m - s into g_l.  With s = p/q both sides of the check run on Python ints:
the closed form is q^l p_l(x, p/q) over the integer (-1)^l l! prod_j
((m + j)q - 2p), one running product over the orders, and the raw
recursion that grades it keeps each f_l as integer numerators over one
shared denominator, reduced once per order.
They are compared cross-multiplied, so a matching coefficient costs two
integer products and no gcd.  All arithmetic is exact over the rationals;
the recursion denominators vanish exactly when 2s - m is a positive integer
<= l, and those poles raise instead of degrading silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

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
        s = _exact(s)
        return Fraction(s.denominator**self.l, _coefficient_denominators(self.l, self.m, s)[-1])


def _coefficient_denominators(l_max: int, m: int, s: int | Fraction) -> list[int]:
    """The integers d_l with c_l(s) = q^l / d_l for s = p/q, for l = 0..l_max.

    m - 2s + j = ((m + j)q - 2p)/q, so d_l = (-1)^l l! prod_{j<=l} ((m + j)q - 2p)
    stays in integers, one running product; a zero factor is the pole at
    s = (m + j)/2.
    """
    p, q = s.numerator, s.denominator
    dens = [1]
    for j in range(1, l_max + 1):
        lin = (m + j) * q - 2 * p
        if lin == 0:
            raise ValueError(f"expansion coefficient of order {l_max} has a pole at s = {s}")
        dens.append(dens[-1] * -j * lin)
    return dens


def expansion_coefficient(l: int, m: int) -> ExpansionCoefficient:
    _validate_order(l, m)
    return ExpansionCoefficient(l, m)


def raw_recursion(l: int, m: int, s) -> list[dict[tuple[int, int], Fraction]]:
    """Terms f_0 .. f_l straight from the two-step recursion at rational s.

    Returned dicts map (i, j) -> coefficient of L1^i L2^j.  Raises at the
    exact parameter values where a recursion denominator vanishes.  This is
    the oracle for the closed form, so it shares no arithmetic with it.

    With s = p/q a step is f_ell = -q (L1 f_{ell-1} + L2 f_{ell-2}) /
    (ell ((m + ell)q - 2p)), taken on the lcm of the previous denominators.
    """
    _validate_order(l, m)
    s = _exact(s)
    p, q = s.numerator, s.denominator
    steps: list[tuple[dict[tuple[int, int], int], int]] = [({(0, 0): 1}, 1)]
    for ell in range(1, l + 1):
        lin = ell * ((m + ell) * q - 2 * p)
        if lin == 0:
            raise ValueError(f"recursion denominator vanishes at order {ell} for s = {s}")
        (n1, d1), (n2, d2) = steps[-1], steps[-2] if ell >= 2 else ({}, 1)
        den = lcm(d1, d2)
        a, b = den // d1 * -q, den // d2 * -q
        nums = {(i + 1, j): c * a for (i, j), c in n1.items()}
        for (i, j), c in n2.items():
            key = (i, j + 1)
            nums[key] = nums.get(key, 0) + c * b
        den *= lin
        g = gcd(den, *nums.values()) * (1 if den > 0 else -1)
        steps.append(({k: v // g for k, v in nums.items() if v}, den // g))
    return [{k: Fraction(v, den) for k, v in nums.items()} for nums, den in steps]


def _closed_numerators(l: int, m: int, s: int | Fraction) -> dict:
    """`closed_term` as nonzero integer numerators over `_coefficient_denominators`.

    With s = p/q the x^i numerator is sum_k a_ik p^k q^(l-k), which is q^l
    times the coefficient at s, as p_l has s-degree at most l/2.
    """
    p, q = s.numerator, s.denominator
    mono = [p**k * q ** (l - k) for k in range(l + 1)]
    nums: dict[int, int] = {}
    for (i, k), a in _three_term(l, m, False).items():
        nums[i] = nums.get(i, 0) + a * mono[k]
    return {(i, (l - i) // 2): v for i, v in nums.items() if v}


def closed_term(l: int, m: int, s) -> dict[tuple[int, int], Fraction]:
    """The closed form c_l(s) * p_l lifted to the two symbols, at rational s.

    x^i becomes L1^i L2^((l-i)/2); p_l has the parity of l, so the power of
    L2 is whole.
    """
    _validate_order(l, m)
    s = _exact(s)
    den = _coefficient_denominators(l, m, s)[-1]
    nums = _closed_numerators(l, m, s)
    return {key: Fraction(v, den) for key, v in nums.items()}


def check_expansion(l_max: int, m: int, s) -> Fraction:
    """Largest absolute mismatch between closed form and raw recursion.

    Exact rational arithmetic, so anything other than 0 is a real failure.
    """
    terms = raw_recursion(l_max, m, s)
    dens = _coefficient_denominators(l_max, m, s)
    worst = Fraction(0)
    for ell, den in enumerate(dens):
        closed = _closed_numerators(ell, m, s)
        for key in closed.keys() | terms[ell].keys():
            n, r = closed.get(key, 0), terms[ell].get(key, 0)
            if n * r.denominator != r.numerator * den:
                gap = abs(Fraction(n, den) - r)
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
