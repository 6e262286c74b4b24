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
matches p_l under the reflection s -> m - s.  Both families are integer
`opalg.Poly`s in (x, s), and each (m, family) ladder is built once, one
order on top of the two below it, so orders 0..l cost about 2l products
however they are asked for.  The duality check reflects the integer
coefficients of g_l under s -> m - s by binomial sums, reading both ladders
in place.  The closed form substitutes a sampled s into p_l: with s = p/q
both sides of that check run on Python ints, the closed form being
q^l p_l(x, p/q) over the integer (-1)^l l! prod_j ((m + j)q - 2p), one
running product over the orders, and the raw recursion that grades it
returns each f_l as integer numerators over one positive shared
denominator, reduced once per order.  They are compared cross-multiplied,
so a matching coefficient costs two integer products and no gcd, and a
Fraction is formed only for a mismatch.  All arithmetic is exact over the
rationals; the recursion denominators vanish exactly when 2s - m is a
positive integer <= l, and those poles raise instead of degrading silently.
`expansion_poles` lists them, for samplers that must step around them.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm

from .opalg import Poly, _exact

__all__ = [
    "recurrence_p",
    "recurrence_g",
    "expansion_poles",
    "raw_recursion",
    "check_expansion",
    "check_duality",
]


def _validate_order(l: int, m: int) -> None:
    if not isinstance(l, int) or l < 0:
        raise ValueError("expansion order must be a nonnegative integer")
    if not isinstance(m, int) or m < 2:
        raise ValueError("dimension parameter m must be an integer >= 2")


_X = Poly.gen(0, 2)

# q_l does not depend on s: each (m, reflected) ladder q_0, q_1, ... is built
# once, upward from its top order, and its coefficients stay Python ints.
_ladders: dict[tuple[int, bool], list[Poly]] = {}


def _three_term(l: int, m: int, reflected: bool) -> Poly:
    """q_l in (x, s): q_0 = 1, q_1 = x, q_l = x q_{l-1} - (l-1)(f + l-1) q_{l-2},
    with the linear factor f = m - 2s, or 2s - m when reflected."""
    ladder = _ladders.get((m, reflected))
    if ladder is None:
        ladder = _ladders[m, reflected] = [Poly({(0, 0): 1}), Poly(_X)]
    sign = -1 if reflected else 1
    for ell in range(len(ladder), l + 1):
        drop = Poly({(0, 0): (ell - 1) * (sign * m + ell - 1), (0, 1): -2 * sign * (ell - 1)})
        ladder.append(_X * ladder[-1] - drop * ladder[-2])
    return ladder[l]


def recurrence_p(l: int, m: int) -> Poly:
    """The monic polynomial p_l in (x, s), as a fresh Poly."""
    _validate_order(l, m)
    return Poly(_three_term(l, m, False))


def recurrence_g(l: int, m: int) -> Poly:
    """Same recurrence with the reflected linear factor (2s - m + l - 1)."""
    _validate_order(l, m)
    return Poly(_three_term(l, m, True))


def expansion_poles(l: int, m: int) -> list[Fraction]:
    """The values s = (m + j)/2, j = 1..l, where c_1 .. c_l have their poles."""
    _validate_order(l, m)
    return [Fraction(m + j, 2) for j in range(1, l + 1)]


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


def raw_recursion(l: int, m: int, s) -> list[tuple[dict[tuple[int, int], int], int]]:
    """Terms f_0 .. f_l straight from the two-step recursion at rational s.

    Term f_ell is a pair (numerators, denominator): the dict maps (i, j) to
    the integer numerator of the coefficient of L1^i L2^j over one positive
    denominator, with no factor common to all of them.  Raises at the
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
    return steps


def _closed_numerators(l: int, m: int, s: int | Fraction) -> dict:
    """The closed form c_l(s) p_l at rational s, lifted to the two symbols, as
    nonzero integer numerators over `_coefficient_denominators`.

    x^i becomes L1^i L2^((l-i)/2); p_l has the parity of l, so the power of
    L2 is whole.  With s = p/q the x^i numerator is sum_k a_ik p^k q^(l-k),
    which is q^l times the coefficient at s, as p_l has s-degree at most l/2.
    """
    p, q = s.numerator, s.denominator
    mono = [p**k * q ** (l - k) for k in range(l // 2 + 1)]
    nums: dict[int, int] = {}
    for (i, k), a in _three_term(l, m, False).items():
        nums[i] = nums.get(i, 0) + a * mono[k]
    return {(i, (l - i) // 2): v for i, v in nums.items() if v}


def check_expansion(l_max: int, m: int, s) -> Fraction:
    """Largest absolute mismatch between closed form and raw recursion.

    Exact rational arithmetic, so anything other than 0 is a real failure.
    """
    terms = raw_recursion(l_max, m, s)
    dens = _coefficient_denominators(l_max, m, s)
    worst = Fraction(0)
    for ell, den in enumerate(dens):
        closed = _closed_numerators(ell, m, s)
        nums, raw_den = terms[ell]
        for key in closed.keys() | nums.keys():
            n, r = closed.get(key, 0), nums.get(key, 0)
            if n * raw_den != r * den:
                gap = abs(Fraction(n, den) - Fraction(r, raw_den))
                if gap > worst:
                    worst = gap
    return worst


def check_duality(l_max: int, m: int) -> bool:
    """Structural identity p_l = g_l o (s -> m - s) for every l <= l_max.

    Both ladders are read in place, without copies or Poly products: the
    s^j coefficient of g_l(x, m - s) at x^i is the binomial sum
    (-1)^j sum_k C(k, j) m^(k - j) g_l[i, k] over the integer coefficients
    of g_l, and it must equal p_l[i, j] exactly, once per order.
    """
    _validate_order(l_max, m)
    for ell in range(l_max + 1):
        reflected: dict[tuple[int, int], int] = {}
        for (i, k), c in _three_term(ell, m, True).items():
            for j in range(k + 1):
                term = comb(k, j) * m ** (k - j) * c
                reflected[i, j] = reflected.get((i, j), 0) + (-term if j % 2 else term)
        if _three_term(ell, m, False) != {key: c for key, c in reflected.items() if c}:
            return False
    return True
