"""Referees the tests grade crext against: plain exact forms and profiles
that no check of `verify` runs, so the package does not carry them."""

from fractions import Fraction

import numpy as np

from crext.energy import _xp_dx, _xp_eval
from crext.opalg import Poly


def subs(poly: Poly, index: int, value) -> Poly:
    """poly with the variable of the given index replaced by value.

    value is an exact scalar or a Poly in the same variables.  Each
    coefficient polynomial in that variable is evaluated by Horner's rule,
    on plain coefficients for a scalar.  The result has poly's type, so an
    `Operator` stays one.
    """
    kind = type(poly)
    by_rest: dict[tuple, dict[int, object]] = {}
    for exps, c in poly.items():
        rest = exps[:index] + (0,) + exps[index + 1 :]
        by_rest.setdefault(rest, {})[exps[index]] = c
    if not isinstance(value, Poly):
        out = {}
        for rest, cs in by_rest.items():
            acc = 0
            for d in range(max(cs), -1, -1):
                acc = acc * value + cs[d] if d in cs else acc * value
            out[rest] = acc
        return kind(out)
    out = kind()
    for rest, cs in by_rest.items():
        acc = kind()
        for d in range(max(cs), -1, -1):
            acc = Poly.__mul__(acc, value)
            if d in cs:
                acc = acc + kind({rest: cs[d]})
        out = out + acc
    return out


def as_fractions(terms) -> list[dict[tuple[int, int], Fraction]]:
    """`scatter.raw_recursion`'s (numerators, denominator) pairs as dicts of Fractions."""
    return [{k: Fraction(v, den) for k, v in nums.items()} for nums, den in terms]


def w_value(p: np.ndarray, c, rho: np.ndarray) -> np.ndarray:
    """p(x) e^{-c x} at x = rho^2, for an x-polynomial p (coefficients along the last axis)."""
    x = rho * rho
    return _xp_eval(p, x) * np.exp(-c * x)


def w_deriv(h: np.ndarray, c, rho: np.ndarray) -> np.ndarray:
    """d/drho of h(x) e^{-c x} at x = rho^2."""
    x = rho * rho
    core = _xp_eval(_xp_dx(h), x) - c * _xp_eval(h, x)
    return 2.0 * rho * core * np.exp(-c * x)
