"""Acceptance gate: every stated criterion, graded at its stated tolerance.

Each test prints one verdict line for its criterion (visible with -s or on
failure).  The grids here are the contractual ones: the full mode grid is
five frequencies, nine levels, and three dimensions; the spot grid for the
expensive numeric paths is two of each.
"""

import random
import time
from fractions import Fraction

import pytest

from crext.energy import (
    dirichlet_principle_check,
    q_symmetry_check,
    trace_equality_check,
)
from crext.extend import (
    exclusion_residuals,
    fit_boundary_expansion,
    verify_dtn_theorem,
    verify_fourth_constants,
)
from crext.opalg import check_commutator_chain, check_factorization
from crext.scatter import check_duality, check_expansion, raw_recursion
from crext.special import gamma_fn, kummer_u_batch
from crext.spectral import GammaParam, ModeIndex, mode_eigenvalue_symbolic

LOW_GAMMAS = (0.25, 0.5, 0.75)
HIGH_GAMMAS = (1.25, 1.5, 1.75)

FULL_MODES = tuple(
    ModeIndex(lam=l, k=k, n=n)
    for l in (0.25, 0.5, 1.0, 2.0, 4.0)
    for k in range(9)
    for n in (1, 2, 3)
)
SPOT_MODES = tuple(
    ModeIndex(lam=l, k=k, n=n) for l in (0.5, 2.0) for k in (0, 2) for n in (1, 2)
)


def _grade(name: str, measured: float, tolerance: float) -> None:
    verdict = "PASS" if measured <= tolerance else "FAIL"
    print(f"{verdict} {name}: measured {measured:.3e} against tolerance {tolerance:.1e}")
    assert measured <= tolerance, f"{name}: {measured!r} exceeds {tolerance!r}"


def test_factorization_identity_is_exact_for_all_weights():
    start = time.perf_counter()
    worst = max(float(check_factorization(k).max_abs_coeff()) for k in range(1, 7))
    elapsed = time.perf_counter() - start
    _grade("factorization k=1..6 (exact)", worst, 0.0)
    assert elapsed < 10.0, f"factorization sweep took {elapsed:.1f}s"


def test_commutator_chain_collapses_exactly():
    start = time.perf_counter()
    worst = max(float(check_commutator_chain(k).max_abs_coeff()) for k in (3, 4, 5))
    elapsed = time.perf_counter() - start
    _grade("commutator chain k=3..5 (exact)", worst, 0.0)
    assert elapsed < 10.0, f"commutator sweep took {elapsed:.1f}s"


def test_boundary_expansion_closed_form_and_duality():
    worst = Fraction(0)
    for m in (2, 3, 4):
        rng = random.Random(f"acceptance:expansion:{m}")
        drawn = 0
        while drawn < 20:
            s = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
            try:
                for l in range(2, 9):
                    raw_recursion(l, m, s)
            except ValueError:
                continue
            worst = max(worst, check_expansion(8, m, s))
            drawn += 1
        assert check_duality(8, m)
    _grade("expansion closed form l<=8, 20 rational points, 3 dims", float(worst), 0.0)


def test_sublaplacian_eigenvalue_on_symbolic_modes():
    residuals = [
        mode_eigenvalue_symbolic(k, n, sign)
        for k in (0, 1)
        for n in (1, 2)
        for sign in (1, -1)
    ]
    worst = 0.0 if all(r == 0 for r in residuals) else 1.0
    _grade("mode eigenvalue identity (symbolic)", worst, 0.0)


def test_low_range_boundary_derivative_constants():
    worst_closed = max(
        verify_dtn_theorem(GammaParam(g), mode)
        for g in LOW_GAMMAS
        for mode in FULL_MODES
    )
    _grade("low-range derivative constant, closed, full grid", worst_closed, 1e-8)
    pairs = [(g, mode) for g in LOW_GAMMAS for mode in SPOT_MODES]
    worst_numeric = max(
        verify_dtn_theorem(GammaParam(g), mode, fit)
        for (g, mode), fit in zip(pairs, fit_boundary_expansion(pairs))
    )
    _grade("low-range derivative constant, integrated, spot grid", worst_numeric, 1e-4)


def test_high_range_constant_pair_and_exclusion():
    worst_closed = max(
        max(verify_fourth_constants(GammaParam(g), mode))
        for g in HIGH_GAMMAS
        for mode in FULL_MODES
    )
    _grade("high-range constant pair, closed, full grid", worst_closed, 1e-6)
    points = [(GammaParam(g), mode) for g in HIGH_GAMMAS for mode in SPOT_MODES]
    pairs = [(order, mode) for p, mode in points for order in p.orders]
    fits = dict(zip(pairs, fit_boundary_expansion(pairs)))
    worst_numeric = max(
        max(verify_fourth_constants(p, mode, [fits[o, mode] for o in p.orders]))
        for p, mode in points
    )
    _grade("high-range constant pair, integrated, spot grid", worst_numeric, 1e-6)
    worst_exclusion = max(
        max(exclusion_residuals(GammaParam(g), mode))
        for g in HIGH_GAMMAS
        for mode in SPOT_MODES
    )
    _grade("polarized data exclusion", worst_exclusion, 1e-8)


def _spot_levels() -> list:
    """SPOT_MODES grouped by level 2k + n, the unit the energy checks take."""
    levels = {}
    for mode in SPOT_MODES:
        levels.setdefault(2 * mode.k + mode.n, []).append(mode)
    return list(levels.values())


def test_energy_trace_equality_across_both_ranges():
    worst = max(
        max(trace_equality_check(GammaParam(g), modes))
        for g in LOW_GAMMAS + HIGH_GAMMAS
        for modes in _spot_levels()
    )
    _grade("energy trace equality, both ranges", worst, 1e-6)


def test_dirichlet_principle_with_seeded_perturbations():
    worst = 0.0
    floor = float("inf")
    for g in LOW_GAMMAS + HIGH_GAMMAS:
        for modes in _spot_levels():
            for gap, low in dirichlet_principle_check(GammaParam(g), modes, seed=0, count=20):
                worst = max(worst, gap)
                floor = min(floor, low)
    _grade("energy excess identity, 20 perturbations per point", worst, 1e-6)
    _grade("perturbation energy strict positivity", max(0.0, -floor), 0.0)


def test_polarized_form_symmetry_and_boundary_representation():
    worst = max(
        max(q_symmetry_check(GammaParam(g), modes, seed=0, count=20))
        for g in HIGH_GAMMAS
        for modes in _spot_levels()
    )
    _grade("polarized form symmetry, 20 data pairs per point", worst, 1e-8)


def test_gamma_function_identities_and_kummer_residuals():
    rng = random.Random("acceptance:gamma")
    import math

    worst_gamma = 0.0
    for _ in range(20):
        x = rng.uniform(0.05, 0.95)
        worst_gamma = max(
            worst_gamma,
            abs(gamma_fn(x) * gamma_fn(1.0 - x) * math.sin(math.pi * x) / math.pi - 1.0),
        )
    for g in LOW_GAMMAS:
        worst_gamma = max(worst_gamma, abs(gamma_fn(1.0 + g) / (g * gamma_fn(g)) - 1.0))
    for g in HIGH_GAMMAS:
        worst_gamma = max(
            worst_gamma,
            abs(gamma_fn(2.0 - g) / (g * (g - 1.0) * gamma_fn(-g)) - 1.0),
        )
    _grade("gamma reflection and shift identities", worst_gamma, 1e-12)

    rng = random.Random("acceptance:kummer")
    worst_kummer = 0.0
    for _ in range(30):
        a = rng.uniform(1.3, 12.0)
        b = rng.uniform(-0.9, 2.5)
        if b < 0.5 and abs(b - round(b)) < 0.05:
            continue
        z = math.exp(rng.uniform(math.log(1e-3), math.log(60.0)))
        u_m, u_0, u_p = (kummer_u_batch(a + i, b, z).item() for i in (-1, 0, 1))
        terms = (u_m, (b - 2.0 * a - z) * u_0, a * (a - b + 1.0) * u_p)
        worst_kummer = max(worst_kummer, abs(sum(terms)) / sum(abs(t) for t in terms))
        du = -a * kummer_u_batch(a + 1.0, b + 1.0, z).item()
        ddu = a * (a + 1.0) * kummer_u_batch(a + 2.0, b + 2.0, z).item()
        ode = (z * ddu, (b - z) * du, -a * u_0)
        worst_kummer = max(worst_kummer, abs(sum(ode)) / sum(abs(t) for t in ode))
    _grade("confluent second-solution residuals", worst_kummer, 1e-6)
