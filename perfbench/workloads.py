"""The benchmark's workloads: a `verify` configuration each, plus what to expect.

Each workload is one JSON config handed to `verify --config`; the benchmark
adds its `--seed` as the config's `seed` and nothing else.  `entries` is the
number of report entries a correct run emits.  `zero` and `nonzero` name the
traced counters that must be 0, or above 0, on that workload: they keep each
workload exercising the layers it was chosen for as the code changes.
"""

from __future__ import annotations

from dataclasses import dataclass

_ALL_COUNTS = (
    "spectral.symbolic_calls",
    "opalg.calls",
    "scatter.calls",
    "scatter.recursion_calls",
    "extend.fit_calls",
    "extend.ode_nfev",
    "special.u_calls",
    "special.u_points",
    "energy.calls",
)


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    entries: int
    zero: tuple = ()
    nonzero: tuple = ()

    def config_for(self, seed: int) -> dict:
        return {**self.config, "seed": seed}


WORKLOADS = {
    w.name: w
    for w in (
        # What every user runs: `verify` with no arguments, all five suites.
        Workload("default", {}, 64, nonzero=_ALL_COUNTS),
        # Wide numeric grid: ODE boundary fits and Kummer U at large a
        # dominate; the symbolic, operator-algebra and expansion layers idle.
        Workload(
            "numeric_wide",
            {
                "suites": ["dtn", "energy"],
                "lambdas": [0.25, 4.0],
                "levels": [0, 3, 12, 32],
                "dimensions": [1, 3],
                "spot_lambdas": [0.25, 4.0],
                "spot_levels": [0, 3, 12, 32],
                "spot_dimensions": [1, 3],
                "perturbations": 4,
            },
            36,
            zero=(
                "spectral.symbolic_calls",
                "opalg.calls",
                "scatter.calls",
                "scatter.recursion_calls",
            ),
            nonzero=(
                "extend.fit_calls",
                "extend.ode_nfev",
                "special.u_calls",
                "special.u_points",
                "energy.calls",
            ),
        ),
        # Exact and symbolic layers only: Fraction recursions, operator
        # products and sympy; no ODE fit and no energy workspace is built.
        Workload(
            "exact_symbolic",
            {
                "suites": ["algebra", "expansion", "spectral"],
                "expansion_orders": 12,
                "expansion_dims": [2, 3, 4, 5, 6],
                "sample_count": 40,
            },
            32,
            zero=("extend.fit_calls", "extend.ode_nfev", "energy.calls"),
            nonzero=(
                "spectral.symbolic_calls",
                "opalg.calls",
                "scatter.calls",
                "scatter.recursion_calls",
                "special.u_calls",
            ),
        ),
    )
}


def isolation_errors(workload: Workload, counts: dict) -> list[str]:
    """Broken layer-isolation predictions, one message each."""
    errors = [
        f"{workload.name}: {key} = {counts.get(key, 0)}, predicted 0"
        for key in workload.zero
        if counts.get(key, 0) != 0
    ]
    errors += [
        f"{workload.name}: {key} = 0, predicted above 0"
        for key in workload.nonzero
        if counts.get(key, 0) <= 0
    ]
    return errors
