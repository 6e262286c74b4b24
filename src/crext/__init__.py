"""Verification toolkit for weighted extension problems on the Heisenberg half-space.

Layers, roughly bottom-up:

* ``opalg``    exact noncommutative operator algebra in (rho, d_rho, d_t, Db)
* ``scatter``  exact rational layer for the boundary expansion recursion
* ``special``  confluent hypergeometric functions (Tricomi U)
* ``spectral`` joint-spectrum modes, eigenvalues, multiplier constants
* ``extend``   mode ODE solves, branch coefficients, Dirichlet-to-Neumann checks
* ``energy``   trace energies, Dirichlet principle, bilinear-form symmetry
* ``cli``      the ``verify`` batch harness emitting JSON/table reports
"""

__version__ = "0.1.0"

__all__ = [
    "opalg",
    "scatter",
    "special",
    "spectral",
    "extend",
    "energy",
    "report",
    "cli",
]
