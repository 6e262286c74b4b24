"""Command line driver that grades every verification suite.

`verify [suites ...]` runs the requested suites (default: all) over a
configurable parameter grid and emits one graded entry per check.  The
configuration can come from a JSON file (--config), with individual flags
overriding file values; the environment variable CREXT_VERIFY_OUT, when
set, overrides the output path and nothing else.  Exit status is 0 when
every check passed, 1 when any failed, 2 when the configuration itself is
invalid or the report cannot be written to the output path (the path is
opened before any suite runs), and 3 when a suite raised an unexpected
exception (an internal error, not a graded failure, which removes a report
file this run created and leaves one already there untouched); each error
message is one stderr line naming the offending value, path or suite.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import stat
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import json

from . import energy, extend, opalg, scatter, special, spectral
from .report import CheckEntry, VerificationReport, render_json, render_table

__all__ = ["ConfigError", "SuiteError", "SuiteConfig", "load_config", "run_suites", "main"]


class ConfigError(Exception):
    """Invalid configuration; the message names the offending value."""


class SuiteError(Exception):
    """A suite raised an unexpected exception; the message names the suite."""


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 0
    gammas_low: tuple[float, ...] = (0.25, 0.5, 0.75)
    gammas_high: tuple[float, ...] = (1.25, 1.5, 1.75)
    lambdas: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0)
    levels: tuple[int, ...] = tuple(range(9))
    dimensions: tuple[int, ...] = (1, 2, 3)
    spot_lambdas: tuple[float, ...] = (0.5, 2.0)
    spot_levels: tuple[int, ...] = (0, 2)
    spot_dimensions: tuple[int, ...] = (1, 2)
    max_weight: int = 6
    expansion_orders: int = 8
    expansion_dims: tuple[int, ...] = (2, 3, 4)
    sample_count: int = 20
    perturbations: int = 20

    def full_modes(self):
        return tuple(
            spectral.ModeIndex(lam=l, k=k, n=n)
            for l in self.lambdas
            for k in self.levels
            for n in self.dimensions
        )

    def spot_modes(self):
        return tuple(
            spectral.ModeIndex(lam=l, k=k, n=n)
            for l in self.spot_lambdas
            for k in self.spot_levels
            for n in self.spot_dimensions
        )


def _validate(cfg: SuiteConfig) -> SuiteConfig:
    for name in (
        "lambdas",
        "levels",
        "dimensions",
        "spot_lambdas",
        "spot_levels",
        "spot_dimensions",
    ):
        if not getattr(cfg, name):
            raise ConfigError(f"field {name} is empty; the mode grid needs at least one value")
    for name in _LIST_FIELDS:
        seen = set()
        for value in getattr(cfg, name):
            if value in seen:
                raise ConfigError(f"field {name} repeats the value {value}; list each value once")
            seen.add(value)
    for g in cfg.gammas_low:
        if not 0.0 < g < 1.0:
            raise ConfigError(f"low-range order gamma = {g} must lie strictly inside (0, 1)")
    for g in cfg.gammas_high:
        if not 1.0 < g < 2.0:
            raise ConfigError(f"high-range order gamma = {g} must lie strictly inside (1, 2)")
    for lam in cfg.lambdas + cfg.spot_lambdas:
        if not (lam > 0.0 and math.isfinite(lam)):
            raise ConfigError(f"frequency lambda = {lam} must be positive and finite")
    for k in cfg.levels + cfg.spot_levels:
        if not (isinstance(k, int) and k >= 0):
            raise ConfigError(f"mode level k = {k} must be a nonnegative integer")
    for n in cfg.dimensions + cfg.spot_dimensions:
        if not (isinstance(n, int) and n >= 1):
            raise ConfigError(f"dimension n = {n} must be a positive integer")
    if not 1 <= cfg.max_weight <= 6:
        raise ConfigError(f"max factorization weight = {cfg.max_weight} must lie in 1..6")
    if cfg.expansion_orders < 1:
        raise ConfigError(f"expansion order bound = {cfg.expansion_orders} must be >= 1")
    for m in cfg.expansion_dims:
        if not (isinstance(m, int) and m >= 2):
            raise ConfigError(f"expansion dimension m = {m} must be an integer >= 2")
    if cfg.sample_count < 1:
        raise ConfigError(f"sample count = {cfg.sample_count} must be >= 1")
    if cfg.perturbations < 1:
        raise ConfigError(f"perturbation count = {cfg.perturbations} must be >= 1")
    return cfg


# -- suites -----------------------------------------------------------------

_ANCHOR_FACTOR = (
    "the weight-k vertical operator equals the ordered product "
    "prod_j (L + 2i(k-1-2j) d_t) of shifted second-order factors"
)
_ANCHOR_CHAIN = (
    "the bracket of rho^{-1} d_rho against the factored product collapses: "
    "[Y, Lt L] = 2(k-1)(Y Lt Y + Lt d_t^2)"
)
_ANCHOR_EXPANSION = (
    "the recursive boundary-expansion coefficients equal the rational "
    "prefactor c_l(s) times the two-symbol polynomial p_l"
)
_ANCHOR_DUALITY = "the symbol polynomials at s and at m - s are exchanged by the dual substitution"
_ANCHOR_EIGEN = "Delta_b u = 2 |lam| (2k + n) u on the twisted Hermite-Fourier mode"
_ANCHOR_REFLECTION = "Gamma(x) Gamma(1 - x) sin(pi x) = pi"
_ANCHOR_SHIFT_LOW = "Gamma(1 + g) = g Gamma(g)"
_ANCHOR_SHIFT_HIGH = "Gamma(2 - g) = g (g - 1) Gamma(-g)"
_ANCHOR_CONTIGUOUS = "U(a-1, b, z) + (b - 2a - z) U(a, b, z) + a (a - b + 1) U(a+1, b, z) = 0"
_ANCHOR_KUMMER_ODE = "z U'' + (b - z) U' - a U = 0 along the raising ladder"
_ANCHOR_DTN = (
    "the boundary derivative of the normalized decaying profile equals the "
    "spectral constant times the fractional symbol of the mode"
)
_ANCHOR_FOURTH = (
    "the conormal pair of the fourth-order profile carries the two spectral "
    "constants times the order-g and order-(2-g) symbols"
)
_ANCHOR_EXCLUSION = "polarized boundary data annihilate the complementary conormal functionals"
_ANCHOR_TRACE = "the minimal weighted energy equals the spectral constant times the fractional symbol"
_ANCHOR_DIRICHLET = "E(U + tW) - E(U) = t^2 E(W) for every admissible perturbation W"
_ANCHOR_COERCIVE = "admissible perturbations carry strictly positive energy"
_ANCHOR_SYMMETRY = "the polarized energy form is symmetric and diagonalized by the boundary data"


def _suite_algebra(cfg: SuiteConfig) -> list:
    entries = []
    for k in range(1, cfg.max_weight + 1):
        err = float(opalg.check_factorization(k).max_abs_coeff())
        entries.append(
            CheckEntry.graded(
                f"algebra.factorization.k={k}", _ANCHOR_FACTOR, {"k": k}, err, 0.0
            )
        )
    for k in range(3, min(cfg.max_weight, 5) + 1):
        err = float(opalg.check_commutator_chain(k).max_abs_coeff())
        entries.append(
            CheckEntry.graded(
                f"algebra.commutator_chain.k={k}", _ANCHOR_CHAIN, {"k": k}, err, 0.0
            )
        )
    return entries


def _sample_spectral_values(rng: random.Random, l_max: int, m: int, count: int):
    poles = set(scatter.expansion_coefficient(l_max, m).poles())
    values = []
    while len(values) < count:
        s = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
        if s not in poles:
            values.append(s)
    return values


def _suite_expansion(cfg: SuiteConfig) -> list:
    entries = []
    for m in cfg.expansion_dims:
        rng = random.Random(f"{cfg.seed}:expansion:{m}")
        worst = Fraction(0)
        for s in _sample_spectral_values(rng, cfg.expansion_orders, m, cfg.sample_count):
            worst = max(worst, scatter.check_expansion(cfg.expansion_orders, m, s))
        entries.append(
            CheckEntry.graded(
                f"expansion.closed_form.m={m}",
                _ANCHOR_EXPANSION,
                {"m": m, "l_max": cfg.expansion_orders, "samples": cfg.sample_count},
                float(worst),
                0.0,
            )
        )
        dual_ok = scatter.check_duality(cfg.expansion_orders, m)
        entries.append(
            CheckEntry.graded(
                f"expansion.duality.m={m}",
                _ANCHOR_DUALITY,
                {"m": m, "l_max": cfg.expansion_orders},
                0.0 if dual_ok else 1.0,
                0.0,
            )
        )
    return entries


def _kummer_probes(rng: random.Random, count: int):
    probes = []
    while len(probes) < count:
        a = rng.uniform(1.3, 12.0)
        b = rng.uniform(-0.9, 2.5)
        if b < 0.5 and abs(b - round(b)) < 0.05:
            continue
        z = math.exp(rng.uniform(math.log(1e-3), math.log(60.0)))
        probes.append((a, b, z))
    return probes


def _suite_spectral(cfg: SuiteConfig) -> list:
    entries = []
    for n in (1, 2):
        for k in (0, 1):
            for sign in (1, -1):
                residual = spectral.mode_eigenvalue_symbolic(k, n, sign)
                err = 0.0 if residual == 0 else 1.0
                entries.append(
                    CheckEntry.graded(
                        f"spectral.eigenvalue.k={k}.n={n}.sign={'+' if sign > 0 else '-'}",
                        _ANCHOR_EIGEN,
                        {"k": k, "n": n, "sign": sign},
                        err,
                        0.0,
                    )
                )
    rng = random.Random(f"{cfg.seed}:reflection")
    worst = 0.0
    for _ in range(cfg.sample_count):
        x = rng.uniform(0.05, 0.95)
        worst = max(
            worst,
            abs(special.gamma_fn(x) * special.gamma_fn(1.0 - x) * math.sin(math.pi * x) / math.pi - 1.0),
        )
    entries.append(
        CheckEntry.graded(
            "spectral.gamma_reflection",
            _ANCHOR_REFLECTION,
            {"samples": cfg.sample_count},
            worst,
            1e-12,
        )
    )
    worst_low = 0.0
    for g in cfg.gammas_low:
        worst_low = max(
            worst_low,
            abs(special.gamma_fn(1.0 + g) / (g * special.gamma_fn(g)) - 1.0),
        )
    entries.append(
        CheckEntry.graded(
            "spectral.gamma_shift.low",
            _ANCHOR_SHIFT_LOW,
            {"gammas": list(cfg.gammas_low)},
            worst_low,
            1e-12,
        )
    )
    worst_high = 0.0
    for g in cfg.gammas_high:
        worst_high = max(
            worst_high,
            abs(special.gamma_fn(2.0 - g) / (g * (g - 1.0) * special.gamma_fn(-g)) - 1.0),
        )
    entries.append(
        CheckEntry.graded(
            "spectral.gamma_shift.high",
            _ANCHOR_SHIFT_HIGH,
            {"gammas": list(cfg.gammas_high)},
            worst_high,
            1e-12,
        )
    )

    probes = _kummer_probes(random.Random(f"{cfg.seed}:kummer"), cfg.sample_count)
    # One call for every probe: per probe the contiguous rungs a - 1, a, a + 1
    # and the raising ladder, five rows at its own z.
    values = special.kummer_u_batch(
        [x for a, _, _ in probes for x in (a - 1, a, a + 1, a + 1, a + 2)],
        [x for _, b, _ in probes for x in (b, b, b, b + 1, b + 2)],
        [[z] for _, _, z in probes for _ in range(5)],
    )[:, 0].tolist()
    worst_rec = worst_ode = 0.0
    for i, (a, b, z) in enumerate(probes):
        u_m, u_0, u_p, u_1, u_2 = values[5 * i : 5 * i + 5]
        terms = (u_m, (b - 2.0 * a - z) * u_0, a * (a - b + 1.0) * u_p)
        worst_rec = max(worst_rec, abs(sum(terms)) / sum(abs(t) for t in terms))
        du = -a * u_1
        ddu = a * (a + 1.0) * u_2
        ode = (z * ddu, (b - z) * du, -a * u_0)
        worst_ode = max(worst_ode, abs(sum(ode)) / sum(abs(t) for t in ode))
    entries.append(
        CheckEntry.graded(
            "spectral.kummer_contiguous",
            _ANCHOR_CONTIGUOUS,
            {"probes": cfg.sample_count},
            worst_rec,
            1e-6,
        )
    )
    entries.append(
        CheckEntry.graded(
            "spectral.kummer_equation",
            _ANCHOR_KUMMER_ODE,
            {"probes": cfg.sample_count},
            worst_ode,
            1e-6,
        )
    )
    return entries


def _gamma_entry(check: str, anchor: str, g: float, modes, err, tol, **extra) -> CheckEntry:
    """The entry `<check>.gamma=<g>` graded over `modes` at order g."""
    parameters = {"gamma": g, "modes": len(modes), **extra}
    return CheckEntry.graded(f"{check}.gamma={g}", anchor, parameters, err, tol)


def _spot_pairs(cfg: SuiteConfig) -> list:
    """Distinct (order, mode) pairs of the gammas' orders on the spot modes, first seen first."""
    spot = cfg.spot_modes()
    params = [spectral.GammaParam(g) for g in cfg.gammas_low + cfg.gammas_high]
    return list(dict.fromkeys((o, mode) for p in params for mode in spot for o in p.orders))


def _suite_dtn(cfg: SuiteConfig) -> list:
    entries = []
    full = cfg.full_modes()
    spot = cfg.spot_modes()
    # Every numeric check reads its fits off one stacked solve that fits each
    # distinct pair once; its step control sums over them in this order.
    pairs = _spot_pairs(cfg)
    fits = dict(zip(pairs, extend.fit_boundary_expansion(pairs)))
    for g in cfg.gammas_low:
        param = spectral.GammaParam(g)
        worst = max(extend.verify_dtn_theorem(param, mode) for mode in full)
        entries.append(_gamma_entry("dtn.closed", _ANCHOR_DTN, g, full, worst, 1e-8))
        worst = max(extend.verify_dtn_theorem(param, mode, fits[g, mode]) for mode in spot)
        entries.append(_gamma_entry("dtn.numeric", _ANCHOR_DTN, g, spot, worst, 1e-4))
    for g in cfg.gammas_high:
        param = spectral.GammaParam(g)
        worst = max(max(extend.verify_fourth_constants(param, mode)) for mode in full)
        entries.append(
            _gamma_entry("dtn.fourth_constants", _ANCHOR_FOURTH, g, full, worst, 1e-6)
        )
        worst = max(
            max(extend.verify_fourth_constants(param, mode, [fits[o, mode] for o in param.orders]))
            for mode in spot
        )
        entries.append(
            _gamma_entry("dtn.fourth_constants_numeric", _ANCHOR_FOURTH, g, spot, worst, 1e-6)
        )
        worst = max(max(extend.exclusion_residuals(param, mode)) for mode in spot)
        entries.append(_gamma_entry("dtn.exclusion", _ANCHOR_EXCLUSION, g, spot, worst, 1e-8))
    return entries


def _suite_energy(cfg: SuiteConfig) -> list:
    entries = []
    spot = cfg.spot_modes()
    count = cfg.perturbations
    # The tail profiles of every order the checks read on a mode take one batch.
    energy.prepare_profiles(_spot_pairs(cfg))
    for g in cfg.gammas_low + cfg.gammas_high:
        param = spectral.GammaParam(g)
        worst = max(energy.trace_equality_check(param, mode) for mode in spot)
        entries.append(_gamma_entry("energy.trace", _ANCHOR_TRACE, g, spot, worst, 1e-6))
        worst_gap = 0.0
        floor = math.inf
        for mode in spot:
            gap, low = energy.dirichlet_principle_check(param, mode, seed=cfg.seed, count=count)
            worst_gap = max(worst_gap, gap)
            floor = min(floor, low)
        entries.append(
            _gamma_entry(
                "energy.dirichlet", _ANCHOR_DIRICHLET, g, spot, worst_gap, 1e-6, perturbations=count
            )
        )
        entries.append(
            _gamma_entry(
                "energy.coercivity",
                _ANCHOR_COERCIVE,
                g,
                spot,
                max(0.0, -floor),
                0.0,
                perturbations=count,
            )
        )
        if param.is_high:
            worst = max(
                energy.q_symmetry_check(param, mode, seed=cfg.seed, count=count) for mode in spot
            )
            entries.append(
                _gamma_entry("energy.symmetry", _ANCHOR_SYMMETRY, g, spot, worst, 1e-8, pairs=count)
            )
    return entries


SUITES = {
    "algebra": _suite_algebra,
    "expansion": _suite_expansion,
    "spectral": _suite_spectral,
    "dtn": _suite_dtn,
    "energy": _suite_energy,
}


def run_suites(cfg: SuiteConfig, names) -> VerificationReport:
    report = VerificationReport(seed=cfg.seed, suites=tuple(names))
    for name in names:
        try:
            entries = SUITES[name](cfg)
        except Exception as exc:
            raise SuiteError(f"suite {name} raised {type(exc).__name__}: {exc}") from exc
        report.extend(entries)
    return report


# -- configuration loading ---------------------------------------------------

_FIELD_TYPES = get_type_hints(SuiteConfig)
# Element type of each tuple field, and the type of each scalar field.
_LIST_FIELDS = {
    name: get_args(hint)[0] for name, hint in _FIELD_TYPES.items() if get_origin(hint) is tuple
}
_SCALAR_FIELDS = {
    name: hint for name, hint in _FIELD_TYPES.items() if get_origin(hint) is not tuple
}


_EXPECTED = {int: "an integer", float: "a number"}


def _is_number(value, kind) -> bool:
    """JSON value check; a bool is an int to Python but no number here."""
    allowed = int if kind is int else (int, float)
    return isinstance(value, allowed) and not isinstance(value, bool)


def _coerce_list(name: str, value, kind) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"field {name} = {value!r} must be a list")
    out = []
    for item in value:
        if not _is_number(item, kind):
            raise ConfigError(f"field {name} contains {item!r}, expected {_EXPECTED[kind]}")
        out.append(kind(item))
    return tuple(out)


def _config_from_file(path: str) -> tuple[dict, list | None]:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    suites = None
    updates = {}
    for key, value in raw.items():
        if key == "suites":
            if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
                raise ConfigError(f"field suites = {value!r} must be a list of names")
            suites = list(value)
        elif key in _LIST_FIELDS:
            updates[key] = _coerce_list(key, value, _LIST_FIELDS[key])
        elif key in _SCALAR_FIELDS:
            kind = _SCALAR_FIELDS[key]
            if not _is_number(value, kind):
                raise ConfigError(f"field {key} = {value!r} must be {_EXPECTED[kind]}")
            updates[key] = value
        else:
            raise ConfigError(f"unknown config field {key!r}")
    return updates, suites


def _parse_number_list(name: str, text: str, kind) -> tuple:
    items = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            items.append(kind(token))
        except ValueError as exc:
            raise ConfigError(f"flag {name} got {token!r}, expected {kind.__name__}") from exc
    return tuple(items)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _resolve_suites(names) -> list:
    for name in names:
        if name not in SUITES and name != "all":
            known = ", ".join(list(SUITES) + ["all"])
            raise ConfigError(f"unknown suite {name!r}; known suites: {known}")
    if not names or "all" in names:
        return list(SUITES)
    return list(dict.fromkeys(names))


def load_config(args) -> tuple[SuiteConfig, list]:
    updates: dict = {}
    suites_from_file = None
    if args.config:
        updates, suites_from_file = _config_from_file(args.config)
    for name, kind in _LIST_FIELDS.items():
        text = getattr(args, name, None)
        if text is not None:
            updates[name] = _parse_number_list(_flag(name), text, kind)
    for name in _SCALAR_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            updates[name] = value
    cfg = _validate(replace(SuiteConfig(), **updates))
    if args.suites:
        suite_names = _resolve_suites(args.suites)
    elif suites_from_file is not None:
        suite_names = _resolve_suites(suites_from_file) if suites_from_file else []
    else:
        suite_names = list(SUITES)
    return cfg, suite_names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Cross-check the operator, expansion, spectral, extension, "
        "and energy identities on a configurable parameter grid.",
    )
    parser.add_argument(
        "suites",
        nargs="*",
        metavar="suite",
        help=f"suites to run: {', '.join(list(SUITES) + ['all'])} (default: all)",
    )
    parser.add_argument("--config", help="JSON file with configuration fields")
    parser.add_argument("--out", help="write the report to this path instead of stdout")
    parser.add_argument(
        "--format", choices=("json", "table"), default="json", help="report format"
    )
    for name, kind in _SCALAR_FIELDS.items():
        help_text = "base seed for sampled checks" if name == "seed" else None
        parser.add_argument(_flag(name), dest=name, type=kind, help=help_text)
    for name in _LIST_FIELDS:
        parser.add_argument(_flag(name), dest=name)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, suite_names = load_config(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    out_path = os.environ.get("CREXT_VERIFY_OUT") or args.out
    created = bool(out_path) and not os.path.lexists(out_path)
    try:
        # Opened before any suite runs, so an unwritable path costs no work;
        # opened for appending, so a report already there stays intact until
        # the new one is ready.
        sink = open(out_path, "a") if out_path else sys.stdout
        try:
            report = run_suites(cfg, suite_names)
            if out_path and stat.S_ISREG(os.fstat(sink.fileno()).st_mode):
                sink.truncate(0)
            sink.write(render_table(report) if args.format == "table" else render_json(report))
        finally:
            if out_path:
                sink.close()
    except SuiteError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        if created:
            os.remove(out_path)
        return 3
    except OSError as exc:
        if not out_path:
            raise
        print(
            f"output error: cannot write the report to {out_path}: {exc.strerror or exc}",
            file=sys.stderr,
        )
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
