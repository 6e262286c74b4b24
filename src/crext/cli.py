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

import gc

# The imports load numpy and scipy, whose objects live until exit, so a
# collection during them would only walk that graph: they run with the
# collector paused.  Then freeze + unfreeze zeroes the young count and hands
# every tracked object to the oldest generation without walking it.  A host's
# frozen objects stay frozen (unfreeze would thaw them), so then the handoff
# is skipped.  `main` freezes the graph for the exit-time collection.
_collecting, _host_frozen = gc.isenabled(), gc.get_freeze_count()
gc.disable()
try:
    import argparse
    import json
    import math
    import os
    import random
    import stat
    import sys
    from dataclasses import dataclass, replace
    from fractions import Fraction
    from pathlib import Path
    from typing import get_args, get_origin, get_type_hints

    from . import energy, extend, opalg, scatter, special, spectral
    from .report import CheckEntry, VerificationReport, render_json, render_table, worst_error
finally:
    if not _host_frozen:
        gc.freeze()
        gc.unfreeze()
    if _collecting:
        gc.enable()

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

# The check contract, one row per family: family -> (tolerance, anchor).  An
# entry's id is its family plus a suffix naming its parameter point.
_DTN_ANCHOR = (
    "the boundary derivative of the normalized decaying profile equals the "
    "spectral constant times the fractional symbol of the mode"
)
_FOURTH_ANCHOR = (
    "the conormal pair of the fourth-order profile carries the two spectral "
    "constants times the order-g and order-(2-g) symbols"
)
_FAMILIES = {
    "algebra.factorization": (
        0.0,
        "the weight-k vertical operator equals the ordered product "
        "prod_j (L + 2i(k-1-2j) d_t) of shifted second-order factors",
    ),
    "algebra.commutator_chain": (
        0.0,
        "the bracket of rho^{-1} d_rho against the factored product collapses: "
        "[Y, Lt L] = 2(k-1)(Y Lt Y + Lt d_t^2)",
    ),
    "expansion.closed_form": (
        0.0,
        "the recursive boundary-expansion coefficients equal the rational "
        "prefactor c_l(s) times the two-symbol polynomial p_l",
    ),
    "expansion.duality": (
        0.0,
        "the symbol polynomials at s and at m - s are exchanged by the dual substitution",
    ),
    "spectral.eigenvalue": (
        0.0,
        "Delta_b u = 2 |lam| (2k + n) u on the twisted Hermite-Fourier mode",
    ),
    "spectral.gamma_reflection": (1e-12, "Gamma(x) Gamma(1 - x) sin(pi x) = pi"),
    "spectral.gamma_shift.low": (1e-12, "Gamma(1 + g) = g Gamma(g)"),
    "spectral.gamma_shift.high": (1e-12, "Gamma(2 - g) = g (g - 1) Gamma(-g)"),
    "spectral.kummer_contiguous": (
        1e-6,
        "U(a-1, b, z) + (b - 2a - z) U(a, b, z) + a (a - b + 1) U(a+1, b, z) = 0",
    ),
    "spectral.kummer_equation": (1e-6, "z U'' + (b - z) U' - a U = 0 along the raising ladder"),
    "dtn.closed": (1e-8, _DTN_ANCHOR),
    "dtn.numeric": (1e-4, _DTN_ANCHOR),
    "dtn.fourth_constants": (1e-6, _FOURTH_ANCHOR),
    "dtn.fourth_constants_numeric": (1e-6, _FOURTH_ANCHOR),
    "dtn.exclusion": (
        1e-8,
        "polarized boundary data annihilate the complementary conormal functionals",
    ),
    "energy.trace": (
        1e-6,
        "the minimal weighted energy equals the spectral constant times the fractional symbol",
    ),
    "energy.dirichlet": (1e-6, "E(U + tW) - E(U) = t^2 E(W) for every admissible perturbation W"),
    "energy.coercivity": (0.0, "admissible perturbations carry strictly positive energy"),
    "energy.symmetry": (
        1e-8,
        "the polarized energy form is symmetric and diagonalized by the boundary data",
    ),
}


def _entry(family: str, errors, suffix: str = "", **parameters) -> CheckEntry:
    """The entry `<family><suffix>`, graded on the worst of `errors` by its family's row."""
    tolerance, anchor = _FAMILIES[family]
    return CheckEntry.graded(family + suffix, anchor, parameters, worst_error(errors), tolerance)


def _gamma_entry(family: str, g: float, modes, errors, **parameters) -> CheckEntry:
    """The entry `<family>.gamma=<g>` graded over `modes` at order g."""
    return _entry(family, errors, f".gamma={g}", gamma=g, modes=len(modes), **parameters)


def _suite_algebra(cfg: SuiteConfig) -> list:
    entries = []
    for k in range(1, cfg.max_weight + 1):
        err = opalg.check_factorization(k).max_abs_coeff()
        entries.append(_entry("algebra.factorization", [err], f".k={k}", k=k))
    for k in range(3, min(cfg.max_weight, 5) + 1):
        err = opalg.check_commutator_chain(k).max_abs_coeff()
        entries.append(_entry("algebra.commutator_chain", [err], f".k={k}", k=k))
    return entries


def _sample_spectral_values(rng: random.Random, l_max: int, m: int, count: int):
    poles = set(scatter.expansion_poles(l_max, m))
    values = []
    while len(values) < count:
        s = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
        if s not in poles:
            values.append(s)
    return values


def _suite_expansion(cfg: SuiteConfig) -> list:
    entries = []
    l_max = cfg.expansion_orders
    for m in cfg.expansion_dims:
        rng = random.Random(f"{cfg.seed}:expansion:{m}")
        points = _sample_spectral_values(rng, l_max, m, cfg.sample_count)
        errors = [scatter.check_expansion(l_max, m, s) for s in points]
        samples = len(points)
        entries.append(
            _entry("expansion.closed_form", errors, f".m={m}", m=m, l_max=l_max, samples=samples)
        )
        errors = [0.0 if scatter.check_duality(l_max, m) else 1.0]
        entries.append(_entry("expansion.duality", errors, f".m={m}", m=m, l_max=l_max))
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
                suffix = f".k={k}.n={n}.sign={'+' if sign > 0 else '-'}"
                errors = [0.0 if residual == 0 else 1.0]
                entries.append(_entry("spectral.eigenvalue", errors, suffix, k=k, n=n, sign=sign))
    gamma = special.gamma_fn
    rng = random.Random(f"{cfg.seed}:reflection")
    xs = [rng.uniform(0.05, 0.95) for _ in range(cfg.sample_count)]
    errors = [abs(gamma(x) * gamma(1.0 - x) * math.sin(math.pi * x) / math.pi - 1.0) for x in xs]
    entries.append(_entry("spectral.gamma_reflection", errors, samples=cfg.sample_count))
    errors = [abs(gamma(1.0 + g) / (g * gamma(g)) - 1.0) for g in cfg.gammas_low]
    entries.append(_entry("spectral.gamma_shift.low", errors, gammas=list(cfg.gammas_low)))
    errors = [abs(gamma(2.0 - g) / (g * (g - 1.0) * gamma(-g)) - 1.0) for g in cfg.gammas_high]
    entries.append(_entry("spectral.gamma_shift.high", errors, gammas=list(cfg.gammas_high)))

    probes = _kummer_probes(random.Random(f"{cfg.seed}:kummer"), cfg.sample_count)
    # One call for every probe: per probe the contiguous rungs a - 1, a, a + 1
    # and the raising ladder, five rows at its own z.
    values = special.kummer_u_batch(
        [x for a, _, _ in probes for x in (a - 1, a, a + 1, a + 1, a + 2)],
        [x for _, b, _ in probes for x in (b, b, b, b + 1, b + 2)],
        [[z] for _, _, z in probes for _ in range(5)],
    )[:, 0].tolist()
    recurrence, equation = [], []
    for i, (a, b, z) in enumerate(probes):
        u_m, u_0, u_p, u_1, u_2 = values[5 * i : 5 * i + 5]
        terms = (u_m, (b - 2.0 * a - z) * u_0, a * (a - b + 1.0) * u_p)
        recurrence.append(abs(sum(terms)) / sum(abs(t) for t in terms))
        du = -a * u_1
        ddu = a * (a + 1.0) * u_2
        ode = (z * ddu, (b - z) * du, -a * u_0)
        equation.append(abs(sum(ode)) / sum(abs(t) for t in ode))
    entries.append(_entry("spectral.kummer_contiguous", recurrence, probes=cfg.sample_count))
    entries.append(_entry("spectral.kummer_equation", equation, probes=cfg.sample_count))
    return entries


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
        errors = [extend.verify_dtn_theorem(param, mode) for mode in full]
        entries.append(_gamma_entry("dtn.closed", g, full, errors))
        errors = [extend.verify_dtn_theorem(param, mode, fits[g, mode]) for mode in spot]
        entries.append(_gamma_entry("dtn.numeric", g, spot, errors))
    for g in cfg.gammas_high:
        param = spectral.GammaParam(g)
        errors = [e for mode in full for e in extend.verify_fourth_constants(param, mode)]
        entries.append(_gamma_entry("dtn.fourth_constants", g, full, errors))
        errors = []
        for mode in spot:
            fitted = [fits[o, mode] for o in param.orders]
            errors += extend.verify_fourth_constants(param, mode, fitted)
        entries.append(_gamma_entry("dtn.fourth_constants_numeric", g, spot, errors))
        errors = [e for mode in spot for e in extend.exclusion_residuals(param, mode)]
        entries.append(_gamma_entry("dtn.exclusion", g, spot, errors))
    return entries


def _suite_energy(cfg: SuiteConfig) -> list:
    entries = []
    spot = cfg.spot_modes()
    count = cfg.perturbations
    # The tail profiles the checks read take one U batch per level 2k + n.
    energy.prepare_profiles(_spot_pairs(cfg))
    for g in cfg.gammas_low + cfg.gammas_high:
        param = spectral.GammaParam(g)
        # A mode's checks run in a row, so its workspace's Grams are built once.
        traces, gaps, lows, symmetries = [], [], [], []
        for mode in spot:
            traces.append(energy.trace_equality_check(param, mode))
            gap, low = energy.dirichlet_principle_check(param, mode, seed=cfg.seed, count=count)
            gaps.append(gap)
            # Coercivity fails when some perturbation's energy falls below zero.
            lows.append(-low)
            if param.is_high:
                symmetries.append(
                    energy.q_symmetry_check(param, mode, seed=cfg.seed, count=count)
                )
        entries.append(_gamma_entry("energy.trace", g, spot, traces))
        entries.append(_gamma_entry("energy.dirichlet", g, spot, gaps, perturbations=count))
        entries.append(_gamma_entry("energy.coercivity", g, spot, lows, perturbations=count))
        if param.is_high:
            entries.append(_gamma_entry("energy.symmetry", g, spot, symmetries, pairs=count))
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
    # The import graph lives until exit: frozen, no collection walks it again.
    gc.freeze()
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
