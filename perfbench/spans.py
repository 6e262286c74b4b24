"""Per-layer spans and counters around crext's public functions.

The tracer lives in the benchmark, not in the package: it replaces each
traced function by a wrapper in every `crext.*` module that binds it by
name (crext imports layer functions with `from .x import f`, so patching
the defining module alone would miss most calls).  After patching, any
remaining reference to an original function from crext code is an error,
so a refactor that moves an import fails the traced run instead of
silently zeroing a layer.

A span covers one call of a traced function.  A layer's self time is the
total duration of its spans minus the time spent in nested spans of any
layer, so nested calls inside one layer are not counted twice.
"""

from __future__ import annotations

import gc
import sys
import types
from collections import defaultdict
from time import perf_counter


class TracingError(RuntimeError):
    """A traced function could not be wrapped everywhere crext binds it."""


def _result_size(result) -> int:
    return result.size


def _result_nfev(result) -> int:
    return result.nfev


# (module, attribute or Class.method, layer, counter, inclusive timer).
SPANS = (
    ("crext.spectral", "mode_eigenvalue_symbolic", "spectral", "spectral.symbolic_calls", "spectral.symbolic_s"),
    ("crext.opalg", "check_factorization", "opalg", "opalg.calls", None),
    ("crext.opalg", "check_commutator_chain", "opalg", "opalg.calls", None),
    ("crext.scatter", "check_expansion", "scatter", "scatter.calls", None),
    ("crext.scatter", "check_duality", "scatter", "scatter.calls", None),
    ("crext.scatter", "raw_recursion", "scatter", "scatter.recursion_calls", None),
    ("crext.special", "kummer_u_batch", "special", "special.u_calls", None),
    ("crext.extend", "frobenius_series", "extend", None, None),
    ("crext.extend", "fit_boundary_expansion", "extend", "extend.fit_calls", "extend.fit_s"),
    ("crext.extend", "verify_dtn_theorem", "extend", None, None),
    ("crext.extend", "verify_fourth_constants", "extend", None, None),
    ("crext.extend", "exclusion_residuals", "extend", None, None),
    ("crext.extend", "ModeSolution.__init__", "extend", None, None),
    ("crext.extend", "ModeSolution.derivatives", "extend", None, None),
    ("crext.extend", "FourthOrderMode.__init__", "extend", None, None),
    ("crext.extend", "FourthOrderMode.derivatives", "extend", None, None),
    ("crext.extend", "FourthOrderMode.lop", "extend", None, None),
    ("crext.energy", "trace_equality_check", "energy", "energy.calls", None),
    ("crext.energy", "dirichlet_principle_check", "energy", "energy.calls", None),
    ("crext.energy", "q_symmetry_check", "energy", "energy.calls", None),
)

# Work counters read off a traced call's result: (counter, function of the result).
AMOUNTS = {
    ("crext.special", "kummer_u_batch"): ("special.u_points", _result_size),
}

# Functions from outside crext that are counted, not timed, at crext's bindings.
FOREIGN = (
    ("scipy.integrate", "solve_ivp", "extend.ode_nfev", _result_nfev),
)

COUNTS = (
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
SELF_TIMES = ("opalg", "scatter", "extend", "special", "energy")


def _is_crext(name: str) -> bool:
    return name == "crext" or name.startswith("crext.")


def _crext_modules():
    return [m for name, m in list(sys.modules.items()) if m is not None and _is_crext(name)]


def rebind(original, wrapper) -> list[str]:
    """Point every crext binding of `original` at `wrapper`.

    Module attributes and the values of module-level dicts (such as the
    CLI's suite table) are rebound.  Raises TracingError if crext can still
    reach `original` afterwards; returns the rebound names.
    """
    rebound = []
    for module in _crext_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                rebound.append(f"{module.__name__}.{key}")
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapper
                        rebound.append(f"{module.__name__}.{key}[{k!r}]")
    _check_unreferenced(original)
    return rebound


def _crext_holders() -> dict:
    """Objects through which crext code can reach a function, by id.

    These are crext module namespaces, containers held by them (such as
    the CLI's suite table), and the defaults and closure cells of crext's
    own functions and methods.
    """
    holders = {}
    for module in _crext_modules():
        holders[id(vars(module))] = module.__name__
        for key, value in vars(module).items():
            where = f"{module.__name__}.{key}"
            if isinstance(value, (dict, list, tuple, set, frozenset)):
                holders[id(value)] = where
            if isinstance(value, type) and value.__module__ == module.__name__:
                functions = [v for v in vars(value).values() if isinstance(v, types.FunctionType)]
            else:
                functions = [value] if isinstance(value, types.FunctionType) else []
            for fn in functions:
                if not _is_crext(fn.__module__):
                    continue
                for obj in (fn.__defaults__, fn.__kwdefaults__, *(fn.__closure__ or ())):
                    if obj is not None:
                        holders[id(obj)] = f"{where} ({fn.__qualname__})"
    return holders


def _check_unreferenced(original) -> None:
    holders = _crext_holders()
    left = sorted({holders[id(ref)] for ref in gc.get_referrers(original) if id(ref) in holders})
    if left:
        raise TracingError(
            f"{original.__module__}.{original.__qualname__} is still reached unwrapped "
            f"through {', '.join(left)}; the traced run would undercount it"
        )


class Tracer:
    """Spans and counters for one traced `verify` run."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.times = defaultdict(float)
        self.self_times = defaultdict(float)
        self._stack = []

    def _span(self, fn, layer, counter, timer, amount=None):
        counts, times, self_times, stack = self.counts, self.times, self.self_times, self._stack

        def traced(*args, **kwargs):
            if counter:
                counts[counter] += 1
            nested = [0.0]
            stack.append(nested)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_times[layer] += elapsed - nested[0]
                if stack:
                    stack[-1][0] += elapsed
                if timer:
                    times[timer] += elapsed
            if amount:
                counts[amount[0]] += amount[1](result)
            return result

        traced.__name__, traced.__qualname__, traced.__doc__ = fn.__name__, fn.__qualname__, fn.__doc__
        return traced

    def _counted(self, fn, counter, measure):
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[counter] += measure(result)
            return result

        counted.__name__, counted.__qualname__, counted.__doc__ = fn.__name__, fn.__qualname__, fn.__doc__
        return counted

    def install(self, cli) -> None:
        """Wrap the suites of `cli.SUITES` and every function in SPANS and FOREIGN."""
        for name in list(cli.SUITES):
            suite = cli.SUITES[name]
            rebind(suite, self._span(suite, "cli", None, f"cli.suite_s.{name}"))
        for module_name, path, layer, counter, timer in SPANS:
            owner = sys.modules[module_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._span(original, layer, counter, timer, AMOUNTS.get((module_name, path)))
            if cls_path:
                setattr(owner, attr, wrapper)
                _check_unreferenced(original)
            elif not rebind(original, wrapper):
                raise TracingError(f"{module_name}.{path} is bound nowhere in crext")
        for module_name, attr, counter, measure in FOREIGN:
            original = getattr(sys.modules[module_name], attr)
            if not rebind(original, self._counted(original, counter, measure)):
                raise TracingError(f"{module_name}.{attr} is bound nowhere in crext")

    def metrics(self, suites) -> dict:
        out = {key: self.counts.get(key, 0) for key in COUNTS}
        out.update({f"cli.suite_s.{name}": self.times.get(f"cli.suite_s.{name}", 0.0) for name in suites})
        out.update({timer: self.times.get(timer, 0.0) for *_, timer in SPANS if timer})
        out.update({f"{layer}.self_s": self.self_times.get(layer, 0.0) for layer in SELF_TIMES})
        return out
