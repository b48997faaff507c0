"""Timing wrappers around the kit's public functions, for the traced run.

A wrapper replaces the function at every binding site: the defining module,
every hlcbs module that imported it by name, and every class attribute that
aliases it (``__rmul__ = __mul__``).  The recursive polyfam functions look
their own names up in module globals, so each recursion level is a span.

Spans are aggregated as they close: per name, the call count and the self
time (a span's duration minus the time covered by its child spans).
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

# (module, attribute path) of every traced function; the metric name is
# "<module>.<path without dunders>"
TARGETS = [
    ("series", "phi_numeric"),
    ("hyper", "pfq_eval"),
    ("hyper", "incomplete_beta_numeric"),
    ("hyper", "incomplete_beta_exact"),
    ("hyper", "central_binomial_reciprocal_seed"),
    ("hyper", "exact_gamma_ratio"),
    ("hyper", "pochhammer"),
    ("closedform", "phi_pos_hyper"),
    ("closedform", "phi_neg_hyper"),
    ("closedform", "phi_one_closed"),
    ("closedform", "phi_neg_closed"),
    ("closedform", "euler_transform_defect"),
    ("closedform", "zeta_exact"),
    ("closedform", "zeta_structured"),
    ("polyfam", "q_poly"),
    ("polyfam", "p_a_poly"),
    ("polyfam", "eulerian"),
    ("polyfam", "alpha"),
    ("exact", "UniPoly.__add__"),
    ("exact", "UniPoly.__mul__"),
    ("exact", "BiPoly.__add__"),
    ("exact", "BiPoly.__mul__"),
    ("exact", "PiExtValue.__add__"),
    ("exact", "PiExtValue.scale"),
    ("floats", "context"),
    ("verify", "run_check"),
    ("cli", "main"),
]

CACHED = ["q_poly", "p_a_poly", "eulerian", "alpha"]
SEED = "hyper.central_binomial_reciprocal_seed"


def metric_name(module: str, path: str) -> str:
    return f"{module}.{path.replace('__', '')}"


def _kit_modules():
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == "hlcbs" or name.startswith("hlcbs."))]


def _is_lattice(a) -> bool:
    a = Fraction(a)
    return (2 * a).denominator == 1 and a > 0


class Tracer:
    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.seed_routes = {"lattice": 0, "gamma": 0}
        self._stack = []
        self._patched = []  # (namespace, attribute, original)
        self.originals = {}

    def _wrap(self, name, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        clock = time.perf_counter
        routes = self.seed_routes if name == SEED else None

        def wrapper(*args, **kwargs):
            if routes is not None:
                routes["lattice" if _is_lattice(args[1]) else "gamma"] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - child
                if stack:
                    stack[-1] += elapsed

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        """Wrap every target at every binding site in the loaded kit."""
        import hlcbs.cli  # noqa: F401  (load every module that holds a binding)

        modules = _kit_modules()
        for module_name, path in TARGETS:
            module = sys.modules[f"hlcbs.{module_name}"]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            name = metric_name(module_name, path)
            self.originals[name] = original
            wrapper = self._wrap(name, original)
            if owner_name:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, key, wrapper)
            else:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, namespace, key, wrapper):
        self._patched.append((namespace, key, vars(namespace)[key]))
        setattr(namespace, key, wrapper)

    def uninstall(self):
        for namespace, key, original in reversed(self._patched):
            setattr(namespace, key, original)
        self._patched.clear()

    def cache_counts(self):
        """(hits, misses) of each memoized polyfam family since its last clear."""
        out = {}
        for fn in CACHED:
            info = self.originals[f"polyfam.{fn}"].cache_info()
            out[fn] = (info.hits, info.misses)
        return out

    def snapshot(self) -> dict:
        """Counts and self times in a JSON-ready form."""
        return {
            "calls": dict(self.calls),
            "self_ms": {k: v * 1000.0 for k, v in self.self_s.items()},
            "seed_routes": dict(self.seed_routes),
            "cache": self.cache_counts(),
        }


def merge(snapshots) -> dict:
    """Sum snapshots from several traced processes."""
    total = {"calls": {}, "self_ms": {}, "seed_routes": {"lattice": 0, "gamma": 0}, "cache": {}}
    for snap in snapshots:
        for key in ("calls", "self_ms"):
            for name, value in snap[key].items():
                total[key][name] = total[key].get(name, 0) + value
        for route, value in snap["seed_routes"].items():
            total["seed_routes"][route] += value
        for fn, (hits, misses) in snap["cache"].items():
            h, m = total["cache"].get(fn, (0, 0))
            total["cache"][fn] = (h + hits, m + misses)
    return total


def clear_kit_caches():
    """Empty every functools cache held by a kit module, so each pass pays
    what a fresh process pays for the kit's own work."""
    for mod in _kit_modules():
        for value in vars(mod).values():
            if not hasattr(value, "cache_clear"):
                value = getattr(value, "__wrapped__", None)  # a tracer wrapper
            if hasattr(value, "cache_clear"):
                value.cache_clear()
