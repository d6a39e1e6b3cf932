"""In-memory span tracer over the public functions of modwave's modules.

The modules bind each other's functions by name (``from .spectral import
free_propagate``), so wrapping ``modwave.spectral.free_propagate`` alone
would trace no caller.  ``Tracer.install`` replaces the function under every
name that holds it: in each module namespace, in the package namespace and
in module-level dicts such as ``campaigns.CAMPAIGNS``.

Open spans sit on one stack, so the span below the top is the parent.  When
a span ends, its duration is added to its parent's child time; its self time
is its duration minus that child time.  Self times therefore partition the
root spans' intervals exactly and no interval is counted twice.  Spans are
aggregated per function in memory and handed out by ``summary`` at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("spectral", "profile", "trilinear", "fixedpoint", "evolve", "fitting",
          "campaigns", "cli")

# cli.main is the entry point: its span would include config parsing, which is
# set-up, not campaign time.
UNTRACED = {"cli.main"}

# Work counted per call from the call's result.
AMOUNTS = {
    "spectral.forward_transform": lambda out: out.grid.num_points,
    "spectral.inverse_transform": lambda out: out.grid.num_points,
    "fixedpoint.picard_iterate": lambda out: out[1].iterates,
    "evolve.evolve": lambda out: out[-1].step_count if out else 0,
}


class Tracer:
    """Per-function span totals: ``stats[key] = [calls, self_s, total_s, amount]``."""

    def __init__(self):
        self.stats = {}
        self.fields_built = 0
        self._stack = []  # child time accumulated by each open span

    def _span(self, key, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        amount = AMOUNTS.get(key)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                stat[0] += 1
                stat[1] += duration - child
                stat[2] += duration
            if amount is not None:
                stat[3] += amount(out)
            return out

        return wrapper

    def _count_fields(self, post_init):
        @functools.wraps(post_init)
        def wrapper(field_self):
            self.fields_built += 1
            post_init(field_self)

        return wrapper

    def install(self, package: str = "modwave") -> None:
        """Wrap every public function of the layer modules under all its names."""
        modules = [importlib.import_module(f"{package}.{name}") for name in LAYERS]
        wrapped = {}
        for layer, module in zip(LAYERS, modules):
            for name, obj in vars(module).items():
                key = f"{layer}.{name}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_") and key not in UNTRACED):
                    wrapped[obj] = self._span(key, obj)
        namespaces = [vars(m) for m in (importlib.import_module(package), *modules)]
        namespaces += [value for ns in namespaces for name, value in ns.items()
                       if isinstance(value, dict) and not name.startswith("__")]
        for ns in namespaces:
            for name, value in list(ns.items()):
                if inspect.isfunction(value) and value in wrapped:
                    ns[name] = wrapped[value]
        spectral = modules[0]
        for cls in (spectral.PhysicalField, spectral.FrequencyField):
            cls.__post_init__ = self._count_fields(cls.__post_init__)

    def summary(self) -> dict:
        return {"spans": self.stats, "fields_built": self.fields_built}
