"""Per-layer tracing from outside the library.

`Tracer.install()` replaces every public function of the traced
`spinchain` modules with a timing wrapper, in every `spinchain` module
namespace that binds it (so `from .evolve import fidelity_series` in
`cli` and `boxcount` is traced too), plus the two LAPACK entry points
the library looks up as module globals.  `uninstall()` puts the
originals back.  Spans (name, start, end, parent) stay in memory; a
layer's self time is its span time minus the time of its child spans.

`evolve.eigh_tridiagonal` is counted but not spanned: `eigendecompose`
is a thin wrapper around it, so `evolve.eigendecompose`'s self time is
the eigensolve with vectors.  `levelstats.eigvalsh_tridiagonal` is
spanned, because `collect_spacings` calls it inline.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter
from time import perf_counter

import numpy as np

import spinchain.cli  # noqa: F401  (loads every layer module)
from spinchain.boxcount import WindowSelectionError

LAYERS = ("chain", "evolve", "levelstats", "boxcount", "perturbation",
          "scans", "cli", "tableio")


def _eigh_observer(counters, args, kwargs, result, exc):
    driver = kwargs.get("lapack_driver", "auto")
    counters[f"evolve.eigh_tridiagonal.{driver}_calls"] += 1
    if driver == "stev":
        counters["evolve.eigh_tridiagonal.stev_fallbacks"] += 1
    elif driver == "stemr" and exc is None:
        counters["evolve.eigh_tridiagonal.stemr_ok"] += 1


def _fit_observer(counters, args, kwargs, result, exc):
    if isinstance(exc, WindowSelectionError):
        counters["boxcount.fit_dimension.refusals"] += 1


def _trim_observer(counters, args, kwargs, result, exc):
    if result is not None and not result.reached:
        counters["boxcount.transient_trim.not_reached"] += 1


def _series_observer(counters, args, kwargs, result, exc):
    if result is not None:  # computed, not measured: N x grid points
        counters["evolve.fidelity_series.mode_steps"] += args[0].n_sites * len(result)


def _coefficients_observer(counters, args, kwargs, result, exc):
    if result is not None and result.time > 0:
        counters["perturbation.grid_points"] += round(result.time / result.step) + 1


def _csv_observer(counters, args, kwargs, result, exc):
    if result is not None:
        counters["tableio.write_csv.bytes"] += result.stat().st_size


OBSERVERS = {
    "evolve.eigh_tridiagonal": _eigh_observer,
    "boxcount.fit_dimension": _fit_observer,
    "boxcount.transient_trim": _trim_observer,
    "evolve.fidelity_series": _series_observer,
    "perturbation.compute_coefficients": _coefficients_observer,
    "tableio.write_csv": _csv_observer,
}
UNSPANNED = {"evolve.eigh_tridiagonal"}


class Tracer:
    """Spans and counters of one traced table."""

    def __init__(self):
        # spans as parallel flat lists: few objects for the garbage collector
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.counters = Counter()
        self._stack = []
        self._restore = []       # (namespace, attribute, original)

    def _wrap(self, name, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, counters = self._stack, self.counters
        observe = OBSERVERS.get(name)
        spanned = name not in UNSPANNED

        def traced(*args, **kwargs):
            result = exc = None
            if spanned:
                index = len(names)
                names.append(name)
                parents.append(stack[-1] if stack else -1)
                ends.append(0.0)
                stack.append(index)
                starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                if spanned:
                    ends[index] = perf_counter()
                    stack.pop()
                if observe is not None:
                    observe(counters, args, kwargs, result, exc)
        return traced

    def install(self):
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"spinchain.{layer}"]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    targets[id(fn)] = (fn, f"{layer}.{attr}")
        for layer, attr in (("evolve", "eigh_tridiagonal"),
                            ("levelstats", "eigvalsh_tridiagonal")):
            fn = getattr(sys.modules[f"spinchain.{layer}"], attr)
            targets[id(fn)] = (fn, f"{layer}.{attr}")
        wrappers = {key: self._wrap(name, fn) for key, (fn, name) in targets.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "spinchain" and not mod_name.startswith("spinchain."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in targets and targets[id(value)][0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def layer_stats(self) -> dict:
        """name -> {calls, self_s, durations_s} over the recorded spans."""
        durations = [b - a for a, b in zip(self.starts, self.ends)]
        child_time = [0.0] * len(durations)
        for d, parent in zip(durations, self.parents):
            if parent >= 0:
                child_time[parent] += d
        stats = {}
        for name, d, children in zip(self.names, durations, child_time):
            s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "durations_s": []})
            s["calls"] += 1
            s["self_s"] += d - children
            s["durations_s"].append(d)
        return stats

    def dump(self, path, **extra):
        """Write the spans as {names, spans: [[name index, start, end, parent]]}."""
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        spans = [[index[n], a, b, p]
                 for n, a, b, p in zip(self.names, self.starts, self.ends, self.parents)]
        payload = {**extra, "names": names, "counters": dict(self.counters), "spans": spans}
        path.write_text(json.dumps(payload))


def percentile_us(durations, q) -> float:
    """q-th percentile in microseconds, or 0.0 below 1,000 calls."""
    if len(durations) < 1000:
        return 0.0
    return float(np.percentile(durations, q) * 1e6)
