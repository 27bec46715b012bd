"""Spans around the calls into each srled layer, recorded from outside it.

``Tracer.install`` replaces the public functions listed in ``SPANS`` with
timing wrappers wherever an ``srled`` module holds a reference to them (so a
call from ``photon`` into ``model`` is caught as well as a call from the
benchmark), and replaces ``scipy.integrate.quad`` with a wrapper that also
counts integrand evaluations. ``uninstall`` puts every original back.

A span is aggregated when it closes: per name, the call count, the
inclusive time, the self time (inclusive minus the time covered by child
spans) and, for the spectrum evaluators, the number of omega points. The
exact-convolution path makes about 700k spectrum calls per operation, too
many to keep one record per span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np
import scipy.integrate

# module -> public functions wrapped in a span; the argument named after the
# function list splits the span name by its value
SPANS = {
    "srled.model": [(name, "omega") for name in ("commutator_spectrum", "loop_abs2",
                                                 "loop_denominator", "population_spectrum")],
    "srled.quadrature": [("integrate_1d", None)],
    "srled.photon": [("mean_photon_closed", None), ("mean_photon_quadrature", "mode")],
    "srled.g2": [("g2_closed", None), ("noise_cumulant", "mode"), ("g2_bruteforce", "mode")],
    "srled.montecarlo": [("run_monte_carlo", None), ("record_rng", None),
                         ("simulate_field_record", None), ("ou_population_path", None),
                         ("synthesize_colored_noise", None), ("estimate_moments", None)],
    "srled.sweep": [("compute_row", None), ("write_rows", "fmt"), ("read_rows", None)],
}

QUAD = "scipy.integrate.quad"


class Stat:
    __slots__ = ("count", "total", "self_time", "points")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.points = 0


def _argument(fn, name):
    """Fast getter for one argument of fn, by position or keyword."""
    params = list(inspect.signature(fn).parameters.values())
    index = [p.name for p in params].index(name)
    default = params[index].default

    def get(args, kwargs):
        if len(args) > index:
            return args[index]
        return kwargs.get(name, default)

    return get


class Tracer:
    """The aggregated spans of one traced run; install, run, uninstall, read."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.integrand_evals = 0
        self._children = [0.0]  # child time of each open span, outermost first
        self._patched: list[tuple[object, str, object]] = []

    def _close(self, name, t0, points=0):
        dur = time.perf_counter() - t0
        child = self._children.pop()
        self._children[-1] += dur
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        stat.count += 1
        stat.total += dur
        stat.self_time += dur - child
        stat.points += points

    def _wrap(self, prefix, fn, split):
        get = _argument(fn, split) if split else None
        children = self._children
        clock = time.perf_counter
        plain = f"{prefix}.{fn.__name__}"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if get is None:
                name, points = plain, 0
            elif split == "omega":
                omega = get(args, kwargs)
                points = int(np.size(omega))
                name = f"{plain}[scalar]" if np.ndim(omega) == 0 else f"{plain}[array]"
            else:
                name, points = f"{plain}[{get(args, kwargs)}]", 0
            children.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, t0, points)

        return span

    def _quad(self, quad):
        children = self._children
        clock = time.perf_counter

        @functools.wraps(quad)
        def span(func, *args, **kwargs):
            def counted(x, *extra):
                self.integrand_evals += 1
                return func(x, *extra)

            children.append(0.0)
            t0 = clock()
            try:
                return quad(counted, *args, **kwargs)
            finally:
                self._close(QUAD, t0)

        return span

    def install(self):
        replace = {}
        for modname, entries in SPANS.items():
            module = sys.modules[modname]
            prefix = modname.removeprefix("srled.")
            for fname, split in entries:
                original = getattr(module, fname)
                replace[id(original)] = self._wrap(prefix, original, split)
        loaded = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "srled" or name.startswith("srled."))]
        for module in loaded:
            for attr, value in list(vars(module).items()):
                if id(value) in replace:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, replace[id(value)])
        self._patched.append((scipy.integrate, "quad", scipy.integrate.quad))
        scipy.integrate.quad = self._quad(scipy.integrate.quad)

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- per-layer metrics ----------------------------------------------------

    def _sum(self, prefix, suffix=""):
        picked = [s for n, s in self.stats.items() if n.startswith(prefix) and n.endswith(suffix)]
        out = Stat()
        for s in picked:
            out.count += s.count
            out.total += s.total
            out.self_time += s.self_time
            out.points += s.points
        return out

    def _mean(self, name, scale, self_time=False):
        """Mean time per call in the given unit; 0 when the layer was not called."""
        stat = self._sum(name)
        if stat.count == 0:
            return 0.0
        return (stat.self_time if self_time else stat.total) / stat.count * scale

    def layer_metrics(self, n_ops):
        """The per-layer metrics of BENCHMARK.json, without the two that the
        runner measures itself (montecarlo.record_mb, trace.overhead_pct)."""
        scalar = self._sum("model.", "[scalar]")
        array = self._sum("model.", "[array]")
        return {
            "model.spectrum_scalar_us":
                scalar.self_time / scalar.count * 1e6 if scalar.count else 0.0,
            "model.spectrum_array_ns":
                array.self_time / array.points * 1e9 if array.points else 0.0,
            "model.spectrum_calls": (scalar.count + array.count) / n_ops,
            "quadrature.quad_calls": self._sum(QUAD).count / n_ops,
            "quadrature.integrand_evals": self.integrand_evals / n_ops,
            "quadrature.integrate_1d_ms": self._mean("quadrature.integrate_1d", 1e3),
            "photon.exact_s": self._mean("photon.mean_photon_quadrature[exact]", 1.0),
            "photon.delta_ms": self._mean("photon.mean_photon_quadrature[delta]", 1e3),
            "photon.closed_us": self._mean("photon.mean_photon_closed", 1e6),
            "g2.cumulant_full_ms": self._mean("g2.noise_cumulant[full]", 1e3),
            "g2.cumulant_delta_ms": self._mean("g2.noise_cumulant[delta]", 1e3),
            "g2.bruteforce_self_ms": self._mean("g2.g2_bruteforce", 1e3, self_time=True),
            "montecarlo.record_ms": self._mean("montecarlo.simulate_field_record", 1e3),
            "montecarlo.ou_path_ms": self._mean("montecarlo.ou_population_path", 1e3),
            "montecarlo.colored_noise_ms": self._mean("montecarlo.synthesize_colored_noise", 1e3),
            "montecarlo.moments_ms": self._mean("montecarlo.estimate_moments", 1e3, self_time=True),
            "sweep.row_ms": self._mean("sweep.compute_row", 1e3),
            "sweep.write_csv_ms": self._mean("sweep.write_rows[csv]", 1e3),
            "sweep.write_records_ms": self._mean("sweep.write_rows[records]", 1e3),
            "sweep.read_ms": self._mean("sweep.read_rows", 1e3),
        }

    def table(self):
        """Every span name with its count, inclusive and self seconds."""
        return {name: {"count": s.count, "total_s": s.total, "self_s": s.self_time}
                for name, s in sorted(self.stats.items())}
