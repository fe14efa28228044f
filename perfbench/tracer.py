"""Span tracer for the benchmark's traced runs.

The tracer wraps the library's public functions where their callers look them
up: module attributes, names imported into other staticpot modules (for
example ``curvature_at`` in potentials, identities, global_checks, zeroset and
geodesics), and class attributes (``MetricField.matrix``, the
``PotentialField`` evaluators, ``SurfaceChart.root/sigma_at``). Each call
records one span ``(id, parent id, name, start, end)``; spans stay in memory
and are written out when the run ends. Counters sit at the same boundaries:
quadrature nodes, root cache hits, ``brentq`` objective evaluations,
``solve_ivp`` right-hand-side evaluations and ``jets.seed`` calls by depth.

Untraced runs never install the tracer, so they execute unpatched code;
``uninstall`` puts every original object back.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

QUADRATURE_DRIVERS = ("quadrature.volume_integral", "quadrature.flux_integral")
WORKER_METRICS = ("process.cpu_s", "tracing.overhead_s")  # timed by the worker

# Per-layer metrics of a traced pass, as (name, unit, better).
LAYER_METRICS = [
    ("geometry.curvature_at.calls", "count", "lower"),
    ("geometry.curvature_at.fd_calls", "count", "lower"),
    ("geometry.curvature_at.self_s", "s", "lower"),
    ("geometry.ricci_with_derivative.calls", "count", "lower"),
    ("geometry.ricci_with_derivative.self_s", "s", "lower"),
    ("geometry.christoffel_at.calls", "count", "lower"),
    ("geometry.christoffel_at.self_s", "s", "lower"),
    ("geometry.matrix.calls", "count", "lower"),
    ("geometry.matrix.self_s", "s", "lower"),
    ("geometry.metric_evals_per_node", "ratio", "lower"),
    ("potentials.static_residual.calls", "count", "lower"),
    ("potentials.static_residual.self_s", "s", "lower"),
    ("potentials.field.calls", "count", "lower"),
    ("potentials.field.self_s", "s", "lower"),
    ("identities.ricci_eigenframe.calls", "count", "lower"),
    ("identities.ricci_eigenframe.self_s", "s", "lower"),
    ("identities.tod_identity_residuals.calls", "count", "lower"),
    ("identities.tod_identity_residuals.self_s", "s", "lower"),
    ("quadrature.volume_integral.nodes", "count", "lower"),
    ("quadrature.volume_integral.self_s", "s", "lower"),
    ("quadrature.flux_integral.nodes", "count", "lower"),
    ("quadrature.flux_integral.self_s", "s", "lower"),
    ("quadrature.sphere_average.nodes", "count", "lower"),
    ("quadrature.sphere_average.self_s", "s", "lower"),
    ("zeroset.root.calls", "count", "lower"),
    ("zeroset.root.cache_hit_ratio", "ratio", "higher"),
    ("zeroset.root.self_s", "s", "lower"),
    ("zeroset.brentq.fevals", "count", "lower"),
    ("zeroset.sigma_at.calls", "count", "lower"),
    ("zeroset.sigma_at.self_s", "s", "lower"),
    ("geodesics.integrate_geodesic.self_s", "s", "lower"),
    ("geodesics.rhs_evals", "count", "lower"),
    ("geodesics.solve_curve_ode.self_s", "s", "lower"),
    ("global_checks.flow_classify.rhs_evals", "count", "lower"),
    ("global_checks.flow_classify.self_s", "s", "lower"),
    ("global_checks.fit_mass_expansion.self_s", "s", "lower"),
    ("global_checks.integral_identity_check.self_s", "s", "lower"),
    ("global_checks.capacity_balance_instance.self_s", "s", "lower"),
    ("cli.run_suite.self_s", "s", "lower"),
    ("cli.bytes_written", "count", "lower"),
    ("cli.checks_failed", "count", "lower"),
    ("jets.seed.calls.d1", "count", "lower"),
    ("jets.seed.calls.d2", "count", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("tracing.overhead_s", "s", "lower"),
]


def self_times(spans):
    """Self time of each span: its duration minus the durations of its children.

    ``spans`` holds ``(id, parent_id, name, start, end)`` tuples, parent -1 for
    a root. Returns ``{id: seconds}``.
    """
    out = {sid: end - start for sid, _, _, start, end in spans}
    for _, parent, _, start, end in spans:
        if parent in out:
            out[parent] -= end - start
    return out


def _arg(args, kwargs, position, keyword, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(keyword, default)


def _with_arg(args, kwargs, position, keyword, value):
    if len(args) > position:
        return args[:position] + (value,) + args[position + 1:], kwargs
    return args, {**kwargs, keyword: value}


def _dir_bytes(path):
    total = 0
    for entry in os.scandir(path):
        if entry.is_file():
            total += entry.stat().st_size
    return total


class Tracer:
    """Records spans and counters of the library calls made while installed."""

    def __init__(self):
        self.spans = []          # finished spans of the current pass
        self.counts = Counter()  # counters of the current pass
        self.archive = []        # spans of passes already taken
        self._stack = []         # (id, name) of the open spans
        self._next_id = 0
        self._patches = []       # (owner, attribute, original), install order
        self._origin = perf_counter()

    # -- wrapping

    def _span(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            self._stack.append((sid, name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _counting(self, fn, key):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_calls_of_arg(self, position, keyword, key):
        def before(args, kwargs):
            fn = _arg(args, kwargs, position, keyword)
            return _with_arg(args, kwargs, position, keyword, self._counting(fn, key))
        return before

    def _replace_everywhere(self, original, replacement):
        """Rebind every staticpot module attribute that refers to ``original``."""
        for modname, module in list(sys.modules.items()):
            if modname != "staticpot" and not modname.startswith("staticpot."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))

    def _replace_method(self, cls, attr, replacement):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    # -- hooks

    def _curvature_before(self, args, kwargs):
        if _arg(args, kwargs, 2, "backend", "dual") == "fd":
            self.counts["geometry.curvature_at.fd_calls"] += 1
        return args, kwargs

    def _root_before(self, args, kwargs):
        chart = args[0]
        key = (_arg(args, kwargs, 1, "u"), _arg(args, kwargs, 2, "v"))
        if key in getattr(chart, "_roots", {}):
            self.counts["zeroset.root.cache_hits"] += 1
        return args, kwargs

    def _run_suite_after(self, args, kwargs, report):
        self.counts["cli.bytes_written"] += _dir_bytes(_arg(args, kwargs, 2, "out_dir"))
        self.counts["cli.checks_failed"] += report["n_failed"]

    def _seed_counter(self, seed):
        @functools.wraps(seed)
        def counted_seed(coords, depth):
            self.counts[f"jets.seed.calls.d{depth}"] += 1
            return seed(coords, depth)

        return counted_seed

    def _solve_ivp_counter(self, solve_ivp):
        @functools.wraps(solve_ivp)
        def counted_solve_ivp(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            caller = self._stack[-1][1] if self._stack else "untraced"
            self.counts[f"{caller}.rhs_evals"] += int(sol.nfev)
            return sol

        return counted_solve_ivp

    def _brentq_counter(self, brentq):
        @functools.wraps(brentq)
        def counted_brentq(f, *args, **kwargs):
            return brentq(self._counting(f, "zeroset.brentq.fevals"), *args, **kwargs)

        return counted_brentq

    # -- installation

    def install(self):
        from staticpot import (cli, geodesics, geometry, global_checks, identities, jets,
                               potentials, quadrature, zeroset)

        functions = [
            (geometry.curvature_at, self._curvature_before, None),
            (geometry.christoffel_at, None, None),
            (geometry.ricci_with_derivative, None, None),
            (potentials.static_residual, None, None),
            (identities.ricci_eigenframe, None, None),
            (identities.tod_identity_residuals, None, None),
            (quadrature.volume_integral,
             self._count_calls_of_arg(1, "scalar_fn", "quadrature.volume_integral.nodes"), None),
            (quadrature.flux_integral,
             self._count_calls_of_arg(1, "vector_fn", "quadrature.flux_integral.nodes"), None),
            (quadrature.sphere_average,
             self._count_calls_of_arg(0, "fn", "quadrature.sphere_average.nodes"), None),
            (geodesics.integrate_geodesic, None, None),
            (geodesics.solve_curve_ode, None, None),
            (global_checks.flow_classify, None, None),
            (global_checks.fit_mass_expansion, None, None),
            (global_checks.integral_identity_check, None, None),
            (global_checks.capacity_balance_instance, None, None),
            (cli.run_suite, None, self._run_suite_after),
        ]
        try:
            for fn, before, after in functions:
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                self._replace_everywhere(fn, self._span(name, fn, before, after))
            self._replace_method(geometry.MetricField, "matrix", self._span(
                "geometry.matrix", geometry.MetricField.matrix))
            for attr in ("value", "gradient", "hessian"):
                self._replace_method(potentials.PotentialField, attr, self._span(
                    "potentials.field", getattr(potentials.PotentialField, attr)))
            self._replace_method(zeroset.SurfaceChart, "root", self._span(
                "zeroset.root", zeroset.SurfaceChart.root, self._root_before))
            self._replace_method(zeroset.SurfaceChart, "sigma_at", self._span(
                "zeroset.sigma_at", zeroset.SurfaceChart.sigma_at))
            self._replace_everywhere(jets.seed, self._seed_counter(jets.seed))
            solve_ivp = geodesics.solve_ivp
            self._replace_everywhere(solve_ivp, self._solve_ivp_counter(solve_ivp))
            self._replace_everywhere(zeroset.brentq, self._brentq_counter(zeroset.brentq))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results

    def take(self):
        """Per-layer metrics of the spans and counts since the last take."""
        spans, counts = self.spans, self.counts
        self.archive.extend(spans)
        self.spans, self.counts = [], Counter()
        return layer_metrics(spans, counts)

    def write(self, path):
        """Write every recorded span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.archive + self.spans:
                fh.write(json.dumps([sid, parent, name, start - self._origin,
                                     end - self._origin]) + "\n")


def layer_metrics(spans, counts):
    """The traced part of ``LAYER_METRICS`` for one pass."""
    own = self_times(spans)
    calls, self_s = Counter(), defaultdict(float)
    parent_of = {}
    for sid, parent, name, _, _ in spans:
        calls[name] += 1
        self_s[name] += own[sid]
        parent_of[sid] = (parent, name)

    def under_driver(sid):
        while sid != -1:
            sid, name = parent_of[sid]
            if name in QUADRATURE_DRIVERS:
                return True
        return False

    evals_in_drivers = sum(
        1 for _, parent, name, _, _ in spans
        if name in ("geometry.curvature_at", "geometry.matrix") and under_driver(parent))
    nodes = counts["quadrature.volume_integral.nodes"] + counts["quadrature.flux_integral.nodes"]
    root_calls = calls["zeroset.root"]
    out = {
        "geometry.metric_evals_per_node": evals_in_drivers / nodes if nodes else 0.0,
        "zeroset.root.cache_hit_ratio":
            counts["zeroset.root.cache_hits"] / root_calls if root_calls else 0.0,
        "geodesics.rhs_evals": counts["geodesics.integrate_geodesic.rhs_evals"],
    }
    for name, _, _ in LAYER_METRICS:
        if name in out or name in WORKER_METRICS:
            continue
        if name.endswith(".calls"):
            out[name] = calls[name[:-len(".calls")]]
        elif name.endswith(".self_s"):
            out[name] = self_s[name[:-len(".self_s")]]
        else:
            out[name] = counts[name]
    return out


def median_metrics(per_pass):
    """Median of each metric over the traced passes."""
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
